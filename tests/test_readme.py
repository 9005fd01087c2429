"""The README's examples against the code.

The "Library quick tour" block runs as written, and each expression
statement whose line ends in a ``# value`` comment must have that repr.  Each
``$ symsum ...`` example whose output is printed in full must print exactly
that.  Values and outputs elided with ``...`` are not compared.
"""

from __future__ import annotations

import ast
import re
import shlex
from pathlib import Path

from symsum.search_cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def section(title: str) -> str:
    """The README text under a heading, up to the next heading of any level."""
    text = README.read_text()
    start = text.index(f"\n{title}\n") + len(title) + 2
    end = text.find("\n#", start)
    return text[start:] if end < 0 else text[start:end]


def fenced_blocks(text: str, lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.M | re.S)


def shell_examples() -> list[tuple[str, str]]:
    """(command, printed output) for every ``$ symsum`` line."""
    examples = []
    for block in fenced_blocks(section("## Command line"), "sh"):
        for chunk in re.split(r"\n\n+", block.strip()):
            first, _, output = chunk.partition("\n")
            if first.startswith("$ symsum "):
                examples.append((first[2:], output))
    return examples


def test_library_quick_tour():
    (block,) = fenced_blocks(section("## Library quick tour"), "python")
    lines = block.splitlines()
    namespace: dict = {}
    compared = 0
    for stmt in ast.parse(block).body:
        code = ast.get_source_segment(block, stmt)
        _, hash_, comment = lines[stmt.end_lineno - 1].partition("#")
        if not isinstance(stmt, ast.Expr) or not hash_:
            exec(compile(code, README.name, "exec"), namespace)
            continue
        value = eval(compile(code, README.name, "eval"), namespace)
        if "..." not in comment:
            assert repr(value) == comment.strip(), code
            compared += 1
    assert compared >= 5


def test_command_line_examples(capsys):
    compared = []
    for command, output in shell_examples():
        if not output or "..." in output:
            continue
        code = main(shlex.split(command)[1:])
        assert (code, capsys.readouterr().out) == (0, output + "\n"), command
        compared.append(command)
    assert len(compared) >= 3, compared


def test_named_code_resolves():
    # A backticked identifier that reads as a code name (six characters or
    # more, with an underscore or a capital after its first letter) must
    # exist in the package, so the prose cannot outlive a rename or deletion.
    import symsum
    from symsum import balance, boolean_core, diophantine, expsum, recurrence, search_cli

    spaces = (symsum, balance, boolean_core, diophantine, expsum, recurrence, search_cli)
    values = {status.value for status in symsum.BalanceStatus}
    names = {
        name for name in re.findall(r"`([A-Za-z_]\w*)[`(]", README.read_text())
        if len(name) >= 6 and re.search(r"[_A-Z]", name[1:])
    }
    assert len(names) >= 10, sorted(names)
    unresolved = sorted(
        name for name in names
        if name not in values and not any(hasattr(space, name) for space in spaces)
    )
    assert not unresolved, unresolved


def test_code_names_resolve():
    # Every backticked `module.attr` of a package module, or `Class.attr` of
    # an exported class, must resolve, and so must every backticked
    # snake_case name of two or more parts of two or more characters each:
    # as a package module, an attribute of a module or of one of its classes,
    # or a BalanceStatus value.  A reference to a deleted function or method
    # fails here.
    import inspect

    import symsum
    from symsum import balance, boolean_core, diophantine, expsum, recurrence, search_cli

    modules = {m.__name__.rpartition(".")[2]: m
               for m in (balance, boolean_core, diophantine, expsum, recurrence, search_cli)}
    text = README.read_text()
    owners = {**modules, **dict(inspect.getmembers(symsum, inspect.isclass))}
    refs = set(re.findall(r"`(\w+)\.(\w+)", text))
    dotted = sorted((owner, attr) for owner, attr in refs if owner in owners)
    assert len(dotted) >= 14, dotted
    assert not [ref for ref in dotted if not hasattr(owners[ref[0]], ref[1])]

    spaces = [symsum, *modules.values()]
    spaces += [cls for m in modules.values() for _, cls in inspect.getmembers(m, inspect.isclass)
               if cls.__module__ == m.__name__]
    values = {status.value for status in symsum.BalanceStatus}
    names = {
        name for name in re.findall(r"`([A-Za-z_]\w*)[`(]", text)
        if re.fullmatch(r"_?[a-z0-9]{2,}(_[a-z0-9]{2,})+", name)
    }
    assert len(names) >= 20, sorted(names)
    unresolved = sorted(
        name for name in names
        if name not in modules and name not in values
        and not any(hasattr(space, name) for space in spaces)
    )
    assert not unresolved, unresolved
