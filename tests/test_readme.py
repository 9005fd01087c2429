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
