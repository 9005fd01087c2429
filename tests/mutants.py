"""A catalogue of mutants, each of which the tests named with it must kill.

A mutant is one exact substitution in one source file: a fault that an oracle
or a refusal test exists to catch.  Run the catalogue by hand, from any
directory, before a change that touches an oracle, the census engine or the
CLI's error paths:

    python tests/mutants.py

For each mutant the script copies ``src``, ``tests``, ``perfbench`` and
``pyproject.toml`` to a temporary directory (the ``pythonpath`` setting in
``pyproject.toml`` makes pytest import that copy), applies the substitution,
and runs only the named tests with ``-x``, one child process at a time.  The
mutant is killed when they fail.  First it runs all the named tests on an
unmutated copy, since a test that fails anyway kills nothing.  Every run
passes the same ``--hypothesis-seed``, so Hypothesis tests draw the same
examples each time and a catalogue run is reproducible.

It exits 1 when a mutant survives, when a run errs or times out, when the
unmutated copy fails, or when an old text does not occur exactly once.
pytest does not collect this file; ``tests/test_source.py`` checks in tier 1
that every old text still occurs exactly once, so a refactor that moves a
mutated line has to update its entry.  A mutant whose only killer would run
an over-budget cell does not belong here, and neither does one whose only
killer is a random test.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
TIMEOUT_S = 600
HYPOTHESIS_SEED = 0


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant("Pascal step reversed", "src/symsum/expsum.py",
           "acc[-1:] + acc[:-1]", "acc[1:] + acc[:1]",
           ("tests/test_expsum.py",)),
    Mutant("residue fold mirrors onto the wrong class", "src/symsum/expsum.py",
           "if 2 * l != n:", "if 2 * l != n - 1:",
           ("tests/test_expsum.py", "tests/test_recurrence.py")),
    Mutant("subset-XOR transform steps past a bit", "src/symsum/expsum.py",
           "clear ^= clear << s", "clear ^= clear << (s + 1)",
           ("tests/test_expsum.py::TestSignRow::test_matches_binom_parity",)),
    Mutant("Moebius sign", "src/symsum/diophantine.py",
           "return -mu if d > 1 else mu", "return mu if d > 1 else mu",
           ("tests/test_diophantine.py",)),
    Mutant("divisor run keeps only its last divisor's Moebius value",
           "src/symsum/diophantine.py",
           "runs[top // d] = runs.get(top // d, 0) + _mobius(d)",
           "runs[top // d] = _mobius(d)",
           ("tests/test_diophantine.py::TestClasses"
            "::test_divisor_runs_equal_the_per_divisor_sum",)),
    Mutant("divisor run's center bound rounded up", "src/symsum/diophantine.py",
           "shrunk.append(c // 2)", "shrunk.append((c + 1) // 2)",
           ("tests/test_diophantine.py::TestClasses"
            "::test_divisor_runs_equal_the_per_divisor_sum",)),
    Mutant("box-count slot one bit narrow", "src/symsum/diophantine.py",
           "k = prod(sizes).bit_length()", "k = prod(sizes).bit_length() - 1",
           ("tests/test_diophantine.py::TestBoxCount::test_small_values",)),
    Mutant("class key sign left negative", "src/symsum/diophantine.py",
           "if g and next(filter(None, fold)) < 0:", "if g and next(filter(None, fold)) > 0:",
           ("tests/test_diophantine.py",)),
    Mutant("class key not divided by its gcd", "src/symsum/diophantine.py",
           "norm = fold if g in (0, 1) else tuple(c // g for c in fold)", "norm = fold",
           ("tests/test_diophantine.py",)),
    Mutant("class sweep overwrites a class's first representative",
           "src/symsum/diophantine.py",
           "if key not in out:", "if True:",
           ("tests/test_diophantine.py::TestClasses::test_sweep_equals_the_per_leaf_sweep",)),
    Mutant("box-count window shifts out one slot too many", "src/symsum/diophantine.py",
           "drop = target - rest - low", "drop = target - rest - low + 1",
           ("tests/test_diophantine.py",)),
    Mutant("class sweep keeps the sign restriction past a nonzero entry",
           "src/symsum/diophantine.py",
           "zero and s == 0", "zero",
           ("tests/test_diophantine.py",)),
    Mutant("sporadic fold's equation check dropped", "src/symsum/diophantine.py",
           "if not key.is_trivial:", "if False:",
           ("tests/test_diophantine.py::test_solution_check_matches_comb",)),
    Mutant("odd-n fold counted trivial", "src/symsum/diophantine.py",
           "return (self.n % 2 == 0 and", "return (self.n % 2 == 1 or",
           ("tests/test_diophantine.py::TestCanonicalKey"
            "::test_trivial_key_is_zero_or_alternating",)),
    Mutant("witness not halved", "src/symsum/balance.py",
           "[x // 2 for x in row] if len(values) > 1 else row", "row",
           ("tests/test_balance.py",)),
    Mutant("zero's witness length unchecked", "src/symsum/diophantine.py",
           "if len(x) != n + 1:", "if False:",
           ("tests/test_balance.py::TestClassify::test_zero_witness_of_another_length_is_refused",)),
    Mutant("status helper ignores the class key", "src/symsum/balance.py",
           "if key is not None and verdict.key != key:", "if False:",
           ("tests/test_balance.py::TestFamilies"
            "::test_expected_verdict_checks_status_and_class_key",)),
    Mutant("engine ignores sign bits above t = 40", "src/symsum/search_cli.py",
           "_subset_xor(mask, n_total) >> (top + 1)",
           "_subset_xor(mask, min(n_total, 40)) >> (top + 1)",
           ("tests/test_census_engine.py"
            "::test_engine_agrees_with_sweeps_where_most_bits_are_dependent",)),
    Mutant("findings not sorted", "src/symsum/search_cli.py",
           "findings.sort()", "pass",
           ("tests/test_census_engine.py",)),
    Mutant("mirrored hit not counted trivial", "src/symsum/search_cli.py",
           "counters.trivial += 1\n                    continue", "continue",
           ("tests/test_census_engine.py::test_mirror_counted_hits_are_zero_class_trivial",)),
    Mutant("sign-word mirror test with the parity flipped", "src/symsum/search_cli.py",
           "((2 << n_total) - 1) * mirror", "((2 << n_total) - 1) * (1 - mirror)",
           ("tests/test_census_engine.py::test_mirror_counted_hits_are_zero_class_trivial",)),
    Mutant("verdict line writes the witness as a tuple", "src/symsum/search_cli.py",
           "else list(verdict.witness)", "else tuple(verdict.witness)",
           ("tests/test_search_cli.py::test_verdict_lines_are_the_json_encoder_bytes",
            "tests/test_search_cli.py::TestSearch::test_sporadic_census_out_body_is_pinned")),
    Mutant("SHA-256 round constant changed", "src/symsum/search_cli.py",
           "0x428a2f98", "0x428a2f99",
           ("tests/test_search_cli.py::test_campaign_sha256_matches_hashlib",
            "tests/test_records.py::test_cli_import_loads_no_hashlib_fractions_or_typing")),
    Mutant("SHA-256 length field in bytes, not bits", "src/symsum/search_cli.py",
           '(8 * len(data)).to_bytes(8, "big")', 'len(data).to_bytes(8, "big")',
           ("tests/test_search_cli.py::test_campaign_sha256_matches_hashlib",
            "tests/test_records.py::test_cli_import_loads_no_hashlib_fractions_or_typing")),
    Mutant("chunk loop stops one lead early", "src/symsum/search_cli.py",
           "range(start_chunk + 1, last_lead + 1)", "range(start_chunk + 1, last_lead)",
           ("tests/test_search_cli.py::TestSearch"
            "::test_chunks_past_the_largest_top_degree_are_skipped",)),
    Mutant("ValueError back in main's exit-2 clause", "src/symsum/search_cli.py",
           "except (SystemExit2, OSError) as exc:",
           "except (SystemExit2, ValueError, OSError) as exc:",
           ("tests/test_search_cli.py::test_internal_value_error_is_not_a_usage_error",)),
    Mutant("cross-check bound test dropped", "src/symsum/search_cli.py",
           "if metric > CROSS_CHECK_BUDGET:", "if False:",
           ("tests/test_search_cli.py::TestGammaCommand"
            "::test_cross_check_skips_cells_over_the_recount_bound",)),
    Mutant("conjecture-scan admits a degree at its bound", "src/symsum/search_cli.py",
           "if args.k_max >= DEGREE_BOUND:", "if args.k_max > DEGREE_BOUND:",
           ("tests/test_search_cli.py::TestVerificationCommands"
            "::test_conjecture_scan_degree_past_the_bound_is_refused",)),
    Mutant("search admits --n-max at its bound", "src/symsum/search_cli.py",
           "def cmd_search(args) -> int:\n    if args.n_max >= N_BOUND:",
           "def cmd_search(args) -> int:\n    if args.n_max > N_BOUND:",
           ("tests/test_search_cli.py::test_search_n_max_past_the_bound_is_refused",)),
    Mutant("class sweep not checked against the Moebius count", "src/symsum/search_cli.py",
           "if len(classes) != cells[(n, j)]:", "if False:",
           ("tests/test_search_cli.py::TestOmegaCommand"
            "::test_classes_out_count_mismatch_is_a_verification_failure",)),
    Mutant("odd-n center written as 0", "src/symsum/search_cli.py",
           '{"null" if key.center is None else key.center}',
           '{0 if key.center is None else key.center}',
           ("tests/test_search_cli.py::TestOmegaCommand"
            "::test_classes_out_lines_are_the_json_encoder_bytes",
            "tests/test_search_cli.py::test_verdict_lines_are_the_json_encoder_bytes")),
    Mutant("variable-count bound compared one off", "src/symsum/search_cli.py",
           "if b >= N_BOUND:", "if b > N_BOUND:",
           ("tests/test_search_cli.py::test_variable_counts_past_the_bound_are_refused",)),
    Mutant("spaces deleted inside a list field", "src/symsum/search_cli.py",
           'text.split(",")', 'text.replace(" ", "").split(",")',
           ("tests/test_search_cli.py::test_malformed_degrees_field_is_a_usage_error",)),
    Mutant("subcommand flags may be abbreviated", "src/symsum/search_cli.py",
           "sub.add_parser(name, help=summary, allow_abbrev=False)",
           "sub.add_parser(name, help=summary)",
           ("tests/test_search_cli.py::TestConfig::test_abbreviated_flags_are_refused",)),
)


def _copy(dest: Path) -> None:
    """A fresh copy of the tree pytest needs, without bytecode caches."""
    dest.mkdir()
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(ROOT / name, dest / name)


def _pytest(tree: Path, tests) -> int | None:
    """pytest's exit code for the tests on the copy, or None on a timeout."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             f"--hypothesis-seed={HYPOTHESIS_SEED}", *tests],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S, check=False,
        ).returncode
    except subprocess.TimeoutExpired:
        return None


def main() -> int:
    stale = [m.name for m in MUTANTS if (ROOT / m.path).read_text().count(m.old) != 1]
    if stale:
        print(f"old text not found exactly once: {stale}")
        return 1
    start = time.perf_counter()
    failures = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        code = _pytest(clean, sorted({t for m in MUTANTS for t in m.tests}))
        if code != 0:
            print(f"the named tests fail without a mutant (pytest exit {code})")
            return 1
        for i, m in enumerate(MUTANTS):
            tree = Path(tmp) / f"m{i}"
            _copy(tree)
            path = tree / m.path
            path.write_text(path.read_text().replace(m.old, m.new))
            t0 = time.perf_counter()
            code = _pytest(tree, m.tests)
            verdict = {1: "killed", 0: "SURVIVED", None: "TIMEOUT"}.get(code, f"ERROR {code}")
            failures += code != 1
            print(f"{verdict:8} {time.perf_counter() - t0:6.1f} s  {m.name}", flush=True)
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
