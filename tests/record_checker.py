"""An independent checker for the records of a ``search --out`` file.

It imports nothing from symsum.  Signs and delta rows come from
``perfbench/oracle.py`` (Lucas parities from ``math.comb(l, k) % 2``),
binomials from ``math.comb``, and the trivial/sporadic split is written here
from the definition: a solution is trivial when it is an antisymmetric vector
(x_(n-l) = -x_l) plus a multiple of the alternating one ((-1)**l), that is
when its fold x_l + x_(n-l) is a multiple of the alternating fold.

For every record it checks that
- the sign sum S is 0 and the witness is the profile's delta row at the
  record's degrees, halved when j >= 1;
- sum over l of C(n, l) * w_l = 0, n the inner variable count;
- the key is the fold of the witness divided by its gcd, first nonzero
  entry positive;
- the status is "sporadic" exactly when the fold is not a multiple of the
  alternating fold.

It proves soundness only: every record written is right.  Whether a hit is
missing is for the sweep-agreement tests and the counters to say.

Usage: python tests/record_checker.py FILE... (exit 1 when a record is bad).
"""

from __future__ import annotations

import importlib.util
import json
import sys
from math import comb, gcd
from pathlib import Path

_ORACLE = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"
_spec = importlib.util.spec_from_file_location("perfbench_oracle", _ORACLE)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)


def fold(witness: list[int]) -> list[int]:
    """Pair sums w_l + w_(n-l) for l < (n + 1) / 2, then w_(n/2) for even n."""
    n = len(witness) - 1
    half = (n + 1) // 2
    out = [witness[l] + witness[n - l] for l in range(half)]
    return out + [witness[half]] if n % 2 == 0 else out


def is_trivial_fold(folded: list[int], n: int) -> bool:
    """Whether the fold is m times the fold of the alternating vector: zero at
    odd n; pair sums 2 * (-1)**l and center (-1)**(n/2) at even n."""
    if n % 2:
        return not any(folded)
    m = folded[-1] * (-1) ** (n // 2)
    return all(f == 2 * m * (-1) ** l for l, f in enumerate(folded[:-1]))


def record_problem(record: dict, profiles: dict[str, list[int]]) -> str | None:
    """What is wrong with one finding record, or None."""
    profile = profiles.get(record["perturbation"])
    if profile is None:
        return "perturbation not in the campaign header"
    j = len(profile) - 1
    n = record["n_total"] - j
    witness = record["witness"]
    if record["S"] != 0:
        return f"sign sum {record['S']} is not 0"
    scale = 2 if j else 1
    if [scale * w for w in witness] != oracle.delta(record["degrees"], profile, n + 1):
        return "witness is not the profile's delta row at the degrees"
    if sum(comb(n, l) * w for l, w in enumerate(witness)) != 0:
        return "witness does not solve sum C(n, l) * w_l = 0"
    folded = fold(witness)
    g = gcd(*folded)
    if g:
        sign = -1 if next(f for f in folded if f) < 0 else 1
        folded_key = [sign * f // g for f in folded]
    else:
        folded_key = folded
    half = (n + 1) // 2
    want_key = {"n": n, "half": folded_key[:half],
                "center": folded_key[half] if n % 2 == 0 else None, "zero": g == 0}
    if record["key"] != want_key:
        return f"key is not the normalized fold {want_key}"
    want_status = "trivial" if is_trivial_fold(folded, n) else "sporadic"
    if record["status"] != want_status:
        return f"status {record['status']!r}, the fold says {want_status!r}"
    return None


def check_file(path) -> tuple[int, list[str]]:
    """(number of records, one message per bad record) of a --out file."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        profiles = {p["descriptor"]: p["profile"] for p in header["perturbations"]}
        count, problems = 0, []
        for line_no, line in enumerate(fh, 2):
            record = json.loads(line)
            count += 1
            problem = record_problem(record, profiles)
            if problem is not None:
                problems.append(f"{path}:{line_no}: {problem}")
    return count, problems


def main(argv: list[str]) -> int:
    bad = 0
    for path in argv:
        count, problems = check_file(path)
        for problem in problems:
            print(problem)
        print(f"{path}: {count} records, {len(problems)} bad")
        bad += len(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
