"""The three workloads: their operations, seeded inputs, work counts and the
correctness check of every operation.

Every check returns a list of problems; an empty list means the output is
correct; a check that cannot read an output raises, and the runner counts
that as a failure too.  Pinned values live in reference.json next to this
file and were recorded from the library as it stood when the benchmark was
defined; the rest is recomputed by oracle.py.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Callable

import oracle

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())


@dataclass
class Outcome:
    """What one operation left behind: exit code (None on timeout), stdout and
    the bytes of each declared output file (None when missing)."""

    returncode: int | None
    stdout: str
    files: dict[str, bytes | None]


@dataclass
class Op:
    label: str
    target: str  # "cli" for the symsum console script, "lib" for libstep.py
    args: list[str]
    check: Callable[[Outcome], list[str]]
    outputs: tuple[str, ...] = ()


@dataclass
class Workload:
    ops: list[Op]
    work: int  # work units per pass, counted from the inputs
    unit: str
    inputs: dict = field(default_factory=dict)  # the seeded inputs, for the record


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _exit_ok(out: Outcome) -> list[str]:
    if out.returncode is None:
        return ["timed out"]
    return [] if out.returncode == 0 else [f"exit code {out.returncode}"]


def _compare(what: str, got, want) -> list[str]:
    if got == want:
        return []
    if isinstance(got, list) and isinstance(want, list):
        i = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
        got, want = got[i:i + 1] or f"{len(got)} items", want[i:i + 1] or f"{len(want)} items"
        what = f"{what}, item {i}"
    return [f"{what}: got {str(got)[:200]!r}, want {str(want)[:200]!r}"]


def _seeded_anf(rng: random.Random, need_x3: bool) -> list[tuple[int, ...]]:
    """A nonzero XOR of distinct monomials over x1..x3 touching at least two
    variables (and x3 when ``need_x3``)."""
    monos = [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
    while True:
        pick = sorted(rng.sample(monos, rng.randint(1, 4)), key=lambda m: (len(m), m))
        used = {i for m in pick for i in m}
        if len(used) >= 2 and (3 in used or not need_x3):
            return pick


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

def _findings(data: bytes | None) -> tuple[dict | None, list[dict], list[str]]:
    if data is None:
        return None, [], ["--out file missing"]
    lines = data.decode().splitlines()
    try:
        header = json.loads(lines[0])
        records = [json.loads(line) for line in lines[1:]]
    except (IndexError, ValueError) as exc:
        return None, [], [f"--out file unreadable: {exc}"]
    if header.get("type") != "campaign":
        return None, [], ["--out file has no campaign header"]
    return header, records, []


def _pinned_census(name: str) -> Callable[[Outcome], list[str]]:
    ref = REFERENCE["census"][name]

    def check(out: Outcome) -> list[str]:
        problems = _exit_ok(out)
        lines = out.stdout.splitlines()
        problems += _compare("summary", json.loads(lines[-1]) if lines else None, ref["summary"])
        header, records, bad = _findings(out.files[f"{name}.jsonl"])
        problems += bad
        if header is not None:
            # The header line is left out of the pin: it describes the
            # campaign, and adding fields to it changes no finding.
            body = out.files[f"{name}.jsonl"].split(b"\n", 1)[1]
            problems += _compare("findings sha256", sha256(body), ref["findings_sha256"])
        if not out.files[f"{name}.ckpt"]:
            problems.append("checkpoint missing or empty")
        return problems

    return check


def _inner_census_check(seed: int, monomials, k_max: int, n_max: int):
    j = 3
    table = oracle.truth_table(monomials, j)
    profile = oracle.weight_profile(table, j)
    # inner convention: every degree set with top degree t scans inner counts t..n_max
    candidates = sum((1 << (t - 1)) * (n_max - t + 1) for t in range(1, k_max + 1))

    def own_sum(degrees, n_total: int) -> int:
        dl = oracle.delta(degrees, profile, n_total - j + 1)
        return sum(d * comb(n_total - j, l) for l, d in enumerate(dl))

    def check(out: Outcome) -> list[str]:
        problems = _exit_ok(out)
        summary = json.loads(out.stdout.splitlines()[-1])
        problems += _compare("candidates", summary["candidates"], candidates)
        if not summary["balanced"] == summary["trivial"] + summary["sporadic"] == summary["recorded"]:
            problems.append(f"inconsistent counters {summary}")
        _, records, bad = _findings(out.files["inner.jsonl"])
        problems += bad + _compare("records", len(records), summary["recorded"])
        rng = random.Random(seed)
        for rec in rng.sample(records, min(4, len(records))):
            degs, n_total = rec["degrees"], rec["n_total"]
            s = oracle.brute_force_sign_sum(degs, table, j, n_total)
            want = [d // 2 for d in oracle.delta(degs, profile, n_total - j + 1)]
            if s != 0 or rec["witness"] != want or rec["status"] not in ("trivial", "sporadic"):
                problems.append(f"finding {degs} n={n_total}: brute force S={s}")
        found = {(tuple(r["degrees"]), r["n_total"]) for r in records}
        for _ in range(8):
            degs = tuple(sorted(rng.sample(range(1, k_max + 1), rng.randint(1, 4))))
            n_total = rng.randint(degs[-1], n_max) + j
            if (own_sum(degs, n_total) == 0) != ((degs, n_total) in found):
                problems.append(f"candidate {list(degs)} n={n_total}: balance misreported")
        return problems

    return check


def census(seed: int, work: str) -> Workload:
    rng = random.Random(seed)
    monomials = _seeded_anf(rng, need_x3=True)
    anf = oracle.anf_text(monomials)

    def tables_check(out: Outcome) -> list[str]:
        problems = _exit_ok(out)
        bad = [ln for ln in out.stdout.splitlines() if ln.startswith(("MISMATCH", "FAIL"))]
        problems += [f"tables: {ln}" for ln in bad]
        return problems + _compare("tables stdout sha256", sha256(out.stdout.encode()),
                                   REFERENCE["census"]["tables_stdout_sha256"])

    ops = []
    for name, profile in (("x1", "1,-1"), ("x1x2", "1,-2,1")):
        ops.append(Op(
            f"search-{name}", "cli",
            ["search", "--k-max", "17", "--n-max", "17", "--sporadic-only", "--profile", profile,
             "--out", f"{work}/{name}.jsonl", "--checkpoint", f"{work}/{name}.ckpt"],
            _pinned_census(name), (f"{name}.jsonl", f"{name}.ckpt"),
        ))
    ops.append(Op(
        "search-inner", "cli",
        ["search", "--n-convention", "inner", "--k-max", "15", "--n-max", "15",
         "--anf", anf, "--out", f"{work}/inner.jsonl"],
        _inner_census_check(seed, monomials, 15, 15), ("inner.jsonl",),
    ))
    ops.append(Op("tables", "cli", ["tables"], tables_check))
    # degree-set x perturbation pairs: two full k <= 17 sweeps, the k <= 15
    # sweep, and every degree set below 8 and 9 variables in the tables
    pairs = 2 * (2 ** 17 - 1) + (2 ** 15 - 1) + (2 ** 7 - 1) + (2 ** 8 - 1)
    return Workload(ops, pairs, "pairs", {"anf": anf})


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def _grid(table: dict, n_values, j_values) -> dict[tuple[int, int], int | None]:
    return {(n, j): table[str(j)][n - 1] for j in j_values for n in n_values}


def _csv_check(grid: dict[tuple[int, int], int | None], n_values, j_values):
    want = ["j\\n," + ",".join(map(str, n_values))] + [
        f"{j}," + ",".join("*" if grid[(n, j)] is None else str(grid[(n, j)]) for n in n_values)
        for j in j_values
    ]

    def check(out: Outcome) -> list[str]:
        problems = _exit_ok(out)
        got = out.stdout.splitlines()
        if len(got) != len(want):
            return problems + [f"{len(got)} lines, want {len(want)}"]
        for g, w in zip(got, want):
            for cell_got, cell_want in zip(g.split(","), w.split(",")):
                problems += _compare(f"row {w.split(',')[0]}", cell_got, cell_want)
        return problems

    return check


def grids(seed: int, work: str) -> Workload:
    ref = REFERENCE["grids"]
    gamma = _grid(ref["gamma_table"], range(1, 11), range(1, 8))
    omega = _grid(ref["omega_table"], range(1, 11), range(1, 8))
    cross = _grid(ref["gamma_table"], range(1, 9), range(1, 4))
    cross_lines = [
        f"cross-check n={n} j={j}: direct={v} averaged={v} ok"
        for (n, j), v in cross.items() if v is not None
    ]

    def cross_check(out: Outcome) -> list[str]:
        got = [ln for ln in out.stdout.splitlines() if ln.startswith("cross-check")]
        return _exit_ok(out) + _compare("cross-check lines", got, cross_lines)

    def raised_check(out: Outcome) -> list[str]:
        return _exit_ok(out) + _compare("raised-budget block", out.stdout, ref["raised_csv"])

    def classes_check(out: Outcome) -> list[str]:
        problems = _exit_ok(out) + _compare("omega n=8 j=4", out.stdout, ref["classes_stdout"])
        data = out.files["classes.jsonl"]
        if data is None:
            return problems + ["--classes-out file missing"]
        problems += _compare("classes sha256", sha256(data), ref["classes_sha256"])
        lines = data.decode().splitlines()
        problems += _compare("class count", len(lines), omega[(8, 4)])
        row = [comb(8, l) for l in range(9)]
        for line in lines:
            x = json.loads(line)["realizable_example"]
            if sum(a * b for a, b in zip(x, row)) != 0 or max(map(abs, x)) > 8:
                problems.append(f"class representative {x} is not a level-4 solution")
                break
        return problems

    raised_cells = sum(c != "*" for line in ref["raised_csv"].splitlines()[1:]
                       for c in line.split(",")[1:])
    ops = [
        Op("gamma-grid", "cli", ["gamma", "--n", "1..10", "--j", "1..7", "--csv"],
           _csv_check(gamma, range(1, 11), range(1, 8))),
        Op("gamma-cross-check", "cli", ["gamma", "--n", "1..8", "--j", "1..3", "--cross-check"],
           cross_check),
        Op("omega-grid", "cli", ["omega", "--n", "1..10", "--j", "1..7", "--csv"],
           _csv_check(omega, range(1, 11), range(1, 8))),
        Op("gamma-raised-budget", "cli",
           ["gamma", "--n", "11..14", "--j", "3..4", "--budget", "1e18", "--csv"], raised_check),
        Op("omega-classes", "cli",
           ["omega", "--n", "8", "--j", "4", "--classes-out", f"{work}/classes.jsonl"],
           classes_check, ("classes.jsonl",)),
    ]
    cells = (sum(v is not None for v in gamma.values()) + len(cross_lines)
             + sum(v is not None for v in omega.values()) + raised_cells + 1)
    return Workload(ops, cells, "cells")


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------

SPECTRAL_INNER = (0, 97, 197, 297, 397, 497, 597)


def _rows_check(want: dict[int, int]):
    def check(out: Outcome) -> list[str]:
        problems = _exit_ok(out)
        got = {}
        for line in out.stdout.splitlines():
            n, _, s = line.partition(" ")
            got[int(n)] = int(s)
        if got.keys() != want.keys():
            return problems + [f"rows for n in {min(got, default=None)}..{max(got, default=None)}"]
        bad = [n for n in want if got[n] != want[n]]
        if bad:
            problems.append(f"{len(bad)} wrong rows, first n={bad[0]}")
        return problems

    return check


def _conjecture_check(k_max: int, n_max: int):
    ref = REFERENCE["sequences"]["conjecture_scan"]

    def check(out: Outcome) -> list[str]:
        problems = _exit_ok(out)
        lines = out.stdout.splitlines()
        problems += _compare("summary", lines[-1] if lines else None, ref["summary"])
        want = []
        for k in range(1, k_max + 1):
            balanced = oracle.sign_sums([k], [1, -1], n_max)
            period = 1 << k.bit_length()
            want += [(k, n, n % period == (k - 1) % period)
                     for n in range(2, n_max + 1) if balanced[n] == 0]
        got = []
        for line in lines[:-1]:
            fields = dict(f.split("=") for f in line.split("  <--")[0].split())
            got.append((int(fields["k"]), int(fields["n"]), fields["residue"] == "on"))
        problems += _compare("balanced (k, n, on-residue) rows", got, want)
        sporadic = sum("status=sporadic" in line for line in lines)
        return problems + _compare("sporadic rows", sporadic, ref["sporadic_rows"])

    return check


def sequences(seed: int, work: str) -> Workload:
    rng = random.Random(seed)
    top = rng.randint(32, 63)
    degrees = sorted(rng.sample(range(1, top), 3)) + [top]
    degs = ",".join(map(str, degrees))
    monomials = _seeded_anf(rng, need_x3=False)
    anf = oracle.anf_text(monomials)
    profile = oracle.weight_profile(oracle.truth_table(monomials, 3), 3)
    perturbed = oracle.sign_sums(degrees, profile, 600)
    plain = oracle.sign_sums(degrees, [1], 700)

    def families_check(out: Outcome) -> list[str]:
        return _exit_ok(out) + _compare("verify-families", out.stdout.splitlines(),
                                        REFERENCE["sequences"]["verify_families"])

    def lib_check(out: Outcome) -> list[str]:
        problems = _exit_ok(out)
        got = json.loads(out.stdout)
        want = {str(n): str(perturbed[n + 3] if n else oracle.delta(degrees, profile, 1)[0])
                for n in SPECTRAL_INNER}
        problems += _compare("spectral sums", got["spectral"], want)
        return problems + _compare("certificates", got["certificates"],
                                   {str(k): True for k in range(2, 33)})

    ops = [
        Op("expsum-perturbed", "cli",
           ["expsum", "--degrees", degs, "--anf", anf, "--vars", "3", "--n", "4..600"],
           _rows_check(perturbed)),
        Op("expsum-plain", "cli", ["expsum", "--degrees", degs, "--n", "1..700"],
           _rows_check(plain)),
        Op("conjecture-scan", "cli", ["conjecture-scan", "--k-max", "16", "--n-max", "300"],
           _conjecture_check(16, 300)),
        Op("verify-families", "cli", ["verify-families"], families_check),
        Op("library-step", "lib",
           ["--degrees", degs, "--anf", anf, "--vars", "3",
            "--inner", ",".join(map(str, SPECTRAL_INNER)), "--k-max", "32"],
           lib_check),
    ]
    values = len(perturbed) + len(plain) + 16 * 299 + len(SPECTRAL_INNER)
    return Workload(ops, values, "values", {"degrees": degs, "anf": anf})


WORKLOADS = {"census": census, "grids": grids, "sequences": sequences}
