"""Command line interface: exact sums, balance classification, solution and
class tables, exhaustive balanced-perturbation searches, and verification of
the structural families.

Exit codes: 0 on success, 1 when a verification or expectation fails or an
internal check trips, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from math import comb
from pathlib import Path

from .balance import (
    BalanceStatus,
    BalanceVerdict,
    VerificationError,
    classify,
    classify_range,
    classify_zero,
    luca_szalay_gap,
    mirror_parity,
    periodic_propagation,
    sign_bits_mirror,
    singmaster_gap,
    verify_even_linear_family,
    verify_x1_family,
    witness_row,
)
from .boolean_core import Record, WeightProfile, _bind, anf_parse, anf_to_function, weight_profile
from .diophantine import (
    BudgetExceeded,
    SolutionVector,
    class_enumeration_metric,
    count_classes,
    count_solutions,
    direct_enumeration_metric,
    enumerate_classes,
    gamma_via_integral,
)
from .expsum import (
    SymmetricSpec,
    _subset_masks,
    delta_vector,
    periodic_binomial_sums,
)

DEFAULT_GAMMA_BUDGET = 3.2e8
DEFAULT_OMEGA_BUDGET = 1.5e8
# Largest integral metric that gamma --cross-check recounts; a larger cell
# prints a skipped line. The costliest cell it admits, n = 19 at j = 1, takes
# 0.6-0.9 s (Python 3.11, 2-CPU x86-64 VM), and it admits every cell with
# n <= 8 and j <= 3.
CROSS_CHECK_BUDGET = 2 * 10 ** 6
CHECKPOINT_EVERY = 10 ** 6

# The fixed grid that verify-families checks.
X1_K_MAX, X1_M_MAX = 16, 4
EVEN_L_MAX, EVEN_D_MAX, EVEN_M_MAX = 3, 4, 2
PROPAGATION_M_MAX = 3
LUCA_SZALAY_T_MAX = 12
SINGMASTER_I_MAX = 6

X1_PROFILE = (1, -1)
X1X2_PROFILE = (1, -2, 1)

# Verified sporadic witness vectors (presentation scale, indices 0..7) for the
# single-flip perturbation on 8 variables, keyed by degree set.
SPORADIC_WITNESSES_N8_X1 = {
    (3, 6): (0, 0, 1, -1, 0, 1, -1, 0),
    (1, 2, 6): (1, 0, -1, 0, 1, -1, 1, -1),
    (1, 5, 6): (1, -1, 1, -1, 0, 1, 0, -1),
    (2, 3, 5, 6): (0, 1, -1, 0, 1, -1, 0, 0),
    (1, 4, 7): (1, -1, 1, 0, -1, 1, 0, -1),
    (2, 3, 4, 7): (0, 1, -1, 1, 0, -1, 0, 0),
    (3, 4, 5, 7): (0, 0, 1, 0, -1, 1, -1, 0),
    (1, 2, 4, 5, 7): (1, 0, -1, 1, 0, -1, 1, -1),
}

# Same for the two-flip perturbation on 9 variables.
SPORADIC_WITNESSES_N9_X1X2 = {
    (3, 6): (0, 0, 1, -1, 0, 1, -1, 0),
    (3, 7): (0, -1, 2, -1, 0, 0, 0, 0),
    (6, 7): (0, 0, 0, 0, -1, 2, -1, 0),
    (1, 3, 7): (2, -1, 0, -1, 2, -2, 2, -2),
    (1, 4, 7): (2, -2, 1, 1, -2, 1, 1, -2),
    (1, 6, 7): (2, -2, 2, -2, 1, 0, 1, -2),
    (1, 2, 3, 7): (1, 0, 1, -2, 1, 1, -1, -1),
    (1, 2, 4, 7): (1, 1, -2, 2, -1, 0, 0, -1),
    (1, 2, 6, 7): (1, 1, -1, -1, 2, -1, 0, -1),
    (1, 3, 4, 6, 7): (2, -1, -1, 2, -1, -1, 2, -2),
    (1, 2, 3, 4, 6, 7): (1, 0, 0, 1, -2, 2, -1, -1),
    (5, 8): (0, 0, 0, -1, 2, -2, 1, 0),
    (2, 5, 8): (-1, 1, 1, -2, 1, 1, -2, 1),
    (3, 4, 5, 8): (0, -1, 1, 1, -2, 1, 0, 0),
    (3, 5, 6, 8): (0, -1, 2, -2, 1, 0, 0, 0),
    (4, 5, 6, 8): (0, 0, -1, 2, -1, -1, 1, 0),
    (2, 3, 4, 5, 8): (-1, 2, -2, 2, -1, 0, -1, 1),
    (2, 3, 5, 6, 8): (-1, 2, -1, -1, 2, -1, -1, 1),
    (2, 4, 5, 6, 8): (-1, 1, 0, 1, -2, 2, -2, 1),
}


def _parse_range(text: str, flag: str) -> list[int]:
    """Parse '5' or '2..10', the value of ``flag``, into a list of integers."""
    lo, dots, hi = text.partition("..")
    try:
        a, b = int(lo), int(hi if dots else lo)
    except ValueError:
        raise SystemExit2(f"{flag} needs an integer or a range lo..hi, got {text!r}") from None
    if b < a:
        raise ValueError(f"empty range {text!r}")
    return list(range(a, b + 1))


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    """The comma-separated integers of ``flag``'s value, spaces ignored."""
    try:
        return tuple(int(p) for p in text.replace(" ", "").split(","))
    except ValueError:
        raise SystemExit2(f"{flag} needs comma-separated integers, got {text!r}") from None


def _parse_degrees(text: str) -> SymmetricSpec:
    return SymmetricSpec(_parse_ints(text, "--degrees"))


def _parse_profile(text: str) -> tuple[int, ...]:
    if not text.replace(" ", "").strip(","):
        raise SystemExit2("--profile needs at least one weight")
    return _parse_ints(text, "--profile")


def _perturbation(values: tuple[int, ...] | None, anf: str | None,
                  j: int | None) -> tuple[str, tuple[int, ...]]:
    """(descriptor, profile values) of a perturbation given by its profile
    values, or else by an ANF on j variables (default: its largest index)."""
    if values is not None:
        return f"profile:{','.join(map(str, values))}", values
    expr = anf_parse(anf)
    if j is None:
        j = expr.max_index
    if j == 0 and expr.max_index == 0:
        raise SystemExit2("constant expressions carry no variables; use --profile")
    return f"anf:{expr}", weight_profile(anf_to_function(expr, j)).values


def _perturbation_from_args(args) -> tuple[str, WeightProfile]:
    """Build (descriptor, profile) from --anf/--profile flags; default empty."""
    if args.anf is not None and args.profile is not None:
        raise SystemExit2("give either --anf or --profile, not both")
    if args.vars is not None and args.anf is None:
        raise SystemExit2("--vars needs --anf")
    if args.anf is not None or args.profile is not None:
        values = None if args.profile is None else _parse_profile(args.profile)
        desc, values = _perturbation(values, args.anf, args.vars)
        return desc, WeightProfile(len(values) - 1, values)
    return "f=0", WeightProfile(0, (1,))


class SystemExit2(Exception):
    """Usage error carried up to main for exit code 2."""


# ---------------------------------------------------------------------------
# search campaigns
# ---------------------------------------------------------------------------

class Campaign(Record):
    """An exhaustive sweep over degree sets and variable counts.

    ``n_convention`` fixes what the n bound limits: "total" bounds the full
    variable count (degree sets range over subsets of 1..k_max with top
    degree below the variable count), "inner" bounds the variable count
    beyond the perturbed block (top degree at most the inner count).
    """

    _fields = ("k_max", "n_max", "n_convention", "perturbations", "sporadic_only")

    def __init__(self, k_max: int, n_max: int, n_convention: str,
                 perturbations: tuple[tuple[str, tuple[int, ...]], ...],
                 sporadic_only: bool = False) -> None:
        if k_max < 1 or n_max < 1:
            raise ValueError("bounds must be positive")
        if n_convention not in ("total", "inner"):
            raise ValueError("n_convention must be 'total' or 'inner'")
        seen: dict[tuple[int, ...], str] = {}  # descriptor by profile
        for desc, values in perturbations:
            WeightProfile(len(values) - 1, values)
            if desc in seen.values():
                raise ValueError(f"perturbation given more than once: {desc}")
            negated = tuple(-c for c in values)
            if negated in seen:
                raise ValueError(f"perturbations {seen[negated]} and {desc} have negated "
                                 f"weight profiles, so the same zeros and witness classes")
            if seen.setdefault(tuple(values), desc) != desc:
                raise ValueError(f"perturbations {seen[tuple(values)]} and {desc} have the "
                                 f"same weight profile {list(values)}")
        _bind(self, "k_max", k_max)
        _bind(self, "n_max", n_max)
        _bind(self, "n_convention", n_convention)
        _bind(self, "perturbations", perturbations)
        _bind(self, "sporadic_only", sporadic_only)

    def to_json(self) -> dict:
        return {
            "k_max": self.k_max,
            "n_max": self.n_max,
            "n_convention": self.n_convention,
            "perturbations": [
                {"descriptor": d, "profile": list(v)} for d, v in self.perturbations
            ],
            "sporadic_only": self.sporadic_only,
        }

    def digest(self) -> str:
        import hashlib  # only search needs it, and it loads OpenSSL

        return hashlib.sha256(
            json.dumps(self.to_json(), sort_keys=True).encode()
        ).hexdigest()[:16]

    def n_totals(self, top_degree: int, j: int) -> list[int]:
        """Variable counts scanned for a degree set with the given top degree."""
        if self.n_convention == "total":
            lo = max(top_degree + 1, j + 1)
            return list(range(lo, self.n_max + 1))
        lo = max(top_degree, 1)
        return [inner + j for inner in range(lo, self.n_max + 1)]

    def top_degree(self, n_total: int, j: int) -> int:
        """Largest top degree of a degree set scanned at this variable count."""
        if self.n_convention == "total":
            return min(self.k_max, n_total - 1)
        return min(self.k_max, n_total - j)


def _balanced_degree_sets(lead: int, top: int, values: tuple[int, ...],
                          inner: int, masks: list[int]) -> list[tuple[int, ...]]:
    """Degree sets with least degree ``lead`` and top degree at most ``top``
    whose sign sum on ``inner + j`` variables, perturbed by the weight
    profile ``values``, vanishes; ``masks`` is ``_subset_masks`` of inner + j
    or more.

    The search runs over sign bits, not degree sets.  The sign at weight t is
    (-1)**b_t with b_t = XOR of C(t, k) mod 2 over the degrees k (Lucas), and
    the sign sum is S = sum_t (-1)**b_t * W_t, W_t = sum_m c_m * C(inner, t-m).
    So S = 0 exactly when sum_t b_t * W_t = sum(W) / 2.

    - The bits b_0..b_top are the GF(2) Moebius transform of the degree set,
      and the transform is its own inverse: d_k = XOR of b_l over the
      bit-subsets l of k.  Least degree ``lead`` fixes b_lead = 1 and zero
      bits below it; b_{lead+1..top} are free, one pattern per degree set.
    - Each bit above ``top`` is a GF(2)-linear form in the bits up to top.
    - Meet in the middle (Horowitz-Sahni): the low half of the free bits is
      indexed by its partial sum and its share of the dependent bits'
      parities; every high-half pattern is joined against each parity
      group.  Choosing the low half as about (free + dependent) / 2 bits
      balances the table size against the number of lookups.
    """
    j = len(values) - 1
    n_total = inner + j
    # Exact rows from math.comb, not diophantine's half row: every hit's
    # witness is checked on that half row, so the engine must not share it.
    row = [comb(inner, l) for l in range(inner + 1)]
    weights = [0] * (n_total + 1)
    for m, c in enumerate(values):
        for l, x in enumerate(row):
            weights[l + m] += c * x
    total = sum(weights)
    if total % 2:
        return []
    # forms[i]: bit b_{top+1+i} is the parity of forms[i] & b
    forms = []
    for t in range(top + 1, n_total + 1):
        form = 0
        for k in range(lead, top + 1):
            if masks[t] >> k & 1:
                form ^= masks[k]
        forms.append(form)
    fixed = sum(1 << i for i, form in enumerate(forms) if form >> lead & 1)
    dependent_weights = weights[top + 1:]
    target = total // 2 - weights[lead]

    def patterns(positions):
        """(bits, partial sum, dependent parities) for every bit pattern."""
        out = [(0, 0, 0)]
        for t in positions:
            column = sum(1 << i for i, form in enumerate(forms) if form >> t & 1)
            out += [(bits | 1 << t, s + weights[t], p ^ column) for bits, s, p in out]
        return out

    free = top - lead
    split = lead + 1 + min(free, (free + len(forms) + 1) // 2)
    table: dict[int, dict[int, list[int]]] = {}
    for bits, s, p in patterns(range(lead + 1, split)):
        table.setdefault(p, {}).setdefault(s, []).append(bits)
    hits = []
    # The dependent bits' weight depends only on their parity word, and many
    # (high pattern, parity group) pairs share a word.
    dependent_sums: dict[int, int] = {}
    for high, s_high, p_high in patterns(range(split, top + 1)):
        for p_low, by_sum in table.items():
            dependent = fixed ^ p_low ^ p_high
            d_sum = dependent_sums.get(dependent)
            if d_sum is None:
                d_sum = dependent_sums[dependent] = sum(
                    w for i, w in enumerate(dependent_weights) if dependent >> i & 1
                )
            for low in by_sum.get(target - s_high - d_sum, ()):
                b = 1 << lead | low | high
                hits.append(tuple(
                    k for k in range(lead, top + 1) if (masks[k] & b).bit_count() & 1
                ))
    return hits


class ScanCounters(Record):
    """Counts of a scan.  Mutable, as a run adds each chunk's counts to its
    total, so it is not hashable."""

    _fields = ("candidates", "balanced", "trivial", "sporadic")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, candidates: int = 0, balanced: int = 0, trivial: int = 0,
                 sporadic: int = 0) -> None:
        self.candidates = candidates
        self.balanced = balanced
        self.trivial = trivial
        self.sporadic = sporadic

    def to_json(self) -> dict:
        return {"candidates": self.candidates, "balanced": self.balanced,
                "trivial": self.trivial, "sporadic": self.sporadic}

    def add(self, other: "ScanCounters") -> None:
        self.candidates += other.candidates
        self.balanced += other.balanced
        self.trivial += other.trivial
        self.sporadic += other.sporadic


def _scan_leading_degree(campaign: Campaign, lead: int) -> tuple[ScanCounters, list[BalanceVerdict]]:
    """Evaluate the campaign over the degree sets with least degree ``lead``.

    Each (variable count, perturbation) cell covers the 2**(top - lead)
    degree sets whose top degree that count admits.  Findings come in
    (degree set, variable count, perturbation) order, the lex order of
    degree sets that the output format fixes.

    One ``_subset_masks`` list, for the largest variable count, serves every
    cell (the list for n is a prefix of the list for any larger n).  With
    ``sporadic_only``, a hit whose sign bits mirror (``sign_bits_mirror``)
    under a reversal-symmetric profile is counted trivial without a witness.
    """
    counters = ScanCounters()
    cells = [(index, values, n_total)
             for index, (_, values) in enumerate(campaign.perturbations)
             for n_total in campaign.n_totals(lead, len(values) - 1)]
    masks = _subset_masks(max((n_total for *_, n_total in cells), default=0))
    hits = []
    for index, values, n_total in cells:
        j = len(values) - 1
        top = campaign.top_degree(n_total, j)
        counters.candidates += 1 << (top - lead)
        hits += [
            (degs, n_total, index)
            for degs in _balanced_degree_sets(lead, top, values, n_total - j, masks)
        ]
    parities = [mirror_parity(values) if campaign.sporadic_only else None
                for _, values in campaign.perturbations]
    findings: list[BalanceVerdict] = []
    for degs, n_total, index in sorted(hits):
        desc, values = campaign.perturbations[index]
        counters.balanced += 1
        parity = parities[index]
        if parity is not None and sign_bits_mirror(masks, degs, n_total, parity):
            counters.trivial += 1
            continue
        j = len(values) - 1
        verdict = classify_zero(
            degs, j, n_total, desc,
            f"census engine and classifier disagree on degrees {list(degs)} "
            f"at n={n_total} ({desc})",
            witness_row(degs, values, n_total - j + 1, masks),
        )
        if verdict.status is BalanceStatus.SPORADIC:
            counters.sporadic += 1
        else:
            counters.trivial += 1
        if campaign.sporadic_only and verdict.status is not BalanceStatus.SPORADIC:
            continue
        findings.append(verdict)
    return counters, findings


def run_search(campaign: Campaign, out_path: Path | None = None,
               checkpoint_path: Path | None = None, resume: bool = False,
               log=lambda s: None) -> tuple[ScanCounters, int]:
    """Run a campaign with deterministic output and optional checkpointing;
    returns the counters and the number of findings recorded.

    Degree sets are processed in chunks by leading degree, in order, so
    findings come in lex order of degree sets.  They are kept only in
    ``out_path``: its header first, then each chunk's findings as soon as
    the chunk is done.  A checkpoint (protected by the campaign digest) is
    written before the first chunk, after a chunk once at least
    CHECKPOINT_EVERY candidates were scanned since the previous write, and
    after the last; resuming cuts ``out_path`` back to the length recorded
    there and skips the recorded number of finished chunks.
    """
    digest = campaign.digest()
    header = json.dumps({"type": "campaign", **campaign.to_json(), "digest": digest},
                        sort_keys=True).encode() + b"\n"
    start_chunk = 0
    counters = ScanCounters()
    if resume:
        if checkpoint_path is None or not checkpoint_path.exists():
            raise SystemExit2("--resume needs an existing --checkpoint file")
        state = json.loads(checkpoint_path.read_text())
        if isinstance(state, dict) and "findings" in state:
            raise SystemExit2("checkpoint holds findings, a format that can no longer "
                              "be resumed; run the campaign again without --resume")
        kinds = {"digest": (str,), "chunks_done": (int,), "counters": (dict,),
                 "out_bytes": (int, type(None))}
        if (not isinstance(state, dict) or not kinds.keys() <= state.keys()
                or any(type(state[k]) not in t for k, t in kinds.items())
                or state["counters"].keys() != ScanCounters().to_json().keys()
                or any(type(v) is not int for v in state["counters"].values())):
            raise SystemExit2(f"checkpoint {checkpoint_path} is not an object with keys digest, "
                              "chunks_done, counters and out_bytes of the right types")
        if state["digest"] != digest:
            raise SystemExit2("checkpoint belongs to a different campaign")
        if not 0 <= state["chunks_done"] <= campaign.k_max:  # the digest fixes k_max
            raise SystemExit2(f"checkpoint {checkpoint_path} has chunks_done outside 0..{campaign.k_max}")
        counts = state["counters"]  # every hit is balanced and one of trivial, sporadic
        if min(counts.values()) < 0 or counts["balanced"] != counts["trivial"] + counts["sporadic"]:
            raise SystemExit2(f"checkpoint {checkpoint_path} has a negative counter or "
                              "balanced unequal to trivial + sporadic")
        out_bytes = state["out_bytes"]
        if (out_bytes is None) != (out_path is None):
            had = "without" if out_bytes is None else "with"
            raise SystemExit2(f"checkpoint was written {had} --out; resume {had} it")
        if out_path is not None:
            if out_bytes < len(header):
                raise SystemExit2(f"checkpoint {checkpoint_path} has out_bytes {out_bytes}, "
                                  f"short of the {len(header)}-byte campaign header")
            with out_path.open("rb") as fh:  # a missing file raises OSError: exit 2
                if fh.readline() != header:
                    raise SystemExit2(f"--out file {out_path} has another campaign's header")
                if fh.seek(0, os.SEEK_END) < out_bytes:
                    raise SystemExit2(f"--out file {out_path} is shorter than the "
                                      f"{out_bytes} bytes the checkpoint records")
            os.truncate(out_path, out_bytes)
        start_chunk = state["chunks_done"]
        counters = ScanCounters(**state["counters"])
        log(f"resumed at chunk {start_chunk} with {counters.candidates} candidates done")

    with (contextlib.nullcontext() if out_path is None
          else out_path.open("ab" if resume else "wb")) as out:
        if out is not None and not resume:
            out.write(header)
        if checkpoint_path is not None:  # fail before the first chunk, not after the last
            _write_checkpoint(checkpoint_path, digest, start_chunk, counters, out)
        last_checkpoint = counters.candidates
        for lead in range(start_chunk + 1, campaign.k_max + 1):
            chunk_counters, findings = _scan_leading_degree(campaign, lead)
            counters.add(chunk_counters)
            if out is not None:
                out.writelines(json.dumps(rec.to_record(), sort_keys=True).encode() + b"\n"
                               for rec in findings)
            if checkpoint_path is not None and (
                lead == campaign.k_max or counters.candidates - last_checkpoint >= CHECKPOINT_EVERY
            ):
                _write_checkpoint(checkpoint_path, digest, lead, counters, out)
                last_checkpoint = counters.candidates
    return counters, counters.sporadic if campaign.sporadic_only else counters.balanced


def _write_checkpoint(path: Path, digest: str, chunks_done: int,
                      counters: ScanCounters, out: io.BufferedWriter | None) -> None:
    """Replace the checkpoint atomically: an interrupted write leaves the
    previous checkpoint in place.  ``out``, the open --out file or None, is
    first flushed to disk, and its length is recorded."""
    if out is not None:
        out.flush()
        os.fsync(out.fileno())
    state = {
        "digest": digest,
        "chunks_done": chunks_done,
        "counters": counters.to_json(),
        "out_bytes": None if out is None else out.tell(),
    }
    tmp = path.with_name(f".{path.name}.tmp")
    with tmp.open("w") as fh:
        fh.write(json.dumps(state, sort_keys=True))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_expsum(args) -> int:
    spec = _parse_degrees(args.degrees)
    desc, profile = _perturbation_from_args(args)
    n_values = _parse_range(args.n, "--n")  # ascending, so the first is the smallest
    if n_values[0] <= profile.j:
        raise SystemExit2(f"n={n_values[0]} does not exceed the perturbed block j={profile.j}")
    sums = periodic_binomial_sums(
        delta_vector(spec, profile).values, n_values[0] - profile.j, n_values[-1] - profile.j
    )
    for n_total, s in zip(n_values, sums):
        if args.json:
            print(json.dumps({"n": n_total, "degrees": list(spec.degrees),
                              "perturbation": desc, "S": s}, sort_keys=True))
        else:
            print(f"{n_total} {s}")
    return 0


def cmd_classify(args) -> int:
    spec = _parse_degrees(args.degrees)
    desc, profile = _perturbation_from_args(args)
    n_values = _parse_range(args.n, "--n")  # ascending, so the first is the smallest
    if n_values[0] <= profile.j:
        raise SystemExit2(f"n={n_values[0]} does not exceed the perturbed block j={profile.j}")
    for verdict in classify_range(spec, profile, n_values[0], n_values[-1], desc):
        print(json.dumps(verdict.to_record(), sort_keys=True))
    return 0


def _print_grid(title: str, n_values: list[int], j_values: list[int],
                cells: dict[tuple[int, int], int | None], csv: bool) -> None:
    text = {cell: "*" if v is None else str(v) for cell, v in cells.items()}
    if csv:
        print("j\\n," + ",".join(str(n) for n in n_values))
        for j in j_values:
            print(f"{j}," + ",".join(text[(n, j)] for n in n_values))
        return
    widths = [
        max(len(f"n={n}"), max(len(text[(n, j)]) for j in j_values)) + 2 for n in n_values
    ]
    print(title.ljust(6) + "".join(f"n={n}".rjust(w) for n, w in zip(n_values, widths)))
    for j in j_values:
        print(f"j={j}".ljust(6) + "".join(text[(n, j)].rjust(w) for n, w in zip(n_values, widths)))


def cmd_gamma(args) -> int:
    n_values = _parse_range(args.n, "--n")
    j_values = _parse_range(args.j, "--j")
    if args.cross_check and min(j_values) < 1:
        raise SystemExit2("--cross-check needs j >= 1")
    budget = args.budget
    cells = {
        (n, j): None if direct_enumeration_metric(n, j) > budget else count_solutions(n, j)
        for j in j_values
        for n in n_values
    }
    _print_grid("count", n_values, j_values, cells, args.csv)
    if args.cross_check:
        bad = 0
        for (n, j), v in cells.items():
            if v is None:
                continue
            try:
                alt = gamma_via_integral(n, j, CROSS_CHECK_BUDGET)
            except BudgetExceeded as exc:
                print(f"cross-check n={n} j={j}: skipped ({exc})")
                continue
            ok = alt == v
            bad += 0 if ok else 1
            print(f"cross-check n={n} j={j}: direct={v} averaged={alt} "
                  f"{'ok' if ok else 'MISMATCH'}")
        if bad:
            return 1
    return 0


def cmd_omega(args) -> int:
    n_values = _parse_range(args.n, "--n")
    j_values = _parse_range(args.j, "--j")
    if min(j_values) < 1:
        raise SystemExit2("classes need j >= 1")
    if args.classes_out and (len(n_values) != 1 or len(j_values) != 1):
        raise SystemExit2("--classes-out needs a single n and a single j")
    budget = args.budget
    cells = {
        (n, j): None if class_enumeration_metric(n, j) > budget else count_classes(n, j)
        for j in j_values
        for n in n_values
    }
    if args.classes_out:
        # built, and the file opened, before anything is printed: an
        # over-budget cell or an unwritable path leaves no output
        n, j = n_values[0], j_values[0]
        classes = enumerate_classes(n, j, budget)
        fh = Path(args.classes_out).open("w")
    _print_grid("class", n_values, j_values, cells, args.csv)
    if args.classes_out:
        with fh:
            for key, rep in sorted(
                classes.items(),
                key=lambda kv: (kv[0].is_zero, kv[0].half, kv[0].center or 0),
            ):
                fh.write(json.dumps({
                    "n": n,
                    "j": j,
                    "key": key.to_json(),
                    "realizable_example": list(rep.entries),
                }, sort_keys=True) + "\n")
    return 0


def _campaign_from_args(args, convention: str) -> Campaign:
    perturbations = [_perturbation(_parse_profile(text), None, None) for text in args.profile or []]
    perturbations += [_perturbation(None, text, None) for text in args.anf or []]
    if not perturbations:
        perturbations.append(("profile:1,-1", X1_PROFILE))
    return Campaign(
        k_max=args.k_max,
        n_max=args.n_max,
        n_convention=convention,
        perturbations=tuple(perturbations),
        sporadic_only=args.sporadic_only,
    )


def cmd_search(args) -> int:
    out_path = Path(args.out) if args.out else None
    checkpoint = Path(args.checkpoint) if args.checkpoint else None
    campaign = _campaign_from_args(args, args.n_convention)
    counters, recorded = run_search(
        campaign, out_path, checkpoint, args.resume, log=lambda s: print(s, file=sys.stderr)
    )
    summary = {
        "convention": args.n_convention,
        "candidates": counters.candidates,
        "balanced": counters.balanced,
        "trivial": counters.trivial,
        "sporadic": counters.sporadic,
        "recorded": recorded,
    }
    print(json.dumps(summary, sort_keys=True))
    if args.expect_sporadic is not None and counters.sporadic != args.expect_sporadic:
        print(
            f"expected {args.expect_sporadic} sporadic findings, "
            f"found {counters.sporadic}"
        )
        return 1
    return 0


def _regenerate_witness_table(n_total: int, profile_values: tuple[int, ...]):
    """Sporadic degree sets and witnesses at one variable count, top degree
    below the variable count: the sporadic findings of a census campaign."""
    perturbation = _perturbation(profile_values, None, None)
    campaign = Campaign(n_total - 1, n_total, "total", (perturbation,), True)
    chunks = (_scan_leading_degree(campaign, lead)[1] for lead in range(1, n_total))
    return {rec.degrees: rec.witness for recs in chunks for rec in recs if rec.n_total == n_total}


def cmd_tables(args) -> int:
    # Every witness in both tables lies in one solution class on 7 points:
    # the class of x_4 = 1, x_5 = -2, x_6 = 1.  Printed reference vectors are
    # class representatives, so rows are compared by class, not verbatim.
    shared_class = SolutionVector(7, (0, 0, 0, 0, 1, -2, 1, 0)).key
    failures = 0
    for label, n_total, prof, expected in (
        ("single flip, 8 variables", 8, X1_PROFILE, SPORADIC_WITNESSES_N8_X1),
        ("double flip, 9 variables", 9, X1X2_PROFILE, SPORADIC_WITNESSES_N9_X1X2),
    ):
        inner = n_total - (len(prof) - 1)
        got = _regenerate_witness_table(n_total, prof)
        print(f"# sporadic witnesses: {label}")
        for degs in sorted(got):
            wit = ",".join(str(v) for v in got[degs])
            print(f"degrees=[{','.join(map(str, degs))}] witness=({wit})")
        problems: list[str] = []
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        if missing or extra:
            problems.append(f"degree sets differ: missing={missing} extra={extra}")
        for degs in sorted(set(got) & set(expected)):
            key = SolutionVector(inner, got[degs]).key
            want = SolutionVector(inner, expected[degs]).key
            if key != want:
                problems.append(f"{list(degs)}: witness class differs from the reference row")
            elif key != shared_class:
                problems.append(f"{list(degs)}: witness outside the shared solution class")
        if problems:
            for line in problems:
                print(f"MISMATCH {line}")
            failures += 1
        else:
            print(f"ok: {len(got)} rows, every witness in the shared solution class")
    return 1 if failures else 0


def cmd_verify_families(args) -> int:
    def x1_grid():
        for k in range(1, X1_K_MAX + 1):
            verify_x1_family(k, range(1, X1_M_MAX + 1))
        return f"degrees 1..{X1_K_MAX}, steps 1..{X1_M_MAX}"

    def even_grid():
        count = 0
        for l in range(1, EVEN_L_MAX + 1):
            for D in range(1, EVEN_D_MAX + 1):
                for m in range(1, EVEN_M_MAX + 1):
                    if (1 << (l + 1)) * D - 1 <= 2 * m:
                        continue
                    verify_even_linear_family(l, D, m)
                    count += 1
        return f"{count} parameter triples"

    def propagation():
        count = 0
        for k in (2, 3, 4, 5, 8):
            spec = SymmetricSpec((k,))
            periodic_propagation(spec, WeightProfile(1, X1_PROFILE), spec.period + k - 1,
                                 PROPAGATION_M_MAX)
            count += 1
        return f"{count} base cases, {PROPAGATION_M_MAX} steps each"

    def luca_szalay():
        for t in range(3, LUCA_SZALAY_T_MAX + 1):
            for signed in (t, -t):
                gap = luca_szalay_gap(signed)
                if gap != 0:
                    raise VerificationError(f"identity gap {gap} at t={signed}")
        v = classify(SymmetricSpec((15,)), WeightProfile(2, X1X2_PROFILE), 25)
        if v.status is not BalanceStatus.SPORADIC:
            raise VerificationError(f"square-index witness instance is {v.status.value}")
        return f"|t| in 3..{LUCA_SZALAY_T_MAX}, plus the degree-15 witness instance"

    def singmaster():
        for i in range(1, SINGMASTER_I_MAX + 1):
            gap = singmaster_gap(i)
            if gap != 0:
                raise VerificationError(f"identity gap {gap} at i={i}")
        fixtures = [
            (5, 6, 10, 12, 13),
            (6, 8, 9, 10, 13),
            (6, 7, 11, 12, 14),
            (5, 6, 7, 8, 9, 11, 14),
        ]
        profile = WeightProfile(1, X1_PROFILE)
        # All four witnesses lie in the class of x_4 = x_5 = 1, x_6 = -1 on
        # 14 points.
        row = [0] * 15
        row[4], row[5], row[6] = 1, 1, -1
        want = SolutionVector(14, tuple(row)).key
        for degs in fixtures:
            v = classify(SymmetricSpec(degs), profile, 15)
            if v.status is not BalanceStatus.SPORADIC:
                raise VerificationError(
                    f"degrees {list(degs)}: expected sporadic, got {v.status.value}"
                )
            if v.key != want:
                raise VerificationError(
                    f"degrees {list(degs)}: witness outside the expected solution class"
                )
        return f"i in 1..{SINGMASTER_I_MAX}, plus 4 witness instances on 15 variables"

    checks = [
        ("single-flip family", x1_grid),
        ("even-parity family", even_grid),
        ("period propagation", propagation),
        ("adjacent-square identity", luca_szalay),
        ("adjacent-entry identity", singmaster),
    ]
    failures = 0
    for name, fn in checks:
        try:
            detail = fn()
            print(f"ok {name}: {detail}")
        except VerificationError as exc:
            print(f"FAIL {name}: {exc}")
            failures += 1
    return 1 if failures else 0


def cmd_conjecture_scan(args) -> int:
    if args.k_min > args.k_max or args.n_max < 2:
        raise SystemExit2(f"nothing to scan: degrees {args.k_min}..{args.k_max}, n 2..{args.n_max}")
    rows = []
    off_residue = 0
    profile = WeightProfile(1, X1_PROFILE)
    for k in range(args.k_min, args.k_max + 1):
        spec = SymmetricSpec((k,))
        residue = (k - 1) % spec.period
        for v in classify_range(spec, profile, 2, args.n_max, "profile:1,-1"):
            if v.balanced:
                on_residue = v.n_total % spec.period == residue
                off_residue += not on_residue
                rows.append((k, v.n_total, v.status.value, on_residue))
    for k, n_total, status, on_residue in rows:
        marker = "" if on_residue else "  <-- OFF-RESIDUE"
        print(f"k={k} n={n_total} status={status} "
              f"residue={'on' if on_residue else 'off'}{marker}")
    print(
        f"balanced cases: {len(rows)}; off-residue: {off_residue} "
        f"(degrees {args.k_min}..{args.k_max}, n up to {args.n_max})"
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _budget(text: str) -> float:
    """A search-space budget: a number >= 0 (inf allowed, NaN refused)."""
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"budget must be a number >= 0, got {text!r}")
    return value


def _add_perturbation_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--anf", help="perturbation as an expression, e.g. 'x1*x2 + x3'")
    p.add_argument("--profile", help="perturbation weight profile, e.g. '1,-2,1'")
    p.add_argument("--vars", type=int, help="variable count for --anf (default: max index)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symsum",
        description="Exact sign sums of symmetric Boolean functions, balance "
        "classification, and bounded Diophantine solution tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expsum", help="exact sign sums")
    p.add_argument("--degrees", required=True, help="comma-separated degree set, e.g. '3,4'")
    p.add_argument("--n", required=True, help="variable count or range, e.g. '1..10'")
    _add_perturbation_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_expsum)

    p = sub.add_parser("classify", help="balance classification with witness")
    p.add_argument("--degrees", required=True)
    p.add_argument("--n", required=True)
    _add_perturbation_flags(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("gamma", help="solution-count table")
    p.add_argument("--n", required=True, help="range of n, e.g. '1..10'")
    p.add_argument("--j", required=True, help="range of alphabet levels, e.g. '1..7'")
    p.add_argument("--budget", type=_budget, default=DEFAULT_GAMMA_BUDGET,
                   help="cells with a larger search space print '*'")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--cross-check", action="store_true",
                   help="recount computed cells through the sign-averaged form")
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("omega", help="solution-class table")
    p.add_argument("--n", required=True)
    p.add_argument("--j", required=True)
    p.add_argument("--budget", type=_budget, default=DEFAULT_OMEGA_BUDGET)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--classes-out", help="write one class per line (single cell only)")
    p.set_defaults(func=cmd_omega)

    p = sub.add_parser("search", help="exhaustive balanced-perturbation sweep")
    p.add_argument("--k-max", type=int, required=True, help="largest degree")
    p.add_argument("--n-max", type=int, required=True, help="largest variable count")
    p.add_argument("--n-convention", choices=("total", "inner"), default="total",
                   help="what --n-max bounds (default: total)")
    p.add_argument("--profile", action="append", help="perturbation profile (repeatable)")
    p.add_argument("--anf", action="append", help="perturbation expression (repeatable)")
    p.add_argument("--sporadic-only", action="store_true")
    p.add_argument("--out", help="write findings as JSON lines")
    p.add_argument("--checkpoint", help="checkpoint file for resumable runs")
    p.add_argument("--resume", action="store_true")
    p.add_argument("--expect-sporadic", type=int,
                   help="fail (exit 1) unless the sporadic count equals this")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify-families", help="verify structural balanced families")
    p.set_defaults(func=cmd_verify_families)

    p = sub.add_parser("tables", help="regenerate the sporadic witness tables")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("conjecture-scan", help="scan single-degree single-flip balance")
    p.add_argument("--k-min", type=int, default=1)
    p.add_argument("--k-max", type=int, default=10)
    p.add_argument("--n-max", type=int, default=100)
    p.set_defaults(func=cmd_conjecture_scan)

    return parser


def _load_config(path: str) -> list[str]:
    """Turn key=value lines into one --key=value token each (bare flags use
    true/false), so a value starting with '-' is not read as a flag."""
    flags: list[str] = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SystemExit2(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        flag = "--" + key.strip().replace("_", "-")
        value = value.strip()
        if value.lower() == "true":
            flags.append(flag)
        elif value.lower() == "false":
            continue
        else:
            flags.append(f"{flag}={value}")
    return flags


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config_flags: list[str] = []
        while argv and argv[0] == "--config":
            if len(argv) < 2:
                raise SystemExit2("--config needs a file path")
            config_flags.extend(_load_config(argv[1]))
            argv = argv[2:]
        if config_flags:
            if not argv:
                raise SystemExit2("--config needs a subcommand")
            explicit = {tok.split("=", 1)[0] for tok in argv[1:] if tok.startswith("--")}
            merged = [tok for tok in config_flags if tok.split("=", 1)[0] not in explicit]
            argv = [argv[0]] + merged + argv[1:]
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (SystemExit2, BudgetExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
