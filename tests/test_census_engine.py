"""The sign-pattern census engine against the per-degree-set scan it replaced.

The oracle here is that scan: it visits every degree set, rebuilds its sign
row and delta vectors, and evaluates the sign sum at each candidate variable
count directly.  It runs once per convention at the largest size.  Smaller
campaigns are checked chunk by chunk against its findings filtered down to
their bounds, so the engine's cell shapes (one dependent parity bit, several
when the degree bound sits below the variable count, a wider perturbed block
under the inner convention) are all covered for the price of one oracle pass.
"""

from __future__ import annotations

import json
from collections import Counter
from math import comb
from operator import mul

import pytest

from symsum import (
    BalanceStatus,
    BalanceVerdict,
    SymmetricSpec,
    WeightProfile,
    anf_parse,
    anf_to_function,
    classify,
    classify_range,
    weight_profile,
)
from symsum import search_cli
from symsum.balance import mirror_parity
from symsum.search_cli import (
    Campaign,
    ScanCounters,
    _regenerate_witness_table,
    _scan_leading_degree,
)

from conftest import verdict_record

X1 = ("profile:1,-1", (1, -1))
X1X2 = ("profile:1,-2,1", (1, -2, 1))
UNPERTURBED = ("profile:1", (1,))


def iter_degree_sets(k_max: int):
    """All nonempty subsets of 1..k_max as ascending tuples, in lex order."""

    def rec(lo: int, prefix: tuple[int, ...]):
        for k in range(lo, k_max + 1):
            cur = prefix + (k,)
            yield cur
            yield from rec(k + 1, cur)

    yield from rec(1, ())


def parity_masks(k_max: int, width: int) -> list[int]:
    """masks[k] has bit l set exactly when C(l, k) is odd, l < width."""
    return [
        sum(1 << l for l in range(width) if k & ~l == 0) for k in range(k_max + 1)
    ]


def oracle_scan(campaign: Campaign, degree_sets) -> tuple[ScanCounters, list[BalanceVerdict]]:
    """Evaluate the campaign over the given degree sets, in order."""
    max_j = max(len(v) - 1 for _, v in campaign.perturbations)
    inner_max = campaign.n_max
    width = inner_max + max_j + 1
    masks = parity_masks(campaign.k_max, width)
    rows = [[comb(n, l) for l in range(n + 1)] for n in range(inner_max + 1)]
    counters = ScanCounters()
    findings: list[BalanceVerdict] = []
    profiles = [
        (desc, values, len(values) - 1) for desc, values in campaign.perturbations
    ]
    for degs in degree_sets:
        mask = 0
        for k in degs:
            mask ^= masks[k]
        signs = [1 - 2 * ((mask >> l) & 1) for l in range(width)]
        top = degs[-1]
        deltas = {}
        for desc, values, j in profiles:
            delta = [0] * (inner_max + 1)
            for m, c in enumerate(values):
                for l in range(inner_max + 1):
                    delta[l] += c * signs[l + m]
            deltas[desc] = delta
        n_lists = {j: campaign.n_totals(top, j) for _, _, j in profiles}
        n_all = sorted({n for lst in n_lists.values() for n in lst})
        for n_total in n_all:
            for desc, values, j in profiles:
                if n_total not in n_lists[j] or n_total <= j:
                    continue
                counters.candidates += 1
                inner = n_total - j
                s = sum(map(mul, deltas[desc], rows[inner]))
                if s != 0:
                    continue
                counters.balanced += 1
                verdict = classify(
                    SymmetricSpec(degs), WeightProfile(j, values), n_total, desc
                )
                assert verdict.sign_sum == 0
                # the witness from this scan's own linear deltas, not from the
                # delta_row kernel that classify and the census classifier share
                want = deltas[desc][:inner + 1]
                assert verdict.witness == tuple(x // 2 if j else x for x in want)
                if verdict.status is BalanceStatus.SPORADIC:
                    counters.sporadic += 1
                else:
                    counters.trivial += 1
                if campaign.sporadic_only and verdict.status is not BalanceStatus.SPORADIC:
                    continue
                findings.append(verdict)
    return counters, findings


class OracleCensus:
    """One oracle pass, kept per leading degree, and its restriction to a
    smaller campaign of the same convention and perturbations."""

    def __init__(self, campaign: Campaign) -> None:
        self.campaign = campaign
        self.findings: dict[int, list[BalanceVerdict]] = {}
        self.counters: dict[int, ScanCounters] = {}
        self.degree_sets_by_top: Counter = Counter()
        sets = list(iter_degree_sets(campaign.k_max))
        for degs in sets:
            self.degree_sets_by_top[degs[0], degs[-1]] += 1
        for lead in range(1, campaign.k_max + 1):
            counters, findings = oracle_scan(campaign, [t for t in sets if t[0] == lead])
            self.counters[lead] = counters
            self.findings[lead] = findings

    def restricted(self, sub: Campaign, lead: int) -> tuple[ScanCounters, list[BalanceVerdict]]:
        assert sub.n_convention == self.campaign.n_convention
        assert sub.perturbations == self.campaign.perturbations
        assert sub.k_max <= self.campaign.k_max and sub.n_max <= self.campaign.n_max
        findings = [
            rec for rec in self.findings[lead]
            if rec.degrees[-1] <= sub.k_max and rec.n_total in sub.n_totals(rec.degrees[-1], rec.j)
        ]
        statuses = Counter(rec.status for rec in findings)
        candidates = sum(
            count * len(sub.n_totals(top, len(values) - 1))
            for (a, top), count in self.degree_sets_by_top.items()
            if a == lead and top <= sub.k_max
            for _, values in sub.perturbations
        )
        counters = ScanCounters(
            candidates=candidates,
            balanced=len(findings),
            trivial=statuses["trivial"],
            sporadic=statuses["sporadic"],
        )
        return counters, findings


@pytest.fixture(scope="module")
def total_oracle() -> OracleCensus:
    return OracleCensus(Campaign(17, 17, "total", (X1, X1X2)))


@pytest.fixture(scope="module")
def unperturbed_oracle() -> OracleCensus:
    # j = 0: the witness is the sign row itself, not halved
    return OracleCensus(Campaign(13, 13, "total", (UNPERTURBED,)))


@pytest.fixture(scope="module")
def inner_oracle() -> OracleCensus:
    expr = anf_parse("x1*x3 + x2*x3 + x1")
    values = tuple(weight_profile(anf_to_function(expr, 3)).values)
    return OracleCensus(Campaign(15, 15, "inner", ((f"anf:{expr}", values),)))


def encoded(verdict: BalanceVerdict) -> bytes:
    """The --out line of a verdict.  It holds every field but j, and its key
    holds the inner count n_total - j, so equal lines mean equal verdicts."""
    return json.dumps(verdict_record(verdict), sort_keys=True).encode() + b"\n"


def assert_engine_matches(oracle: OracleCensus, k_max: int, n_max: int) -> None:
    sub = Campaign(k_max, n_max, oracle.campaign.n_convention, oracle.campaign.perturbations)
    for lead in range(1, k_max + 1):
        counters, findings = oracle.restricted(sub, lead)
        got = _scan_leading_degree(sub, lead)
        assert got == (counters, [encoded(rec) for rec in findings]), (k_max, n_max, lead)


def test_oracle_reproduces_the_census(total_oracle):
    # the oracle's own sporadic totals are acceptance criterion 10's
    for desc, want in ((X1[0], 265), (X1X2[0], 606)):
        found = [
            rec for chunk in total_oracle.findings.values() for rec in chunk
            if rec.perturbation == desc and rec.status == "sporadic"
        ]
        assert len(found) == want


@pytest.mark.parametrize(
    "k_max, n_max",
    [
        (17, 17), (17, 12), (9, 9), (4, 5), (1, 1),
        # k_max < n_max - 1: several bits above the top degree are dependent
        (12, 17), (8, 17), (3, 17), (1, 17), (6, 14), (10, 13),
    ],
)
def test_engine_agrees_with_oracle_total(total_oracle, k_max, n_max):
    assert_engine_matches(total_oracle, k_max, n_max)


@pytest.mark.parametrize(
    "k_max, n_max",
    [(15, 15), (15, 10), (11, 13), (7, 15), (3, 15), (1, 15), (5, 6)],
)
def test_engine_agrees_with_oracle_inner(inner_oracle, k_max, n_max):
    assert_engine_matches(inner_oracle, k_max, n_max)


@pytest.mark.parametrize("k_max, n_max", [(13, 13), (13, 9), (6, 13), (1, 13)])
def test_engine_agrees_with_oracle_unperturbed(unperturbed_oracle, k_max, n_max):
    assert_engine_matches(unperturbed_oracle, k_max, n_max)


def test_unperturbed_oracle_is_not_vacuous(unperturbed_oracle):
    counters = unperturbed_oracle.counters.values()
    assert sum(c.balanced for c in counters) == 142
    assert sum(c.sporadic for c in counters) == 10


@pytest.mark.parametrize(
    "perturbation, k_max, n_max, hits",
    [(X1, 10, 60, 1723), (X1X2, 10, 60, 1206), (X1X2, 6, 140, 903)],
    ids=["x1", "x1x2", "x1x2-past-128-bits"],
)
def test_engine_agrees_with_sweeps_where_most_bits_are_dependent(perturbation, k_max, n_max,
                                                                 hits):
    # The oracle pass above stops at 17 variables.  Here the top degree is at
    # most 10 and the variable count reaches 60, or at most 6 and 140, so up
    # to 134 sign bits of a cell are dependent and the sign words span several
    # machine words; one classify_range sweep per degree set, whose sign sums
    # come from the periodic delta vector, is the reference.
    desc, values = perturbation
    campaign = Campaign(k_max, n_max, "total", (perturbation,))
    got = {
        line for lead in range(1, k_max + 1) for line in _scan_leading_degree(campaign, lead)[1]
    }
    profile = WeightProfile(len(values) - 1, values)
    want = set()
    for degs in iter_degree_sets(k_max):
        n_lo = max(degs[-1] + 1, profile.j + 1)
        for verdict in classify_range(SymmetricSpec(degs), profile, n_lo, n_max, desc):
            if verdict.status is not BalanceStatus.NOT_BALANCED:
                want.add(encoded(verdict))
    assert len(want) == hits
    assert got == want


@pytest.mark.parametrize("profile", [X1[1], X1X2[1]])
@pytest.mark.parametrize("n_total", range(8, 13))
def test_witness_table_matches_classify_profile(n_total, profile):
    # tables classifies engine hits through the census path; classify
    # over every degree set below the variable count is the reference
    weights = WeightProfile(len(profile) - 1, profile)
    want = {}
    for degs in iter_degree_sets(n_total - 1):
        verdict = classify(SymmetricSpec(degs), weights, n_total)
        if verdict.status is BalanceStatus.SPORADIC:
            want[degs] = verdict.witness
    assert _regenerate_witness_table(n_total, profile) == want


def test_oracle_is_not_vacuous(total_oracle, inner_oracle):
    # a vacuous agreement would pass with empty findings
    for oracle in (total_oracle, inner_oracle):
        assert sum(c.balanced for c in oracle.counters.values()) > 800
        assert sum(c.sporadic for c in oracle.counters.values()) > 0


@pytest.mark.parametrize("convention", ["total", "inner"])
@pytest.mark.parametrize("perturbation, parity", [(UNPERTURBED, 1), (X1, 0), (X1X2, 1)])
def test_mirror_counted_hits_are_zero_class_trivial(monkeypatch, convention, perturbation,
                                                    parity):
    # Under sporadic_only a hit whose signs mirror is counted trivial
    # without a witness, so it never reaches classify_zero; the mirrored hits
    # are the hits of the full campaign that the sporadic one leaves
    # unclassified.  Each such hit must be a zero-class trivial verdict of
    # classify, the counters must equal those of the campaign that
    # classifies every hit, and the mirrored hits must be exactly the hits
    # whose witness folds to zero.
    classified = []
    real = search_cli.classify_zero

    def recorded(degrees, j, n_total, *rest):
        classified.append((degrees, n_total))
        return real(degrees, j, n_total, *rest)

    monkeypatch.setattr(search_cli, "classify_zero", recorded)
    desc, values = perturbation
    assert mirror_parity(values) == parity
    full = Campaign(17, 17, convention, (perturbation,))
    sporadic = Campaign(17, 17, convention, (perturbation,), sporadic_only=True)
    count = 0
    for lead in range(1, 18):
        want, lines = _scan_leading_degree(full, lead)
        findings = [json.loads(line) for line in lines]
        hits = sorted((tuple(rec["degrees"]), rec["n_total"]) for rec in findings)
        assert sorted(classified) == hits  # the mirror test runs only under sporadic_only
        classified.clear()
        got, _ = _scan_leading_degree(sporadic, lead)
        assert got == want, lead
        mirrored = sorted(set(hits) - set(classified))
        classified.clear()
        zero_class = [(tuple(rec["degrees"]), rec["n_total"]) for rec in findings
                      if rec["key"]["zero"]]
        assert mirrored == sorted(zero_class), lead
        for degrees, n_total in mirrored:
            verdict = classify(SymmetricSpec(degrees), WeightProfile(len(values) - 1, values),
                               n_total, desc)
            assert verdict.status is BalanceStatus.TRIVIAL and verdict.key.is_zero
        count += len(mirrored)
    assert count > 100


def test_independent_checker_passes_the_census_records_and_rejects_corrupt_ones(tmp_path):
    # record_checker shares no code with symsum; it must pass every record of
    # both k = n = 17 campaigns and reject one record corrupted in each field.
    from record_checker import check_file

    for perturbation, want in ((X1, 265), (X1X2, 606)):
        out = tmp_path / "findings.jsonl"
        search_cli.run_search(Campaign(17, 17, "total", (perturbation,), True), out)
        assert check_file(out) == (want, [])
    header, line, *rest = out.read_text().splitlines(keepends=True)
    for field in ("witness", "key", "status"):
        record = json.loads(line)
        if field == "witness":
            record["witness"][0] += 1
        elif field == "key":
            record["key"]["half"][0] += 1
        else:
            record["status"] = "trivial"
        bad = tmp_path / f"bad-{field}.jsonl"
        bad.write_text(header + json.dumps(record) + "\n" + "".join(rest))
        count, problems = check_file(bad)
        assert count == 606 and len(problems) == 1, field
        assert problems[0].startswith(f"{bad}:2: {field} "), problems
