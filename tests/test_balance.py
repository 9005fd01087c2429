"""Balance classification, residue criterion, and structural families."""

from __future__ import annotations

import itertools
from collections import Counter
from math import comb

import pytest

from symsum import (
    BalanceStatus,
    GammaAlphabet,
    SolutionVector,
    SymmetricSpec,
    VerificationError,
    WeightProfile,
    balance_window_report,
    canonical_key,
    classify,
    classify_range,
    delta_vector,
    eventual_balance,
    exp_sum_profile,
    fibonacci,
    luca_szalay_gap,
    parity_function,
    periodic_binomial_sums,
    periodic_propagation,
    singmaster_gap,
    singmaster_parameters,
    single_variable,
    verify_even_linear_family,
    verify_x1_family,
    weight_profile,
)
from symsum import balance, diophantine

from conftest import random_profile, random_spec

X1 = WeightProfile(1, (1, -1))
X1X2 = WeightProfile(2, (1, -2, 1))
UNPERTURBED = WeightProfile(0, (1,))


def oracle_classify(spec, profile, n_total):
    """(status, witness, key) by the per-term route: the sign sum and the
    witness entry by entry from the delta vector, every binomial from
    math.comb."""
    n = n_total - profile.j
    dv = delta_vector(spec, profile)
    s = sum(dv.at(l) * comb(n, l) for l in range(n + 1))
    if s != 0:
        return BalanceStatus.NOT_BALANCED, None, None
    scale = 2 if profile.j >= 1 else 1
    entries = tuple(dv.at(l) // scale for l in range(n + 1))
    assert sum(x * comb(n, l) for l, x in enumerate(entries)) == 0
    vec = SolutionVector(n, entries)
    status = BalanceStatus.TRIVIAL if vec.key.is_trivial else BalanceStatus.SPORADIC
    return status, entries, vec.key


def direct_adjacent_gap(n: int, k: int) -> int:
    return comb(n, k) + comb(n, k + 1) - comb(n, k + 2)


def check_witness(verdict) -> None:
    """The stored witness must be an alphabet-bounded solution with its key."""
    assert verdict.witness is not None
    v = SolutionVector(verdict.inner_n, verdict.witness)
    assert v.in_alphabet(GammaAlphabet(verdict.j))
    assert canonical_key(v) == verdict.key


# ---------------------------------------------------------------------------
# classification fixtures
# ---------------------------------------------------------------------------

class TestClassify:
    def test_unperturbed_sporadic(self):
        v = classify(SymmetricSpec((1, 2, 3, 5, 7)), UNPERTURBED, 8)
        assert v.status is BalanceStatus.SPORADIC
        assert v.witness == (1, -1, -1, -1, 1, 1, -1, -1, 1)
        assert v.raw_witness() == v.witness
        check_witness(v)

    def test_single_flip_trivial(self):
        v = classify(SymmetricSpec.of(5), X1, 20)
        assert v.status is BalanceStatus.TRIVIAL
        assert v.inner_n == 19
        raw = v.raw_witness()
        assert len(raw) == 20
        assert raw == (0, 0, 0, 0, 2, -2, 2, -2, 0, 0, 0, 0, 2, -2, 2, -2, 0, 0, 0, 0)
        check_witness(v)

    def test_two_variable_sporadic_four_terms(self):
        v = classify(SymmetricSpec.of(14), X1X2, 24)
        assert v.status is BalanceStatus.SPORADIC
        want = [0] * 23
        want[12:16] = [-1, 1, 1, -1]
        assert v.witness == tuple(want)
        # same class as the sign-flipped version
        flipped = [0] * 23
        flipped[12:16] = [1, -1, -1, 1]
        assert v.key == canonical_key(SolutionVector(22, tuple(flipped)))
        check_witness(v)

    def test_two_variable_sporadic_three_terms(self):
        v = classify(SymmetricSpec.of(15), X1X2, 25)
        assert v.status is BalanceStatus.SPORADIC
        want = [0] * 24
        want[13:16] = [-1, 2, -1]
        assert v.witness == tuple(want)
        check_witness(v)

    def test_two_variable_trivial_pair(self):
        assert classify(SymmetricSpec.of(4), X1X2, 7).status is BalanceStatus.TRIVIAL
        assert classify(SymmetricSpec.of(5), X1X2, 8).status is BalanceStatus.TRIVIAL

    def test_not_balanced(self):
        v = classify(SymmetricSpec.of(4), X1, 10)
        assert v.status is BalanceStatus.NOT_BALANCED
        assert not v.balanced
        assert v.sign_sum == 96
        assert v.witness is None and v.key is None

    def test_function_route_matches_profile_route(self):
        v1 = classify(SymmetricSpec.of(5), weight_profile(single_variable()), 20)
        v2 = classify(SymmetricSpec.of(5), X1, 20)
        assert v1.status == v2.status
        assert v1.witness == v2.witness

    def test_to_record(self):
        rec = classify(SymmetricSpec.of(14), X1X2, 24).to_record()
        assert rec["n_total"] == 24
        assert rec["degrees"] == [14]
        assert rec["S"] == 0
        assert rec["status"] == "sporadic"
        assert rec["key"]["n"] == 22
        assert len(rec["witness"]) == 23

    def test_witnesses_on_random_balanced_cases(self, rng):
        found = 0
        while found < 12:
            spec = random_spec(rng, 7)
            j = rng.randint(0, 3)
            prof = random_profile(rng, j) if j else UNPERTURBED
            n_total = rng.randint(max(j + 1, 2), 16)
            v = classify(spec, prof, n_total)
            if v.balanced:
                check_witness(v)
                found += 1

    def test_matches_per_term_oracle_on_the_conjecture_scan(self):
        # every balanced (k, n) of conjecture-scan --k-max 16 --n-max 300
        balanced = off_residue = sporadic = 0
        for k in range(1, 17):
            spec = SymmetricSpec.of(k)
            sums = periodic_binomial_sums(delta_vector(spec, X1).values, 1, 299)
            for n_total, s in zip(range(2, 301), sums):
                if s:
                    continue
                v = classify(spec, X1, n_total)
                assert (v.status, v.witness, v.key) == oracle_classify(spec, X1, n_total), (
                    k, n_total)
                balanced += 1
                off_residue += n_total % spec.period != (k - 1) % spec.period
                sporadic += v.status is BalanceStatus.SPORADIC
        # the totals pinned in perfbench/reference.json
        assert (balanced, off_residue, sporadic) == (848, 240, 0)

    def test_matches_per_term_oracle_on_random_cases(self, rng):
        for _ in range(60):
            spec = random_spec(rng, 7)
            j = rng.randint(0, 3)
            prof = random_profile(rng, j) if j else UNPERTURBED
            n_total = rng.randint(j + 1, 40)
            v = classify(spec, prof, n_total)
            assert (v.status, v.witness, v.key) == oracle_classify(spec, prof, n_total)

    def test_range_matches_per_term_oracle(self, rng):
        # every index of a sweep from n = j + 1, the first index a profile
        # admits, including sweeps of length one, and of a sweep from a later
        # index: each zero's witness is a prefix of one row for n_hi, which
        # must start at inner index 0 whatever n_lo is
        balanced = 0
        for _ in range(40):
            spec = random_spec(rng, 7)
            j = rng.randint(0, 3)
            prof = random_profile(rng, j) if j else UNPERTURBED
            dv = delta_vector(spec, prof)
            later = rng.randint(j + 2, 30)
            for n_lo, n_hi in ((j + 1, j + 1), (j + 1, j + 1 + rng.randint(1, 40)),
                               (later, rng.randint(later, 70))):
                verdicts = list(classify_range(spec, prof, n_lo, n_hi, "desc"))
                assert len(verdicts) == n_hi - n_lo + 1
                for n_total, v in enumerate(verdicts, n_lo):
                    n = n_total - j
                    s = sum(dv.at(l) * comb(n, l) for l in range(n + 1))
                    assert (v.n_total, v.degrees, v.j, v.perturbation, v.sign_sum) == (
                        n_total, spec.degrees, j, "desc", s)
                    assert (v.status, v.witness, v.key) == oracle_classify(spec, prof, n_total)
                    balanced += v.balanced
        assert balanced

    def test_rejected_witness_is_a_verification_error(self, monkeypatch):
        # a fault in the witness check only: the sign sum stays zero
        real = diophantine._binomial_half_row

        def faulty(n):
            row = real(n)
            row[1] += 1
            return row

        monkeypatch.setattr(diophantine, "_binomial_half_row", faulty)
        with pytest.raises(
            VerificationError,
            match=r"n_total=8 \(inner n=8, degrees \[1, 2, 3, 5, 7\]\).*weighted sum is -2$",
        ):
            classify(SymmetricSpec((1, 2, 3, 5, 7)), UNPERTURBED, 8)


# ---------------------------------------------------------------------------
# residue criterion
# ---------------------------------------------------------------------------

class TestEventualBalance:
    def test_single_flip_family_residue(self):
        rep = eventual_balance(SymmetricSpec.of(5), X1, 3)
        assert rep.holds and rep.z == 0 and rep.first_failure is None
        assert rep.period == 8

    def test_failing_residue(self):
        rep = eventual_balance(SymmetricSpec.of(14), X1X2, 22)
        assert rep.residue == 6
        assert not rep.holds
        assert rep.z is None
        assert rep.first_failure is not None

    def test_unperturbed_degree_four(self):
        rep = eventual_balance(SymmetricSpec.of(4), UNPERTURBED, 7)
        assert rep.holds and rep.z == 0

    def test_nonzero_pattern_constant(self):
        rep = eventual_balance(SymmetricSpec.of(1), UNPERTURBED, 0)
        assert rep.holds and rep.z == -2

    def test_holding_residue_implies_balance_on_grid(self, rng):
        for _ in range(25):
            spec = random_spec(rng, 7)
            j = rng.randint(0, 3)
            prof = random_profile(rng, j) if j else UNPERTURBED
            for res in range(spec.period):
                if eventual_balance(spec, prof, res).holds:
                    for m in range(3):
                        inner = res + m * spec.period
                        if inner >= 1:
                            assert exp_sum_profile(spec, prof, inner) == 0


class TestBalanceWindow:
    def test_degree_four_single_flip(self):
        win = balance_window_report(SymmetricSpec.of(4), X1, 4, 40)
        balanced = [e.n_total for e in win if e.balanced]
        assert balanced == [11, 19, 27, 35]
        assert all(e.n_total % 8 == 3 for e in win if e.balanced)
        assert not any(e.pre_threshold for e in win)
        for e in win:
            assert e.inner_n == e.n_total - 1
            assert e.criterion_holds == (e.residue == 2)

    def test_degree_fourteen_two_flips(self):
        win = balance_window_report(SymmetricSpec.of(14), X1X2, 16, 64)
        balanced = [e.n_total for e in win if e.balanced]
        assert balanced == [24]
        entry = next(e for e in win if e.n_total == 24)
        assert entry.pre_threshold
        assert entry.status is BalanceStatus.SPORADIC
        assert not entry.criterion_holds

    def test_degree_fourteen_single_flip(self):
        win = balance_window_report(SymmetricSpec.of(14), X1, 16, 64)
        balanced = [e.n_total for e in win if e.balanced]
        assert balanced == [29, 45, 61]
        assert all(e.status is BalanceStatus.TRIVIAL for e in win if e.balanced)

    def test_identically_balanced_degree_one(self):
        win = balance_window_report(SymmetricSpec.of(1), UNPERTURBED, 1, 12)
        assert all(e.balanced for e in win)
        assert all(e.criterion_holds for e in win)
        assert all(e.status is BalanceStatus.TRIVIAL for e in win)

    def test_sweep_classifier_disagreement_raises(self, monkeypatch):
        def false_zeros(weights, n_lo, n_hi):
            return [0] * (n_hi - n_lo + 1)

        monkeypatch.setattr(balance, "periodic_binomial_sums", false_zeros)
        with pytest.raises(VerificationError, match="sign-sum sweep gives 0 at n_total=4"):
            balance_window_report(SymmetricSpec.of(4), X1, 4, 40)

    def test_window_start_validation(self):
        with pytest.raises(ValueError):
            balance_window_report(SymmetricSpec.of(4), X1X2, 2, 10)


def test_balanced_beyond_three_periods_is_trivial(rng):
    # sporadic zeros live below a finite threshold: in the fourth period
    # block every balanced case already belongs to the trivial classes
    for top in range(1, 8):
        for rest in itertools.combinations(range(1, top), min(top - 1, 2)):
            spec = SymmetricSpec(tuple(sorted(rest + (top,))))
            for prof in (UNPERTURBED, X1, X1X2, random_profile(rng, rng.randint(1, 4))):
                for inner in range(3 * spec.period, 4 * spec.period):
                    v = classify(spec, prof, inner + prof.j)
                    if v.balanced:
                        assert v.status is BalanceStatus.TRIVIAL


@pytest.mark.parametrize("profile, balanced, sporadic, last_sporadic", [
    (X1, 2983, 61, {5: 7, 6: 8, 7: 9, 8: 19, 9: 21, 10: 21}),
    (X1X2, 2026, 129, {4: 6, 5: 8, 6: 9, 7: 13, 8: 22, 9: 22, 10: 21}),
])
def test_fixed_degree_sporadic_cases_end_early(profile, balanced, sporadic, last_sporadic):
    # The Canteaut-Videau observation that the paper extends, as data: with
    # the top degree fixed, sporadic balance stops at a small n.  Every degree
    # set with top degree at most 10, swept by classify_range to n = 100;
    # none is sporadic for 23 <= n <= 100.
    counts = Counter()
    last: dict[int, int] = {}
    for top in range(1, 11):
        for size in range(top):
            for lower in itertools.combinations(range(1, top), size):
                spec = SymmetricSpec(lower + (top,))
                for v in classify_range(spec, profile, max(top, profile.j) + 1, 100, "fixed"):
                    counts[v.status] += 1
                    if v.status is BalanceStatus.SPORADIC:
                        last[top] = max(last.get(top, 0), v.n_total)
    assert counts[BalanceStatus.TRIVIAL] + counts[BalanceStatus.SPORADIC] == balanced
    assert counts[BalanceStatus.SPORADIC] == sporadic
    assert last == last_sporadic
    assert max(last.values()) <= 22


# ---------------------------------------------------------------------------
# structural families
# ---------------------------------------------------------------------------

class TestFamilies:
    def test_single_flip_family(self):
        assert verify_x1_family(5, [1, 2]) == [12, 20]
        assert verify_x1_family(4, range(1, 5)) == [11, 19, 27, 35]
        assert verify_x1_family(2, [1]) == [5]

    def test_single_flip_family_rejects_bad_m(self):
        with pytest.raises(ValueError):
            verify_x1_family(4, [0])
        with pytest.raises(ValueError):
            verify_x1_family(0, [1])

    def test_even_linear_family(self):
        assert verify_even_linear_family(2, 2, 1) == (15, 16)
        assert verify_even_linear_family(1, 3, 1) == (11, 12)
        assert verify_even_linear_family(2, 1, 1) == (7, 8)

    def test_even_linear_family_requires_positive_parameters(self):
        with pytest.raises(ValueError):
            verify_even_linear_family(0, 1, 1)
        with pytest.raises(ValueError):
            verify_even_linear_family(1, 0, 1)
        with pytest.raises(ValueError):
            verify_even_linear_family(1, 1, 0)

    def test_even_linear_family_needs_fitting_width(self):
        # 2m parity variables must fit below the smaller index
        with pytest.raises(ValueError):
            verify_even_linear_family(1, 1, 2)

    def test_propagation_in_period_steps(self):
        parity = weight_profile(parity_function(9))
        assert periodic_propagation(SymmetricSpec((8,)), parity, 23, 3) == [23, 39, 55, 71]
        parity = weight_profile(parity_function(2))
        assert periodic_propagation(SymmetricSpec((4,)), parity, 7, 3) == [7, 15, 23, 31]
        parity = weight_profile(parity_function(3))
        assert periodic_propagation(SymmetricSpec((3, 4, 5, 6)), parity, 15, 2) == [15, 23, 31]

    def test_propagation_rejects_untrivial_base(self):
        with pytest.raises(VerificationError):
            # base is sporadic, not trivial
            periodic_propagation(SymmetricSpec((14,)), weight_profile(parity_function(2)), 24, 1)
        with pytest.raises(VerificationError):
            # base is not balanced at all
            periodic_propagation(SymmetricSpec((4,)), weight_profile(single_variable()), 10, 1)

    def test_helper_functions(self):
        assert parity_function(3).weight() == 4
        assert single_variable().weight() == 1
        assert parity_function(1).table == single_variable().table


# ---------------------------------------------------------------------------
# classical identities behind specific witnesses
# ---------------------------------------------------------------------------

class TestClassicalIdentities:
    def test_fibonacci(self):
        assert [fibonacci(i) for i in range(11)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
        with pytest.raises(ValueError):
            fibonacci(-1)

    def test_square_parameter_identity(self):
        for t in range(3, 13):
            assert luca_szalay_gap(t) == 0
            assert luca_szalay_gap(-t) == 0
        with pytest.raises(ValueError):
            luca_szalay_gap(2)

    def test_square_parameter_values(self):
        # t = 5 lands on the three-term relation in row 23 around entry 13
        assert comb(23, 13) - 2 * comb(23, 14) + comb(23, 15) == 0
        assert luca_szalay_gap(5) == 0

    def test_adjacent_entry_coincidences(self):
        assert singmaster_parameters(1) == (14, 4)
        assert comb(14, 4) + comb(14, 5) == comb(14, 6)
        for i in range(1, 7):
            assert singmaster_gap(i) == 0
        with pytest.raises(ValueError):
            singmaster_parameters(0)

    def test_adjacent_entry_gap_matches_direct_binomials(self):
        for i in range(1, 5):
            assert singmaster_gap(i) == direct_adjacent_gap(*singmaster_parameters(i)) == 0

    def test_adjacent_entry_gap_off_the_identity(self, monkeypatch):
        # pairs next to a coincidence break it; the exact gap must show that
        for i in range(1, 5):
            n, k = singmaster_parameters(i)
            for params in ((n, k + 1), (n + 1, k), (n - 1, k), (n, k - 1)):
                monkeypatch.setattr(balance, "singmaster_parameters", lambda _, p=params: p)
                gap = singmaster_gap(i)
                assert gap != 0
                assert gap == direct_adjacent_gap(*params)
