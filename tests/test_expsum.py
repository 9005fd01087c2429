"""Exact sign sums of symmetric functions and their perturbations."""

from __future__ import annotations

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symsum import (
    BooleanFunction,
    DeltaVector,
    SymmetricSpec,
    WeightProfile,
    anf_parse,
    anf_to_function,
    binom_parity,
    binomial,
    classify,
    delta_vector,
    exp_sum_perturbation_decomposed,
    exp_sum_profile,
    exp_sum_symmetric,
    periodic_binomial_sums,
    shifted_identity_gap,
    weight_profile,
)
from symsum.expsum import delta_row

from conftest import (
    brute_force_sign_sum,
    function_from_profile,
    random_balanced_profile,
    random_profile,
    random_spec,
    random_unbalanced_profile,
)

X1 = WeightProfile(1, (1, -1))
X1X2 = WeightProfile(2, (1, -2, 1))
UNPERTURBED = WeightProfile(0, (1,))

DEGREE4_ROW = (2, 4, 8, 14, 20, 20, 0, -68, -232, -560)
DEGREE5_ROW = (2, 4, 8, 16, 30, 52, 84, 128, 188, 280)
DEGREE4_X1_ROW = (0, 0, 2, 8, 20, 40, 68, 96, 96)  # n = 2..10


# ---------------------------------------------------------------------------
# binomials
# ---------------------------------------------------------------------------

class TestBinomial:
    def test_values(self):
        assert binomial(22, 12) == 646646
        assert binomial(17, 0) == 1
        assert binomial(5, 7) == 0
        assert binomial(5, -1) == 0

    def test_matches_stdlib(self):
        for n in range(0, 30):
            for l in range(-2, n + 3):
                want = comb(n, l) if 0 <= l <= n else 0
                assert binomial(n, l) == want


class TestBinomParity:
    def test_examples(self):
        assert binom_parity(5, 2) == 0
        assert all(binom_parity(l, 0) == 1 for l in range(20))
        assert all(binom_parity(7, k) == 1 for k in range(8))

    def test_matches_exact_binomials(self):
        for l in range(64):
            for k in range(64):
                assert binom_parity(l, k) == (comb(l, k) % 2 if k <= l else 0)


# ---------------------------------------------------------------------------
# the Pascal sweep against the per-l formula
# ---------------------------------------------------------------------------

def oracle_periodic_sum(weights, n: int) -> int:
    """sum over l = 0..n of weights[l mod P] * C(n, l), one binomial per l.

    The direct formula, kept as the reference for periodic_binomial_sums.
    """
    mask = len(weights) - 1
    return sum(weights[l & mask] * comb(n, l) for l in range(n + 1))


class TestPeriodicBinomialSums:
    def test_single_index(self):
        weights = SymmetricSpec((3, 6)).sign_row
        for n in (0, 1, 7, 8, 9, 40):
            assert periodic_binomial_sums(weights, n, n) == [oracle_periodic_sum(weights, n)]

    def test_range_from_zero(self):
        weights = delta_vector(SymmetricSpec.of(14), X1X2).values
        got = periodic_binomial_sums(weights, 0, 60)
        assert got == [oracle_periodic_sum(weights, n) for n in range(61)]
        assert got[0] == weights[0]

    def test_period_two(self):
        # degree 1: every function on n >= 1 variables is balanced
        assert periodic_binomial_sums(SymmetricSpec.of(1).sign_row, 0, 20) == [1] + [0] * 20
        # twice the even-weight count, 2**n for n >= 1
        assert periodic_binomial_sums((2, 0), 0, 20) == [2] + [1 << n for n in range(1, 21)]

    def test_empty_and_invalid(self):
        assert periodic_binomial_sums((1, -1), 5, 4) == []
        with pytest.raises(ValueError):
            periodic_binomial_sums((1, -1), -1, 3)
        with pytest.raises(ValueError):
            periodic_binomial_sums((), 0, 3)


@given(
    top=st.integers(1, 70),
    lower=st.sets(st.integers(1, 69), max_size=4),
    j=st.integers(0, 4),
    table=st.integers(0, (1 << 16) - 1),
    bounds=st.tuples(st.integers(0, 150), st.integers(0, 150)).map(sorted),
)
@settings(max_examples=100, deadline=None)
def test_sweep_matches_oracle_and_decomposition(top, lower, j, table, bounds):
    spec = SymmetricSpec(tuple(sorted({k for k in lower if k < top} | {top})))
    f = BooleanFunction(j, table % (1 << (1 << j))) if j else None
    prof = weight_profile(f) if f else UNPERTURBED
    weights = delta_vector(spec, prof).values
    n_lo, n_hi = bounds
    got = periodic_binomial_sums(weights, n_lo, n_hi)
    assert got == [oracle_periodic_sum(weights, n) for n in range(n_lo, n_hi + 1)]
    for n, s in zip(range(n_lo, n_hi + 1), got):
        if n >= 1:
            assert exp_sum_perturbation_decomposed(spec, prof, n) == s


# ---------------------------------------------------------------------------
# the unperturbed sums
# ---------------------------------------------------------------------------

class TestExpSumSymmetric:
    def test_degree_four_row(self):
        spec = SymmetricSpec.of(4)
        assert tuple(exp_sum_symmetric(n, spec) for n in range(1, 11)) == DEGREE4_ROW

    def test_degree_five_row(self):
        spec = SymmetricSpec.of(5)
        assert tuple(exp_sum_symmetric(n, spec) for n in range(1, 11)) == DEGREE5_ROW

    def test_spot_values(self):
        assert exp_sum_symmetric(7, SymmetricSpec.of(4)) == 0
        assert exp_sum_symmetric(8, SymmetricSpec.of(4)) == -68
        assert exp_sum_symmetric(10, SymmetricSpec.of(5)) == 280

    def test_defined_below_top_degree(self):
        # the binomial form extends the sum to n below the top degree
        assert exp_sum_symmetric(2, SymmetricSpec.of(4)) == 4

    def test_matches_truth_table(self):
        for degrees in ((3,), (2, 4), (1, 5, 6)):
            for n in range(1, 13):
                assert exp_sum_symmetric(n, SymmetricSpec(degrees)) == \
                    brute_force_sign_sum(degrees, n, None)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SymmetricSpec((0,))
        with pytest.raises(ValueError):
            SymmetricSpec((3, 3))
        with pytest.raises(ValueError):
            SymmetricSpec((4, 2))
        with pytest.raises(ValueError):
            SymmetricSpec(())

    def test_period_tracks_top_degree(self):
        assert SymmetricSpec.of(4).period == 8
        assert SymmetricSpec.of(5).period == 8
        assert SymmetricSpec.of(8).period == 16
        assert SymmetricSpec.of(1).period == 2


# ---------------------------------------------------------------------------
# the periodic coefficient vector
# ---------------------------------------------------------------------------

class TestDeltaVector:
    def test_unperturbed_degree_four(self):
        dv = delta_vector(SymmetricSpec.of(4), UNPERTURBED)
        assert dv.values == (1, 1, 1, 1, -1, -1, -1, -1)

    def test_unperturbed_degree_five(self):
        dv = delta_vector(SymmetricSpec.of(5), UNPERTURBED)
        assert dv.values == (1, 1, 1, 1, 1, -1, 1, -1)

    def test_parity_nine_halved_vector(self):
        text = "+".join(f"x{i}" for i in range(1, 10))
        prof = weight_profile(anf_to_function(anf_parse(text), 9))
        dv = delta_vector(SymmetricSpec.of(9), prof)
        assert dv.halved() == (
            1, -9, 37, -93, 163, -219, 247, -255,
            255, -247, 219, -163, 93, -37, 9, -1,
        )

    def test_periodicity_of_defining_formula(self):
        # Past the first case the profile is longer than the period, so the
        # sign row must be read at (a + m) mod P.
        expr = anf_parse("x1*x2 + x3")
        cases = [((2, 5), WeightProfile(2, (1, 0, -1)))] + [
            ((k,), weight_profile(anf_to_function(expr, j)))
            for k, js in ((1, (3,)), (2, (4, 5, 6)), (3, (4, 5, 6)))
            for j in js
        ]
        for degrees, prof in cases:
            spec = SymmetricSpec(degrees)
            dv = delta_vector(spec, prof)
            row = delta_row(spec.degrees, prof.values, 4 * dv.period)
            assert len(row) == 4 * dv.period
            for a in range(4 * dv.period):
                direct = sum(
                    prof.values[m] * (-1) ** sum(binom_parity(a + m, k) for k in spec.degrees)
                    for m in range(prof.j + 1)
                )
                assert dv.at(a) == direct, (degrees, prof.values, a)
                assert row[a] == direct, (degrees, prof.values, a)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            DeltaVector(1, 1, (1, -1))  # odd entries at j >= 1
        with pytest.raises(ValueError):
            DeltaVector(1, 1, (4, 0))  # exceeds 2**j


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_delta_parity_and_bound(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    j = rng.randint(1, 6)
    spec = random_spec(rng, 9)
    prof = random_profile(rng, j)
    dv = delta_vector(spec, prof)
    for v in dv.values:
        assert v % 2 == 0
        assert abs(v) <= 1 << j


# ---------------------------------------------------------------------------
# perturbed sums, three routes
# ---------------------------------------------------------------------------

class TestExpSumPerturbation:
    def test_degree_four_single_flip_row(self):
        spec = SymmetricSpec.of(4)
        row = tuple(exp_sum_profile(spec, X1, n - 1) for n in range(2, 11))
        assert row == DEGREE4_X1_ROW

    def test_spot_values(self):
        spec = SymmetricSpec.of(4)
        assert exp_sum_profile(spec, X1, 3) == 2
        assert exp_sum_profile(spec, X1, 6) == 40
        assert exp_sum_profile(SymmetricSpec.of(14), X1X2, 22) == 0

    def test_trivially_balanced_example(self):
        spec = SymmetricSpec.of(5)
        assert exp_sum_profile(spec, X1, 19) == 0
        assert exp_sum_perturbation_decomposed(spec, X1, 19) == 0

    def test_zero_function_reduces_to_unperturbed(self):
        spec = SymmetricSpec((2, 6))
        for j in range(1, 5):
            prof = WeightProfile(j, tuple(comb(j, m) for m in range(j + 1)))
            for n_total in range(j + 1, j + 9):
                assert exp_sum_profile(spec, prof, n_total - j) == exp_sum_symmetric(n_total, spec)
                assert exp_sum_perturbation_decomposed(spec, prof, n_total - j) == \
                    exp_sum_symmetric(n_total, spec)

    def test_function_and_profile_agree(self):
        f = anf_to_function(anf_parse("x1*x2 + x3"), 3)
        spec = SymmetricSpec((4, 6))
        assert exp_sum_profile(spec, weight_profile(f), 9) == \
            brute_force_sign_sum(spec.degrees, 12, f)

    def test_requires_room_beyond_perturbation(self):
        with pytest.raises(ValueError):
            classify(SymmetricSpec.of(3), X1X2, 2)

    def test_exhaustive_three_variable_functions(self):
        # the sum depends on the function only through its weight sums
        spec = SymmetricSpec((3, 6))
        from symsum import all_functions

        for f in all_functions(3):
            assert exp_sum_profile(spec, weight_profile(f), 6) == brute_force_sign_sum((3, 6), 9, f)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_three_routes_agree(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    spec = random_spec(rng, 8)
    j = rng.randint(0, 4)
    prof = random_profile(rng, j) if j else UNPERTURBED
    n_total = rng.randint(j + 1, 14)
    f = function_from_profile(prof) if j else None
    value = exp_sum_profile(spec, prof, n_total - j)
    assert exp_sum_perturbation_decomposed(spec, prof, n_total - j) == value
    assert brute_force_sign_sum(spec.degrees, n_total, f) == value


# ---------------------------------------------------------------------------
# the shifted-index identity
# ---------------------------------------------------------------------------

class TestShiftedIdentityGap:
    def test_single_flip_gap_vanishes(self):
        for k in (1, 2, 3, 5, 8):
            for n in range(0, 30):
                assert shifted_identity_gap(k, 0, X1, n) == 0

    def test_rotation_alignment(self):
        rot = weight_profile(anf_to_function(
            anf_parse("x1*x2 + x2*x3 + x3*x4 + x4*x5 + x5*x1"), 5))
        for n in range(0, 25):
            assert shifted_identity_gap(5, 0, rot, n) == 0

    def test_rotation_row_values(self):
        rot = weight_profile(anf_to_function(
            anf_parse("x1*x2 + x2*x3 + x3*x4 + x4*x5 + x5*x1"), 5))
        row = tuple(
            exp_sum_profile(SymmetricSpec.of(10), rot, n - 5) for n in range(10, 21)
        )
        assert row == (2, 24, 136, 528, 1612, 4144, 9336, 18928, 35220, 61104, 100064)

    def test_unbalanced_first_index_gap(self, rng):
        for _ in range(50):
            j = rng.randint(1, 6)
            prof = random_unbalanced_profile(rng, j)
            k = rng.randint(1, 8)
            t = rng.randint(0, min(3, 2 * k - 1))
            assert shifted_identity_gap(k, t, prof, 0) == -prof.total

    def test_balanced_gap_vanishes_everywhere(self, rng):
        for _ in range(40):
            j = rng.randint(1, 6)
            prof = random_balanced_profile(rng, j)
            k = rng.randint(1, 8)
            t = rng.randint(0, min(3, 2 * k - 1))
            for n in range(0, 25):
                assert shifted_identity_gap(k, t, prof, n) == 0

    def test_precondition(self):
        with pytest.raises(ValueError):
            shifted_identity_gap(1, 2, X1, 3)


def test_adjacent_degree_identity():
    # sum over l of (-1)**C(l,2k+1) * (1 - (-1)**C(l,2k)) * C(n,l)
    #   equals the same expression one degree down at n - 1
    for k in range(1, 9):
        for n in range(1, 41):
            left = sum(
                (-1) ** binom_parity(l, 2 * k + 1)
                * (1 - (-1) ** binom_parity(l, 2 * k))
                * binomial(n, l)
                for l in range(n + 1)
            )
            right = sum(
                (-1) ** binom_parity(l, 2 * k)
                * (1 - (-1) ** binom_parity(l, 2 * k - 1))
                * binomial(n - 1, l)
                for l in range(n)
            )
            assert left == right
