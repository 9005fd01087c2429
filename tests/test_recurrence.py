"""Linear recurrences, minimal polynomials, and exact spectral data."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symsum import (
    AsymptoticConstant,
    CyclotomicValue,
    RecurrencePoly,
    SymmetricSpec,
    WeightProfile,
    c0,
    d0,
    d_coefficients,
    epsilon,
    exp_sum_profile,
    exp_sum_symmetric,
    extend,
    first_violation,
    lambda_value,
    master_recurrence,
    min_char_factors,
    min_char_poly,
    minimality_certificate,
    satisfies,
    xi_power,
)

from conftest import random_balanced_profile, random_profile, random_spec

UNPERTURBED = WeightProfile(0, (1,))


def sign_sum_row(k: int, count: int) -> list[int]:
    spec = SymmetricSpec.of(k)
    return [exp_sum_symmetric(n, spec) for n in range(1, count + 1)]


def cyclotomic_free(k: int) -> RecurrencePoly:
    """Product of the minimal-polynomial factors other than (X - 2)."""
    poly = RecurrencePoly((1,), "1")
    for f in min_char_factors(k):
        if f.label != "(X-2)^1":
            poly = poly.mul(f)
    return poly


# ---------------------------------------------------------------------------
# the polynomials themselves
# ---------------------------------------------------------------------------

class TestMasterRecurrence:
    def test_small_periods(self):
        assert master_recurrence(1).coeffs == (-2, 1)
        assert master_recurrence(2).coeffs == (-4, 6, -4, 1)
        assert master_recurrence(3).coeffs == (-8, 28, -56, 70, -56, 28, -8, 1)

    def test_degree_is_period_minus_one(self):
        for r in range(1, 7):
            assert master_recurrence(r).degree == (1 << r) - 1

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            master_recurrence(0)

    def test_every_degree_set_in_period_satisfies_it(self, rng):
        for _ in range(25):
            spec = random_spec(rng, 9)
            r = spec.r
            seq = [exp_sum_symmetric(n, spec) for n in range(1, 3 * (1 << r) + 5)]
            assert satisfies(seq, master_recurrence(r))


class TestEpsilon:
    def test_values(self):
        assert epsilon(8) == 0
        assert epsilon(6) == 1
        assert epsilon(1) == 0
        assert [epsilon(n) for n in range(1, 11)] == [0, 0, 1, 0, 1, 1, 1, 0, 1, 1]


class TestMinCharPoly:
    def test_coefficients(self):
        assert min_char_poly(4).coeffs == (2, -4, 6, -4, 1)
        assert min_char_poly(3).coeffs == (-4, 6, -4, 1)
        assert min_char_poly(2).coeffs == (2, -2, 1)
        assert min_char_poly(1).coeffs == (1,)

    def test_degree_formula(self):
        for k in range(1, 33):
            assert min_char_poly(k).degree == 2 * (k // 2) + epsilon(k)

    def test_labels(self):
        assert min_char_poly(3).label == "(X-2)^1 * ((X-1)^2+1)"
        assert min_char_poly(4).label == "((X-1)^4+1)"
        assert min_char_poly(2).label == "((X-1)^2+1)"
        assert min_char_poly(6).label == "(X-2)^1 * ((X-1)^2+1) * ((X-1)^4+1)"

    def test_divides_master(self):
        for k in range(1, 33):
            r = max(k.bit_length(), 1)
            assert min_char_poly(k).divides(master_recurrence(r))

    def test_expanded_rendering(self):
        assert min_char_poly(2).expanded() == "X^2 - 2*X + 2"
        assert min_char_poly(1).expanded() == "1"


# ---------------------------------------------------------------------------
# recurrence checking and continuation
# ---------------------------------------------------------------------------

class TestSatisfies:
    def test_degree_four_sequence(self):
        assert satisfies(sign_sum_row(4, 40), min_char_poly(4))

    def test_powers_of_two(self):
        doubling = RecurrencePoly((-2, 1))
        assert satisfies([2 ** n for n in range(1, 20)], doubling)

    def test_degree_five_breaks_doubling_at_five(self):
        doubling = RecurrencePoly((-2, 1))
        assert first_violation(sign_sum_row(5, 12), doubling) == 5

    def test_degree_zero_polynomial_means_identically_zero(self):
        one = RecurrencePoly((1,))
        assert satisfies([0, 0, 0], one)
        assert first_violation([0, 2, 0], one) == 2

    def test_degree_one_sequences_vanish_from_the_start(self):
        assert sign_sum_row(1, 20) == [0] * 20
        assert satisfies(sign_sum_row(1, 20), min_char_poly(1))


class TestExtend:
    def test_perturbed_degree_four_row(self):
        # single-flip perturbation of the degree-4 function, starting at four
        # total variables; the continuation reproduces the direct values
        got = extend([0, 0, 2, 8], min_char_poly(4), 5)
        assert got == [0, 0, 2, 8, 20, 40, 68, 96, 96]

    def test_doubling(self):
        assert extend([2], RecurrencePoly((-2, 1)), 3) == [2, 4, 8, 16]

    def test_degree_zero_appends_zeros(self):
        assert extend([], RecurrencePoly((1,)), 4) == [0, 0, 0, 0]

    def test_short_seed_rejected(self):
        with pytest.raises(ValueError):
            extend([1, 2], min_char_poly(4), 1)

    def test_matches_direct_values(self):
        for k in (2, 3, 4, 6, 7, 8):
            poly = min_char_poly(k)
            direct = sign_sum_row(k, poly.degree + 12)
            seeded = extend(direct[: poly.degree], poly, 12)
            assert seeded == direct


class TestMinimality:
    def test_certified_small_degrees(self):
        for k in range(2, 11):
            horizon = max(2 * min_char_poly(k).degree + 4, 24)
            assert minimality_certificate(k, horizon)

    def test_specific_horizons(self):
        assert minimality_certificate(4, 40)
        assert minimality_certificate(6, 60)

    def test_horizon_floor_enforced(self):
        with pytest.raises(ValueError):
            minimality_certificate(4, 10)


# ---------------------------------------------------------------------------
# sequences of perturbed sums
# ---------------------------------------------------------------------------

@given(st.data())
@settings(max_examples=60, deadline=None)
def test_perturbed_sequences_satisfy_minimal_polynomial(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    k = rng.randint(2, 10)
    j = rng.randint(1, 6)
    prof = random_profile(rng, j)
    spec = SymmetricSpec.of(k)
    seq = [exp_sum_profile(spec, prof, inner) for inner in range(1, 51)]
    assert satisfies(seq, min_char_poly(k))
    if prof.total == 0:
        assert satisfies(seq, cyclotomic_free(k))


def test_balanced_perturbations_drop_the_growth_factor(rng):
    for _ in range(30):
        k = rng.randint(2, 9)
        j = rng.randint(1, 5)
        prof = random_balanced_profile(rng, j)
        spec = SymmetricSpec.of(k)
        seq = [exp_sum_profile(spec, prof, inner) for inner in range(1, 41)]
        assert satisfies(seq, cyclotomic_free(k))


def test_parity_perturbations_satisfy_minimal_polynomial():
    # XOR of the first m variables, for several m
    for m in range(1, 5):
        prof = WeightProfile(m, tuple((-1) ** w * _binom(m, w) for w in range(m + 1)))
        for k in range(2, 9):
            spec = SymmetricSpec.of(k)
            seq = [exp_sum_profile(spec, prof, inner) for inner in range(1, 41)]
            assert satisfies(seq, min_char_poly(k))


def _binom(n, k):
    from math import comb

    return comb(n, k)


# ---------------------------------------------------------------------------
# exact growth constants
# ---------------------------------------------------------------------------

class TestAsymptoticConstant:
    def test_reduction_and_validation(self):
        assert AsymptoticConstant.from_fraction(2, 4) == AsymptoticConstant(1, 2)
        assert str(AsymptoticConstant(1, 2)) == "1/2"
        assert str(AsymptoticConstant(0, 1)) == "0"
        with pytest.raises(ValueError):
            AsymptoticConstant(1, 3)
        with pytest.raises(ValueError):
            AsymptoticConstant(2, 4)
        with pytest.raises(ValueError):
            AsymptoticConstant(5, 4)

    def test_c0_small_degrees(self):
        assert c0(SymmetricSpec.of(1)).value == 0
        assert c0(SymmetricSpec.of(2)).value == 0
        assert c0(SymmetricSpec.of(3)).value == Fraction(1, 2)
        assert c0(SymmetricSpec.of(4)).value == 0
        assert c0(SymmetricSpec.of(5)).value == Fraction(1, 2)
        assert c0(SymmetricSpec((1, 2))).value == 0
        assert c0(SymmetricSpec((2, 3))).value == Fraction(1, 2)

    def test_c0_zero_exactly_at_powers_of_two(self):
        for k in range(1, 33):
            is_zero = c0(SymmetricSpec.of(k)).value == 0
            assert is_zero == (epsilon(k) == 0)

    def test_d0_examples(self):
        assert d0(SymmetricSpec.of(3), WeightProfile(2, (1, 2, -1))).value == Fraction(1, 4)
        assert d0(SymmetricSpec.of(3), WeightProfile(1, (1, -1))).value == 0
        assert d0(SymmetricSpec.of(4), WeightProfile(2, (1, 2, -1))).value == 0

    def test_d0_governs_growth(self, rng):
        # subtracting the growth term leaves a sequence ruled by the slower
        # eigenvalues: it satisfies the recurrence with that factor removed
        for _ in range(20):
            k = rng.randint(2, 8)
            j = rng.randint(1, 4)
            prof = random_profile(rng, j)
            spec = SymmetricSpec.of(k)
            const = d0(spec, prof).value
            residual = [
                exp_sum_profile(spec, prof, n - j) - const * 2 ** n
                for n in range(j + 1, j + 41)
            ]
            assert satisfies(residual, cyclotomic_free(k))

    def test_residual_satisfies_growth_free_recurrence(self):
        for k in range(2, 9):
            spec = SymmetricSpec.of(k)
            const = c0(spec).value
            residual = [
                exp_sum_symmetric(n, spec) - const * 2 ** n for n in range(1, 41)
            ]
            assert satisfies(residual, cyclotomic_free(k))


# ---------------------------------------------------------------------------
# exact cyclotomic spectral coefficients
# ---------------------------------------------------------------------------

class TestCyclotomicValue:
    def test_ring_operations(self):
        a = CyclotomicValue(3, (1, 2, 0, -1), 2)
        b = CyclotomicValue(3, (0, 1, 0, 0), 1)
        assert (a + b) - b == a
        assert a * CyclotomicValue.from_int(3, 1) == a
        assert (a * b).denom == 2

    def test_root_of_unity_relations(self):
        for r in range(1, 6):
            half = 1 << (r - 1)
            assert xi_power(r, half) == CyclotomicValue.from_int(r, -1)
            assert xi_power(r, 2 * half) == CyclotomicValue.from_int(r, 1)
            assert xi_power(r, 1).power(half) == CyclotomicValue.from_int(r, -1)

    def test_conjugation(self):
        v = xi_power(3, 3)
        assert v.conjugate() == xi_power(3, -3)
        w = CyclotomicValue(3, (1, 1, 1, 1), 2)
        assert w.conjugate().conjugate() == w

    def test_rationality(self):
        assert CyclotomicValue.from_int(2, 7).is_rational
        assert CyclotomicValue.from_int(2, 7).as_fraction() == 7
        assert not xi_power(3, 1).is_rational
        with pytest.raises(ValueError):
            xi_power(3, 1).as_fraction()

    def test_numeric_embedding(self):
        import cmath

        v = CyclotomicValue(3, (3, -1, 0, 2), 4)
        expect = (3 - cmath.exp(1j * cmath.pi / 4) + 2 * cmath.exp(3j * cmath.pi / 4)) / 4
        assert abs(complex(v) - expect) < 1e-12

    def test_middle_eigenvalue_vanishes(self):
        for r in range(1, 6):
            assert lambda_value(r, 1 << (r - 1)).is_zero


class TestDCoefficients:
    def test_identically_zero_sequence(self):
        out = d_coefficients(SymmetricSpec.of(1), UNPERTURBED)
        assert out[0].is_zero
        assert out[1] == CyclotomicValue.from_int(1, 1)

    def test_leading_coefficient_matches_growth_constant(self, rng):
        for _ in range(15):
            spec = random_spec(rng, 8)
            j = rng.randint(0, 4)
            prof = random_profile(rng, j) if j else UNPERTURBED
            out = d_coefficients(spec, prof)
            # out[0] scales 2**inner_n; the growth constant scales 2**n_total
            want = d0(spec, prof).value * (1 << j) if j else c0(spec).value
            assert out[0].as_fraction() == want

    def test_conjugate_symmetry(self, rng):
        for _ in range(15):
            spec = random_spec(rng, 8)
            prof = random_profile(rng, rng.randint(1, 4))
            out = d_coefficients(spec, prof)
            period = spec.period
            for l in range(1, period):
                assert out[l].conjugate() == out[period - l]

    def test_reconstructs_degree_four_row(self):
        spec = SymmetricSpec.of(4)
        out = d_coefficients(spec, UNPERTURBED)
        lams = [lambda_value(spec.r, l) for l in range(spec.period)]
        for n in range(1, 11):
            acc = CyclotomicValue.zero(spec.r)
            for d, lam in zip(out, lams):
                acc = acc + d * lam.power(n)
            assert acc.as_fraction() == exp_sum_symmetric(n, spec)

    def test_reconstructs_perturbed_rows(self, rng):
        for _ in range(10):
            spec = random_spec(rng, 7)
            j = rng.randint(1, 4)
            prof = random_profile(rng, j)
            out = d_coefficients(spec, prof)
            lams = [lambda_value(spec.r, l) for l in range(spec.period)]
            for inner in range(1, 9):
                acc = CyclotomicValue.zero(spec.r)
                for d, lam in zip(out, lams):
                    acc = acc + d * lam.power(inner)
                assert acc.as_fraction() == exp_sum_profile(spec, prof, inner)
