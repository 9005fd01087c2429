"""Truth tables, input syntax and weight sums."""

from __future__ import annotations

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symsum import (
    MAX_VARIABLES,
    AnfSyntaxError,
    BooleanFunction,
    WeightProfile,
    all_profiles,
    anf_parse,
    anf_to_function,
    main,
    weight_profile,
)

from conftest import all_functions, exp_sum_bruteforce, function_from_profile, function_to_anf

ROTATION = "x1*x2 + x2*x3 + x3*x4 + x4*x5 + x5*x1"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class TestAnfParse:
    def test_single_variable(self):
        assert anf_parse("x1").terms == frozenset({frozenset({1})})

    def test_rotation_has_five_pair_monomials(self):
        expr = anf_parse(ROTATION)
        assert len(expr.terms) == 5
        assert all(len(mono) == 2 for mono in expr.terms)
        assert expr.max_index == 5

    def test_xor_cancellation(self):
        assert anf_parse("x1 + x1").terms == frozenset()

    def test_constant_one(self):
        assert anf_parse("1").terms == frozenset({frozenset()})

    def test_whitespace_ignored(self):
        assert anf_parse(" x1 * x2 +x3 ") == anf_parse("x1*x2+x3")

    @pytest.mark.parametrize("bad", [
        "", " ", "x", "x1 +", "* x1", "x1 x2", "y1", "x1**x2",
        "11", "1*x1", "+x1", "x1++x2", "x1*", "x1 * 1",
    ])
    def test_syntax_errors_carry_position(self, bad):
        with pytest.raises(AnfSyntaxError) as err:
            anf_parse(bad)
        assert 0 <= err.value.position < max(len(bad), 1)

    @pytest.mark.parametrize("bad", ["x0", "x25"])
    def test_variable_index_bounds(self, bad):
        with pytest.raises(AnfSyntaxError):
            anf_parse(bad)

    def test_repeated_variable_counts_once(self):
        # over GF(2), x*x = x
        assert anf_parse("x1*x1") == anf_parse("x1")
        assert anf_parse("x1*x2*x1") == anf_parse("x1*x2")
        assert anf_parse("x1*x1 + x1").terms == frozenset()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_rendered_terms_parse_to_their_set(self, data):
        # a product is the union of its variables; terms combine by XOR
        index = st.one_of(st.integers(1, 3), st.integers(1, MAX_VARIABLES))
        products = data.draw(st.lists(st.lists(index, max_size=5), min_size=1, max_size=6))
        space = st.sampled_from(["", " ", "\t", "  ", "\n", "\r"])

        def pad(token):
            return data.draw(space) + token + data.draw(space)

        def var(i):
            return data.draw(st.sampled_from("xX")) + "0" * data.draw(st.integers(0, 2)) + str(i)

        text = "+".join(
            "*".join(pad(var(i)) for i in p) if p else pad("1") for p in products)
        expected = set()
        for p in products:
            expected ^= {frozenset(p)}
        assert anf_parse(text).terms == expected, text

    def test_repeated_variable_on_the_command_line(self, capsys):
        lines = []
        for anf in ("x1*x1", "x1"):
            assert main(["classify", "--degrees", "3", "--n", "5", "--anf", anf]) == 0
            lines.append(capsys.readouterr().out)
        assert lines[0] == lines[1] != ""

    def test_str_round_trip(self):
        for text in ("x1*x2 + x3", "1", "0", "x2"):
            expr = anf_parse(text) if text != "0" else anf_parse("x1+x1")
            assert anf_parse(str(expr)) == expr if text != "0" else str(expr) == "0"


class TestAnfToFunction:
    def test_single_variable_table(self):
        f = anf_to_function(anf_parse("x1"), 1)
        assert f.bits() == (0, 1)

    def test_and_gate_table(self):
        f = anf_to_function(anf_parse("x1*x2"), 2)
        assert f.bits() == (0, 0, 0, 1)

    def test_zero_function_table(self):
        f = anf_to_function(anf_parse("x1+x1"), 2)
        assert f.bits() == (0, 0, 0, 0)

    def test_rejects_undersized_variable_count(self):
        with pytest.raises(ValueError):
            anf_to_function(anf_parse("x3"), 2)

    def test_rejects_oversized_variable_count(self):
        with pytest.raises(ValueError):
            anf_to_function(anf_parse("x1"), 25)


# ---------------------------------------------------------------------------
# sign sums and weight profiles
# ---------------------------------------------------------------------------

class TestExpSumBruteforce:
    def test_single_variable_balanced(self):
        assert exp_sum_bruteforce(anf_to_function(anf_parse("x1"), 1)) == 0

    def test_rotation_balanced(self):
        assert exp_sum_bruteforce(anf_to_function(anf_parse(ROTATION), 5)) == 0

    def test_and_gate(self):
        assert exp_sum_bruteforce(anf_to_function(anf_parse("x1*x2"), 2)) == 2


class TestWeightProfile:
    def test_single_variable(self):
        f = anf_to_function(anf_parse("x1"), 1)
        assert weight_profile(f).values == (1, -1)

    def test_and_gate(self):
        f = anf_to_function(anf_parse("x1*x2"), 2)
        assert weight_profile(f).values == (1, 2, -1)

    def test_parity_of_nine(self):
        text = "+".join(f"x{i}" for i in range(1, 10))
        f = anf_to_function(anf_parse(text), 9)
        p = weight_profile(f)
        assert p.values == tuple((-1) ** m * comb(9, m) for m in range(10))
        assert p.total == 0

    @pytest.mark.parametrize(
        "j,values",
        [(1, (1, 0)), (1, (2, -1)), (2, (1, 3, -1)), (2, (1, 2, 3))],
    )
    def test_invalid_profiles_rejected(self, j, values):
        with pytest.raises(ValueError):
            WeightProfile(j, values)


# ---------------------------------------------------------------------------
# enumeration helpers
# ---------------------------------------------------------------------------

class TestEnumeration:
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_profiles_of_functions_exactly_fill_the_lattice(self, j):
        from_functions = {weight_profile(f).values for f in all_functions(j)}
        lattice = {p.values for p in all_profiles(j)}
        assert from_functions == lattice

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_every_profile_is_realizable(self, j):
        for p in all_profiles(j):
            f = function_from_profile(p)
            assert weight_profile(f).values == p.values


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

@st.composite
def boolean_functions(draw, max_j: int = 4):
    j = draw(st.integers(1, max_j))
    table = draw(st.integers(0, (1 << (1 << j)) - 1))
    return BooleanFunction(j, table)


@given(boolean_functions())
@settings(max_examples=200, deadline=None)
def test_profile_sums_to_sign_sum(f):
    p = weight_profile(f)
    assert sum(p.values) == exp_sum_bruteforce(f)
    for m, v in enumerate(p.values):
        assert abs(v) <= comb(f.j, m)
        assert (v - comb(f.j, m)) % 2 == 0


@given(boolean_functions())
@settings(max_examples=200, deadline=None)
def test_mobius_round_trip(f):
    assert anf_to_function(function_to_anf(f), f.j) == f

