"""Bounded-alphabet binomial equations, classes, and counting routes."""

from __future__ import annotations

import itertools
from collections import defaultdict
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symsum import (
    BudgetExceeded,
    FoldedKey,
    GammaAlphabet,
    SolutionVector,
    canonical_key,
    class_enumeration_metric,
    count_classes,
    count_solutions,
    direct_enumeration_metric,
    enumerate_classes,
    enumerate_solutions,
    enumerate_trivial_solutions,
    gamma_integral_metric,
    gamma_via_integral,
    trivial_count,
)
from symsum import diophantine
from symsum.diophantine import (
    _binomial_half_row,
    _binomial_row,
    _box_count,
    _check_class_cell,
    _normalize_components,
)
from symsum.search_cli import DEFAULT_OMEGA_BUDGET

EQUIVALENT_TO_ALTERNATING_N12 = (0, 0, 0, -2, 2, 0, 1, -2, 0, 0, 2, -2, 2)


def zero_key(n: int) -> FoldedKey:
    """The zero class, built through FoldedKey's checks."""
    return FoldedKey(n, (0,) * ((n + 1) // 2), 0 if n % 2 == 0 else None, True)


def alternating_key(n: int) -> FoldedKey:
    """Key of the alternating solution (+1, -1, +1, ...)."""
    return SolutionVector(n, tuple((-1) ** l for l in range(n + 1))).key


# gamma cells past the default budget, recorded by the partial-sum route
RAISED_BUDGET_COUNTS = {
    (11, 3): 61200135,
    (12, 3): 231887971,
    (13, 3): 1534852791,
    (14, 3): 5180975087,
    (11, 4): 60053145483,
    (12, 4): 474595309685,
    (13, 4): 4619271659225,
}


def oracle_count_solutions(n: int, j: int) -> int:
    """Solution count by a forward convolution over the positions.

    Keeps a dict of reachable partial sums, pruning those that cannot return
    to zero; an independent route to the library's packed-polynomial count.
    """
    members = GammaAlphabet(j).members
    big = max(abs(x) for x in members)
    weights = [comb(n, l) for l in range(n + 1)]
    suffix = [0] * (n + 2)
    for l in range(n, -1, -1):
        suffix[l] = suffix[l + 1] + big * weights[l]
    cur = {0: 1}
    for l, w in enumerate(weights):
        lim = suffix[l + 1]
        nxt: dict[int, int] = defaultdict(int)
        for s, c in cur.items():
            for x in members:
                s2 = s + x * w
                if -lim <= s2 <= lim:
                    nxt[s2] += c
        cur = nxt
    return cur.get(0, 0)


# ---------------------------------------------------------------------------
# alphabets and solution vectors
# ---------------------------------------------------------------------------

class TestGammaAlphabet:
    def test_level_zero_is_signs_only(self):
        a = GammaAlphabet(0)
        assert a.members == (-1, 1)
        assert len(a) == 2
        assert 1 in a and -1 in a and 0 not in a

    def test_positive_levels(self):
        a = GammaAlphabet(2)
        assert a.bound == 2
        assert a.members == (-2, -1, 0, 1, 2)
        assert len(a) == 5
        assert 2 in a and -2 in a and 3 not in a
        assert len(GammaAlphabet(5)) == 33

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            GammaAlphabet(-1)


class TestSolutionVector:
    def test_accepts_solutions(self):
        SolutionVector(2, (1, -1, 1))
        SolutionVector(4, (0, 1, -2, 2, 0))
        SolutionVector(12, EQUIVALENT_TO_ALTERNATING_N12)

    def test_rejects_non_solutions(self):
        with pytest.raises(ValueError):
            SolutionVector(2, (1, 1, 1))
        with pytest.raises(ValueError):
            SolutionVector(2, (1, -1))
        with pytest.raises(ValueError):
            SolutionVector(0, (0,))

    def test_alphabet_membership(self):
        v = SolutionVector(4, (0, 1, -2, 2, 0))
        assert v.in_alphabet(GammaAlphabet(2))
        assert not v.in_alphabet(GammaAlphabet(1))

    def test_fold(self):
        key = SolutionVector(4, (1, 1, -1, 0, 1)).key
        assert key.half == (2, 1)
        assert key.center == -1
        key = SolutionVector(3, (1, -1, 1, -1)).key
        assert key.half == (0, 0)
        assert key.center is None
        assert key.is_zero

    def test_key_is_not_a_field(self):
        x = (0, 1, -2, 2, 0)
        v, doubled = SolutionVector(4, x), SolutionVector(4, tuple(2 * c for c in x))
        assert v != doubled and hash(v) != hash(doubled)
        assert v.key == doubled.key and hash(v.key) == hash(doubled.key)
        assert repr(v) == "SolutionVector(n=4, entries=(0, 1, -2, 2, 0))"
        with pytest.raises(AttributeError):
            v.key = doubled.key
        assert v.key == doubled.key


# ---------------------------------------------------------------------------
# class keys
# ---------------------------------------------------------------------------

class TestCanonicalKey:
    def test_even_example(self):
        key = canonical_key(SolutionVector(4, (1, 1, -1, 0, 1)))
        assert key.half == (2, 1)
        assert key.center == -1
        assert not key.is_zero

    def test_normalization_divides_and_signs(self):
        a = canonical_key(SolutionVector(4, (2, 1, -1, 0, 0)))
        b = canonical_key(SolutionVector(4, (-2, -1, 1, 0, 0)))
        assert a == b
        doubled = canonical_key(SolutionVector(4, (2, 2, -2, 0, 2)))
        assert doubled == canonical_key(SolutionVector(4, (1, 1, -1, 0, 1)))

    def test_reversal_and_negation_invariance(self):
        for v in enumerate_solutions(4, 2):
            rev = SolutionVector(4, tuple(reversed(v.entries)))
            neg = SolutionVector(4, tuple(-x for x in v.entries))
            assert canonical_key(rev) == canonical_key(v)
            assert canonical_key(neg) == canonical_key(v)

    def test_zero_and_alternating_keys(self):
        assert canonical_key(SolutionVector(3, (1, -1, 1, -1))) == zero_key(3)
        assert zero_key(4).is_zero
        assert alternating_key(4).half == (2, -2)
        assert alternating_key(4).center == 1
        assert alternating_key(3) == zero_key(3)

    def test_trivial_key_is_zero_or_alternating(self):
        alternating = 0
        for n in range(1, 11):
            for j in range(1, 4):
                for key in enumerate_classes(n, j):
                    want = key.is_zero or key == alternating_key(n)
                    assert key.is_trivial == want, key
                    alternating += want and not key.is_zero
        assert alternating == 15  # even n in 2..10, each at j = 1, 2, 3

    def test_key_validation(self):
        with pytest.raises(ValueError):
            FoldedKey(4, (2, 1), -1, True)  # wrong zero flag
        with pytest.raises(ValueError):
            FoldedKey(4, (4, 2), -2, False)  # not normalized
        with pytest.raises(ValueError):
            FoldedKey(4, (2, 1), None, False)  # missing center
        with pytest.raises(ValueError):
            FoldedKey(4, (2, 2), -1, False)  # fails the equation

    @pytest.mark.parametrize("n, half, center", [(-2, (), 0), (-1, (), None), (0, (), 0)])
    def test_key_needs_a_variable(self, n, half, center):
        # n = -1 and n = 0 pass the shape checks alone; both records refuse them
        with pytest.raises(ValueError, match="need n >= 1"):
            FoldedKey(n, half, center, True)
        with pytest.raises(ValueError, match="need n >= 1"):
            SolutionVector(n, (0,) * max(n + 1, 0))

    def test_to_json(self):
        key = canonical_key(SolutionVector(4, (1, 1, -1, 0, 1)))
        assert key.to_json() == {"n": 4, "half": [2, 1], "center": -1, "zero": False}


# ---------------------------------------------------------------------------
# the half binomial row behind every witness check
# ---------------------------------------------------------------------------

def test_half_row_matches_comb():
    for n in range(501):
        assert _binomial_half_row(n) == [comb(n, l) for l in range(n // 2 + 1)], n


def test_full_row_is_the_mirrored_half_row():
    for n in range(61):
        assert _binomial_row(n) == [comb(n, l) for l in range(n + 1)], n


def _vectors(length):
    """(n, entries) with n in 1..80 and len(entries) == length(n)."""
    return st.integers(1, 80).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.integers(-9, 9), min_size=length(n), max_size=length(n))
        )
    )


@given(
    vec=_vectors(lambda n: n + 1),
    mode=st.sampled_from(["raw", "solved", "nudged"]),
    pos=st.integers(0, 80),
    nudge=st.sampled_from([-1, 1]),
)
@settings(max_examples=200, deadline=None)
def test_solution_check_matches_comb(vec, mode, pos, nudge):
    n, entries = vec
    if mode != "raw":
        entries[0] = -sum(x * comb(n, l) for l, x in enumerate(entries) if l)
    if mode == "nudged":
        entries[pos % (n + 1)] += nudge
    acc = sum(x * comb(n, l) for l, x in enumerate(entries))
    if acc == 0:
        assert SolutionVector(n, tuple(entries)).entries == tuple(entries)
    else:
        with pytest.raises(ValueError, match=rf"weighted sum is {acc}$"):
            SolutionVector(n, tuple(entries))


@given(vec=_vectors(lambda n: n // 2 + 1), solved=st.booleans())
@settings(max_examples=200, deadline=None)
def test_folded_key_check_matches_comb(vec, solved):
    # comps holds the pair sums for l < (n + 1) // 2, then the center when n
    # is even: component l always weighs C(n, l)
    n, comps = vec
    if solved:
        comps[0] = -sum(c * comb(n, l) for l, c in enumerate(comps) if l)
    norm, zero = _normalize_components(tuple(comps))
    hl = (n + 1) // 2
    center = norm[hl] if n % 2 == 0 else None
    acc = sum(c * comb(n, l) for l, c in enumerate(norm))
    if acc == 0:
        FoldedKey(n, norm[:hl], center, zero)
    else:
        with pytest.raises(ValueError, match=rf"weighted sum is {acc}$"):
            FoldedKey(n, norm[:hl], center, zero)


def test_nudged_alternating_vector_rejected_at_n_300():
    n = 300
    alternating = [(-1) ** l for l in range(n + 1)]
    SolutionVector(n, tuple(alternating))
    for l in (0, 1, 2, 77, 149, 150, 151, 298, 299, 300):
        for nudge in (-1, 1):
            entries = list(alternating)
            entries[l] += nudge
            with pytest.raises(ValueError, match=rf"weighted sum is {nudge * comb(n, l)}$"):
                SolutionVector(n, tuple(entries))


# ---------------------------------------------------------------------------
# the always-present families
# ---------------------------------------------------------------------------

class TestIsTrivial:
    def test_basic_verdicts(self):
        assert SolutionVector(4, (0,) * 5).key.is_trivial
        assert SolutionVector(4, (1, -1, 1, -1, 1)).key.is_trivial
        assert SolutionVector(5, (1, 0, -2, 2, 0, -1)).key.is_trivial
        assert not SolutionVector(4, (0, 1, -2, 2, 0)).key.is_trivial

    def test_odd_alternating_folds_to_zero(self):
        v = SolutionVector(5, tuple(2 * (-1) ** l for l in range(6)))
        assert canonical_key(v).is_zero
        assert v.key.is_trivial

    def test_matches_structural_forms_on_small_grids(self):
        # a key-level trivial solution is exactly one equivalent to a
        # structurally trivial vector
        for n, j in ((3, 1), (4, 1), (5, 1), (4, 2)):
            trivial_keys = {
                canonical_key(v) for v in enumerate_trivial_solutions(n, j)
            }
            for v in enumerate_solutions(n, j):
                assert v.key.is_trivial == (canonical_key(v) in trivial_keys)

    def test_equivalent_but_not_literal(self):
        # neither antisymmetric nor alternating entry by entry, yet in the
        # alternating class
        v = SolutionVector(12, EQUIVALENT_TO_ALTERNATING_N12)
        assert v.key.is_trivial
        assert canonical_key(v) == alternating_key(12)


class TestTrivialCount:
    def test_closed_form_values(self):
        assert trivial_count(3, 1) == 9
        assert trivial_count(5, 1) == 27
        assert trivial_count(2, 2) == 9
        assert trivial_count(6, 2) == 129

    def test_matches_deduplicated_enumeration(self):
        for n in range(1, 7):
            for j in range(1, 4):
                got = list(enumerate_trivial_solutions(n, j))
                assert len(got) == trivial_count(n, j)
                assert len({v.entries for v in got}) == len(got)
                alphabet = GammaAlphabet(j)
                for v in got:
                    assert v.in_alphabet(alphabet)
                    assert v.key.is_trivial

    def test_level_zero_has_no_trivial_vectors(self):
        with pytest.raises(ValueError):
            list(enumerate_trivial_solutions(4, 0))

    def test_level_zero_has_no_trivial_count(self):
        # level 0 is {-1, 1}: at even n only the two alternating vectors are
        # trivial, not 2**(n/2) + 1, so the count refuses level 0
        for n in (2, 4):
            with pytest.raises(ValueError, match="level 0 has no zero entry"):
                trivial_count(n, 0)


# ---------------------------------------------------------------------------
# exact counting
# ---------------------------------------------------------------------------

class TestCountSolutions:
    def test_reference_values(self):
        assert count_solutions(3, 1) == 9
        assert count_solutions(5, 2) == 275
        assert count_solutions(7, 3) == 121921

    def test_single_position_pair(self):
        for j in range(1, 6):
            assert count_solutions(1, j) == (1 << j) + 1

    def test_matches_raw_product_scan(self):
        for n in range(1, 4):
            for j in range(0, 3):
                members = GammaAlphabet(j).members
                weights = [comb(n, l) for l in range(n + 1)]
                raw = sum(
                    1
                    for combo in itertools.product(members, repeat=n + 1)
                    if sum(x * w for x, w in zip(combo, weights)) == 0
                )
                assert count_solutions(n, j) == raw

    def test_level_zero_small_values(self):
        assert count_solutions(2, 0) == 2
        assert count_solutions(3, 0) == 4

    def test_matches_partial_sum_oracle(self):
        cells = [(n, j) for n in range(1, 13) for j in range(1, 4)]
        cells += [(n, 4) for n in range(1, 11)]
        cells += [(n, 0) for n in range(1, 17)]
        for n, j in cells:
            assert count_solutions(n, j) == oracle_count_solutions(n, j), (n, j)

    def test_raised_budget_block(self):
        for (n, j), want in RAISED_BUDGET_COUNTS.items():
            assert count_solutions(n, j) == want, (n, j)


class TestBoxCount:
    def test_small_values(self):
        assert _box_count([1, 2], [3, 2], 2) == 2  # (2, 0) and (0, 1)
        assert _box_count([], [], 0) == 1
        assert _box_count([], [], 1) == 0
        assert _box_count([0, 1], [4, 2], 1) == 4


@given(
    cells=st.lists(st.tuples(st.integers(0, 6), st.integers(1, 5)), max_size=5),
    target=st.integers(-3, 40),
)
@settings(max_examples=200, deadline=None)
def test_box_count_matches_product_scan(cells, target):
    weights = [w for w, _ in cells]
    sizes = [m for _, m in cells]
    want = sum(
        1
        for t in itertools.product(*(range(m) for m in sizes))
        if sum(x * w for x, w in zip(t, weights)) == target
    )
    assert _box_count(weights, sizes, target) == want


class TestEnumerateSolutions:
    def test_small_exact_set(self):
        got = {v.entries for v in enumerate_solutions(2, 1)}
        assert got == {(0, 0, 0), (1, -1, 1), (-1, 1, -1), (1, 0, -1), (-1, 0, 1)}

    def test_lexicographic_order(self):
        entries = [v.entries for v in enumerate_solutions(4, 1)]
        assert entries == sorted(entries)

    def test_counts_match(self):
        assert sum(1 for _ in enumerate_solutions(4, 2)) == count_solutions(4, 2) == 103

    @pytest.mark.parametrize("n,j", [(2, 1), (4, 1), (4, 2), (5, 1)])
    def test_matches_product_filter(self, n, j):
        # independent route: every vector over the alphabet, in product
        # (lexicographic) order, kept when its math.comb sum vanishes
        row = [comb(n, l) for l in range(n + 1)]
        want = [
            e for e in itertools.product(GammaAlphabet(j).members, repeat=n + 1)
            if sum(x * w for x, w in zip(e, row)) == 0
        ]
        assert [v.entries for v in enumerate_solutions(n, j)] == want

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceeded):
            list(enumerate_solutions(10, 3, budget=10))
        with pytest.raises(BudgetExceeded):
            list(enumerate_solutions(4, 2, budget=10))
        # 9**11 is over the default 10**7 cap on the direct metric
        with pytest.raises(BudgetExceeded, match="direct metric"):
            list(enumerate_solutions(10, 3))


def per_leaf_enumerate_classes(n: int, j: int) -> dict[FoldedKey, SolutionVector]:
    """The class sweep with a filter loop at every slot and leaf, and each
    key rebuilt by canonical_key: the sweep enumerate_classes replaced,
    kept as its oracle."""
    _check_class_cell(n, j, None)
    hl = (n + 1) // 2
    row = _binomial_half_row(n)
    weights = row[:hl]
    even = n % 2 == 0
    center_w = row[-1] if even else 0
    fold_b = 1 << j
    center_b = 1 << (j - 1)
    max_tail = [0] * (hl + 1)
    for i in range(hl - 1, 0, -1):
        max_tail[i] = max_tail[i + 1] + fold_b * weights[i]
    slack = fold_b * weights[0] + (center_b * center_w if even else 0)
    found: dict[tuple, tuple[tuple[int, ...], int | None]] = {}

    def emit(half, center):
        comps = half if center is None else half + (center,)
        norm, zero = _normalize_components(comps)
        key = ("Z",) if zero else norm
        if key not in found:
            found[key] = (half, center)

    def walk(idx, acc, chosen):
        if idx == hl:
            if even:
                for c in range(-center_b, center_b + 1):
                    s0 = -(acc + c * center_w)
                    if -fold_b <= s0 <= fold_b:
                        emit((s0,) + chosen, c)
            else:
                s0 = -acc
                if -fold_b <= s0 <= fold_b:
                    emit((s0,) + chosen, None)
            return
        w = weights[idx]
        lim = max_tail[idx + 1] + slack
        for s in range(-fold_b, fold_b + 1):
            a2 = acc + s * w
            if -lim <= a2 <= lim:
                walk(idx + 1, a2, chosen + (s,))

    walk(1, 0, ())
    out = {}
    for half, center in found.values():
        entries = [0] * (n + 1)
        for l, s in enumerate(half):
            entries[l] = (s + 1) // 2
            entries[n - l] = s // 2
        if center is not None:
            entries[n // 2] = center
        rep = SolutionVector(n, tuple(entries))
        out[canonical_key(rep)] = rep
    return out


class TestClasses:
    def test_reference_counts(self):
        assert count_classes(4, 2) == 5
        assert count_classes(8, 1) == 7
        assert count_classes(8, 3) == 389

    def test_explicit_class_list(self):
        reps = (
            (0, 0, 0, 0, 0),
            (0, 1, -2, 2, 0),
            (2, -2, 1, 0, 0),
            (2, 1, -1, 0, 0),
            (2, -1, 0, 0, 2),
        )
        want = {canonical_key(SolutionVector(4, r)) for r in reps}
        got = enumerate_classes(4, 2)
        assert set(got) == want

    def test_representatives_are_realizable(self):
        for n, j in ((3, 1), (4, 2), (5, 2), (6, 1)):
            alphabet = GammaAlphabet(j)
            for key, rep in enumerate_classes(n, j).items():
                assert rep.n == n
                assert rep.in_alphabet(alphabet)
                assert canonical_key(rep) == key

    def test_classes_cover_exactly_the_solutions(self):
        for n, j in ((3, 1), (4, 2), (5, 1), (6, 1)):
            keys = {canonical_key(v) for v in enumerate_solutions(n, j)}
            assert keys == set(enumerate_classes(n, j))

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceeded):
            enumerate_classes(10, 3, budget=10)
        with pytest.raises(BudgetExceeded):
            count_classes(10, 3, budget=10)

    def test_count_matches_enumeration_off_the_pinned_grid(self):
        cells = [(n, 1) for n in range(11, 14)] + [(11, 2), (12, 2)]
        cells += [(n, j) for n in (1, 2) for j in range(1, 8)]
        for n, j in cells:
            assert count_classes(n, j) == len(enumerate_classes(n, j)), (n, j)

    def test_sweep_equals_the_per_leaf_sweep(self):
        # same keys in the same order, same representatives, for every cell
        # with n <= 10 and j <= 4 that the default omega budget admits
        cells = 0
        for n in range(1, 11):
            for j in range(1, 5):
                if class_enumeration_metric(n, j) > DEFAULT_OMEGA_BUDGET:
                    continue
                got = enumerate_classes(n, j)
                want = per_leaf_enumerate_classes(n, j)
                assert list(got.items()) == list(want.items()), (n, j)
                assert len(got) == count_classes(n, j), (n, j)
                cells += 1
        assert cells == 39  # all but (10, 4)

    def test_level_zero_rejected(self):
        # {-1, 1} has no zero: at n = 6 the only solutions are the two
        # alternating vectors, which the folded sweep cannot see
        with pytest.raises(ValueError, match="j >= 1"):
            count_classes(6, 0)
        with pytest.raises(ValueError, match="j >= 1"):
            enumerate_classes(6, 0)


def per_pattern_recount(n: int, j: int) -> int:
    """The sign-averaged recount as one full partial-sum DP per sign pattern,
    in index order: the loop gamma_via_integral's shared-prefix walk
    replaced, kept as its oracle."""
    bound = 1 << (j - 1)
    weights = [comb(n, i) for i in range(n + 1)]
    total = 0
    for pattern in range(1 << n):
        signed = [weights[0]]
        for i in range(n):
            w = weights[i + 1]
            signed.append(-w if (pattern >> i) & 1 else w)
        suffix = [0] * (n + 2)
        for i in range(n, -1, -1):
            suffix[i] = suffix[i + 1] + abs(signed[i]) * bound
        cur = {0: 1}
        for i in range(n + 1):
            lim = suffix[i + 1]
            step = signed[i]
            nxt: dict[int, int] = defaultdict(int)
            for s, c in cur.items():
                if -lim <= s <= lim:
                    nxt[s] += c
                for x in range(1, bound + 1):
                    s2 = s + x * step
                    if -lim <= s2 <= lim:
                        nxt[s2] += 2 * c
            cur = nxt
        total += cur.get(0, 0)
    q, rem = divmod(2 * total, 1 << (n + 1))
    assert rem == 0
    return q


class TestIntegralRecount:
    def test_reference_values(self):
        assert gamma_via_integral(1, 1) == 3
        assert gamma_via_integral(2, 1) == 5
        assert gamma_via_integral(4, 2) == 103

    def test_agrees_with_forward_count(self):
        for n in range(1, 11):
            for j in range(1, 4):
                assert gamma_via_integral(n, j) == count_solutions(n, j), (n, j)

    def test_walk_equals_the_per_pattern_loop(self):
        for n in range(1, 8):
            for j in range(1, 4):
                assert gamma_via_integral(n, j) == per_pattern_recount(n, j), (n, j)

    def test_uses_no_kernel_of_the_forward_count(self, monkeypatch):
        # the independent route: a fault in the half row or the box count
        # must not move it together with count_solutions
        def refuse(*args):
            raise AssertionError("the recount must not call this")

        for name in ("_binomial_half_row", "_binomial_row", "_box_count", "count_solutions"):
            monkeypatch.setattr(diophantine, name, refuse)
        assert gamma_via_integral(6, 2) == 685

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            gamma_via_integral(4, 0)

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceeded):
            gamma_via_integral(12, 4, budget=10)


class TestMetrics:
    def test_formulas(self):
        assert direct_enumeration_metric(4, 2) == 5 ** 5
        assert direct_enumeration_metric(3, 0) == 2 ** 4
        assert class_enumeration_metric(4, 2) == 9 ** 2 * 5
        assert class_enumeration_metric(5, 2) == 9 ** 3
        assert gamma_integral_metric(4, 2) == 3 ** 5
