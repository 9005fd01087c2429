"""Shared oracles and generators for the test suite.

The brute-force oracle here deliberately avoids every shortcut the library
uses: weights come from vectorized popcounts over all assignments, the
symmetric part is evaluated through exact binomial coefficients reduced mod
2 (math.comb, not the bit-subset rule), and perturbations are applied as
actual truth tables.  Agreement with the library is therefore evidence, not
circularity.

The library's other independent routes live here too, since no production
code runs them: the truth-table sign sum, every small function, the inverse
ANF transform, the weight-layer decomposition of a perturbed sum, and the
full and trivial enumerations of the binomial equation's solutions.
"""

from __future__ import annotations

import itertools
import json
import random
from math import comb

import numpy as np
import pytest

from symsum import (
    AnfExpression,
    BalanceVerdict,
    BooleanFunction,
    FoldedKey,
    GammaAlphabet,
    SolutionVector,
    SymmetricSpec,
    WeightProfile,
    binom_parity,
    exp_sum_symmetric,
)
from symsum.diophantine import _binomial_row


def popcounts(width: int) -> np.ndarray:
    """Hamming weight of every integer in [0, 2**width)."""
    x = np.arange(1 << width, dtype=np.int64)
    acc = np.zeros_like(x)
    for i in range(width):
        acc += (x >> i) & 1
    return acc


def brute_force_sign_sum(degrees, n_total: int, f: BooleanFunction | None) -> int:
    """Sum of (-1)**(sigma(x) xor F(x)) over all assignments, by truth table."""
    if n_total > 22:
        raise ValueError("brute force capped at 22 variables")
    w = popcounts(n_total)
    parity = np.array(
        [sum(comb(int(m), k) for k in degrees) % 2 for m in range(n_total + 1)],
        dtype=np.int64,
    )
    bits = parity[w]
    if f is not None:
        table = np.array(f.bits(), dtype=np.int64)
        bits = bits ^ table[np.arange(1 << n_total, dtype=np.int64) & (f.size - 1)]
    return int(np.sum(1 - 2 * bits))


# ---------------------------------------------------------------------------
# truth tables
# ---------------------------------------------------------------------------

def function_to_anf(f: BooleanFunction) -> AnfExpression:
    """Recover the canonical XOR-of-monomials form from a truth table."""
    coeffs = list(f.bits())
    for i in range(f.j):
        bit = 1 << i
        for x in range(f.size):
            if x & bit:
                coeffs[x] ^= coeffs[x ^ bit]
    terms = frozenset(
        frozenset(i + 1 for i in range(f.j) if x & (1 << i))
        for x in range(f.size)
        if coeffs[x]
    )
    return AnfExpression(terms)


def exp_sum_bruteforce(f: BooleanFunction) -> int:
    """Sign sum of F over all inputs, by direct enumeration."""
    ones = f.table.bit_count()
    return f.size - 2 * ones


def all_functions(j: int):
    """Yield every Boolean function on j variables (use only for tiny j)."""
    if j > 4:
        raise ValueError("refusing to enumerate more than 2**16 functions")
    for table in range(1 << (1 << j)):
        yield BooleanFunction(j, table)


# ---------------------------------------------------------------------------
# the weight-layer decomposition of a perturbed sum
# ---------------------------------------------------------------------------

def exp_sum_perturbation_decomposed(spec: SymmetricSpec, profile: WeightProfile,
                                     inner_n: int) -> int:
    """Sign sum via the weight-layer decomposition; inner_n >= 1 counts the
    variables beyond the perturbed block.

    Each weight layer m of the perturbation contributes profile[m] times the
    sign sum on the inner variables of the XOR of shifted degree sets
    {k - i : C(m, i) odd, k in degrees}; degree drops below zero vanish and
    degree zero flips the sign.  Must agree with exp_sum_profile.
    """
    total = 0
    for m, c in enumerate(profile.values):
        if c == 0:
            continue
        flips = 0
        degs: set[int] = set()
        for i in range(m + 1):
            if not binom_parity(m, i):
                continue
            for k in spec.degrees:
                d = k - i
                if d < 0:
                    continue
                if d == 0:
                    flips ^= 1
                elif d in degs:
                    degs.remove(d)
                else:
                    degs.add(d)
        if degs:
            inner = exp_sum_symmetric(inner_n, SymmetricSpec(tuple(sorted(degs))))
            total += c * (-inner if flips else inner)
        else:
            total += c * (-1 if flips else 1) * (1 << inner_n)
    return total


# ---------------------------------------------------------------------------
# solutions of the binomial equation, one by one
# ---------------------------------------------------------------------------

def _check_trivial_level(j: int) -> None:
    """Level 0 is {-1, 1}, with no zero for the centre that an antisymmetric
    vector needs at even n, so the trivial families start at level 1."""
    if j < 1:
        raise ValueError("need j >= 1: level 0 has no zero entry, so the trivial "
                         "families and their count are defined for j >= 1")


def trivial_count(n: int, j: int) -> int:
    """Closed-form count of trivial solutions over the level-j alphabet."""
    if n < 1:
        raise ValueError("need n >= 1")
    _check_trivial_level(j)
    size = (1 << j) + 1
    if n % 2 == 1:
        return size ** ((n + 1) // 2)
    return size ** (n // 2) + (1 << j)


def enumerate_trivial_solutions(n: int, j: int):
    """All trivial solutions over the level-j alphabet, each yielded once.

    For even n the zero vector is both antisymmetric and alternating, so the
    alternating sweep skips m = 0.
    """
    _check_trivial_level(j)
    members = GammaAlphabet(j).members
    if n % 2 == 1:
        for combo in itertools.product(members, repeat=(n + 1) // 2):
            yield SolutionVector(n, combo + tuple(-c for c in reversed(combo)))
        return
    for combo in itertools.product(members, repeat=n // 2):
        yield SolutionVector(n, combo + (0,) + tuple(-c for c in reversed(combo)))
    for m in members:
        if m:
            yield SolutionVector(n, tuple((-1) ** l * m for l in range(n + 1)))


def enumerate_solutions(n: int, j: int):
    """Yield every solution over the level-j alphabet in lexicographic order.

    A depth-first sweep over the positions, pruned wherever the remaining
    positions can no longer bring the partial sum back to zero.
    """
    members = GammaAlphabet(j).members
    weights = _binomial_row(n)
    big = max(abs(x) for x in members)
    suffix = [0] * (n + 2)
    for l in range(n, -1, -1):
        suffix[l] = suffix[l + 1] + big * weights[l]

    def walk(depth: int, acc: int, prefix: tuple[int, ...]):
        if depth == n + 1:
            if acc == 0:
                yield SolutionVector(n, prefix)
            return
        lim = suffix[depth + 1]
        for x in members:
            a2 = acc + x * weights[depth]
            if -lim <= a2 <= lim:
                yield from walk(depth + 1, a2, prefix + (x,))

    yield from walk(0, 0, ())


def key_record(key: FoldedKey) -> dict:
    """A class key as the verdict lines and the ``omega --classes-out`` lines
    hold it: their key must equal ``json.dumps`` of this record with sorted
    keys."""
    return {"n": key.n, "half": list(key.half), "center": key.center, "zero": key.is_zero}


def verdict_record(verdict: BalanceVerdict) -> dict:
    """A verdict's fields but j, as ``search --out`` and ``classify`` write
    them: ``search_cli._verdict_line`` must equal ``json.dumps`` of this
    record with sorted keys."""
    return {
        "n_total": verdict.n_total,
        "degrees": list(verdict.degrees),
        "perturbation": verdict.perturbation,
        "S": verdict.sign_sum,
        "status": verdict.status.value,
        "witness": None if verdict.witness is None else list(verdict.witness),
        "key": None if verdict.key is None else key_record(verdict.key),
    }


def read_findings(path) -> list[dict]:
    """The finding records of a ``search --out`` file, without its header."""
    return [json.loads(line) for line in path.read_text().splitlines()[1:]]


def function_from_profile(profile: WeightProfile) -> BooleanFunction:
    """Some truth table realizing the given weight sums.

    Within each weight class of size C(j, m) exactly (C(j, m) - C_m) / 2
    inputs are sent to 1; the profile invariants guarantee that count is a
    whole number in range.
    """
    j = profile.j
    flips_left = [(comb(j, m) - profile.values[m]) // 2 for m in range(j + 1)]
    table = 0
    for x in range(1 << j):
        m = bin(x).count("1")
        if flips_left[m] > 0:
            flips_left[m] -= 1
            table |= 1 << x
    assert all(v == 0 for v in flips_left)
    return BooleanFunction(j, table)


def random_profile(rng: random.Random, j: int) -> WeightProfile:
    values = tuple(comb(j, m) - 2 * rng.randint(0, comb(j, m)) for m in range(j + 1))
    return WeightProfile(j, values)


def random_balanced_profile(rng: random.Random, j: int) -> WeightProfile:
    if j < 1:
        raise ValueError("a single constant summand cannot cancel")
    while True:
        p = random_profile(rng, j)
        if p.total == 0:
            return p


def random_unbalanced_profile(rng: random.Random, j: int) -> WeightProfile:
    while True:
        p = random_profile(rng, j)
        if p.total != 0:
            return p


def random_spec(rng: random.Random, k_max: int) -> SymmetricSpec:
    while True:
        degrees = tuple(k for k in range(1, k_max + 1) if rng.random() < 0.3)
        if degrees:
            return SymmetricSpec(degrees)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0x5EED)
