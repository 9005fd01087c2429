"""Shared oracles and generators for the test suite.

The brute-force oracle here deliberately avoids every shortcut the library
uses: weights come from vectorized popcounts over all assignments, the
symmetric part is evaluated through exact binomial coefficients reduced mod
2 (math.comb, not the bit-subset rule), and perturbations are applied as
actual truth tables.  Agreement with the library is therefore evidence, not
circularity.
"""

from __future__ import annotations

import json
import random
from math import comb

import numpy as np
import pytest

from symsum import BooleanFunction, SymmetricSpec, WeightProfile


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
