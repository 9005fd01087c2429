"""Independent reference arithmetic for the correctness gate.

Nothing here imports symsum: sign parities come from ``math.comb(l, k) % 2``,
binomial rows from Pascal's rule, and perturbations from their own truth
tables, so a fault in the library cannot also hide in its check.
"""

from __future__ import annotations

from math import comb


def signs(degrees, length: int) -> list[int]:
    """(-1) to the sum of C(l, k) over the degrees, for l < length."""
    return [1 - 2 * (sum(comb(l, k) % 2 for k in degrees) % 2) for l in range(length)]


def anf_text(monomials) -> str:
    return " + ".join("*".join(f"x{i}" for i in mono) for mono in monomials)


def truth_table(monomials, j: int) -> list[int]:
    """Values of the XOR of the monomials; variable x_i is bit i - 1."""
    return [
        sum(all(x >> (i - 1) & 1 for i in mono) for mono in monomials) % 2
        for x in range(1 << j)
    ]


def weight_profile(table: list[int], j: int) -> list[int]:
    """profile[m]: sum of (-1)^f over the inputs of weight m."""
    out = [0] * (j + 1)
    for x, v in enumerate(table):
        out[bin(x).count("1")] += 1 - 2 * v
    return out


def pascal_rows(n_max: int):
    """Binomial rows 0..n_max by Pascal's rule."""
    row = [1]
    yield row
    for _ in range(n_max):
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
        yield row


def delta(degrees, profile: list[int], length: int) -> list[int]:
    """The perturbation's weights along the binomial row, indices 0..length-1:
    delta[l] = sum over m of profile[m] * sign(l + m)."""
    sg = signs(degrees, length + len(profile))
    return [sum(c * sg[l + m] for m, c in enumerate(profile)) for l in range(length)]


def sign_sums(degrees, profile: list[int], n_max: int) -> dict[int, int]:
    """Sign sums of the degree set on n_total = j+1..n_max variables, perturbed
    on the first j by a function with this weight profile (j = len(profile) - 1;
    the unperturbed case is profile [1]), by n_total."""
    j = len(profile) - 1
    dl = delta(degrees, profile, n_max - j + 1)
    return {
        inner + j: sum(d * c for d, c in zip(dl, row))
        for inner, row in enumerate(pascal_rows(n_max - j))
        if inner >= 1
    }


def brute_force_sign_sum(degrees, table: list[int], j: int, n_total: int) -> int:
    """Sum of (-1)^F over all 2**n_total inputs, F = sigma_degrees(x) xor f(x_1..x_j)."""
    sym = signs(degrees, n_total + 1)
    mask = (1 << j) - 1
    total = 0
    for x in range(1 << n_total):
        s = sym[bin(x).count("1")]
        total += -s if table[x & mask] else s
    return total
