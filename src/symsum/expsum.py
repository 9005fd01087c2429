"""Exact sign sums of symmetric Boolean functions and their perturbations.

For a set of elementary degrees K = [k1 < ... < ks] acting on n variables,
the sign sum equals sum over l = 0..n of sign(l) * C(n, l), where sign(l) is
(-1) raised to C(l, k1) + ... + C(l, ks).  The sign pattern repeats with
period 2**r where r is one more than the bit length exponent of ks, so a
perturbation F on the first j variables only contributes through a periodic
integer vector delta of that period:

    sign_sum(K on n+j variables, perturbed by F)
        = sum over l = 0..n of delta[l mod 2**r] * C(n, l).

Every such sum goes through ``periodic_binomial_sums``, which folds the
binomial row into its 2**r residue-class sums and walks n by Pascal's rule.
All arithmetic is exact (Python integers).
"""

from __future__ import annotations

from operator import add, index, mul

from .boolean_core import Record, WeightProfile
from .diophantine import _binomial_half_row


def binom_parity(l: int, k: int) -> int:
    """C(l, k) mod 2: one exactly when the bits of k are a subset of l's."""
    if l < 0 or k < 0:
        return 0
    return 1 if k & ~l == 0 else 0


def _subset_xor(word: int, n: int) -> int:
    """Bit t of the result, t <= n, is the XOR of ``word``'s bits at the
    bit-subsets of t: the GF(2) zeta transform, its own inverse on n + 1 bits.
    By Lucas' theorem (C(t, k) is odd exactly when k is a bit-subset of t) it
    maps a degree mask to its sign word.  For each power of two s, highest
    first, bit t - s is XORed onto every bit t that holds s."""
    s = 1 << n.bit_length() >> 1
    clear = (1 << s) - 1
    while s:
        word ^= (word & clear) << s
        s >>= 1
        clear ^= clear << s
    return word & ((2 << n) - 1)


def sign_row(degrees, n: int) -> list[int]:
    """The Lucas signs s_t = (-1) to the sum of C(t, k) over the degrees, for
    t = 0..n."""
    word = _subset_xor(sum(1 << k for k in degrees), n)
    return [-1 if bit == "1" else 1 for bit in f"{word:0{n + 1}b}"[::-1]]


class SymmetricSpec(Record):
    """A strictly increasing tuple of elementary symmetric degrees."""

    _fields = ("degrees",)

    def __init__(self, degrees: tuple[int, ...]) -> None:
        degs = tuple(map(index, degrees))
        if not degs:
            raise ValueError("at least one degree is required")
        if any(k < 1 for k in degs):
            raise ValueError("degrees must be positive")
        if any(a >= b for a, b in zip(degs, degs[1:])):
            raise ValueError("degrees must be strictly increasing")
        super().__init__(degs)

    @classmethod
    def of(cls, *degrees: int) -> "SymmetricSpec":
        return cls(tuple(degrees))

    @property
    def top_degree(self) -> int:
        return self.degrees[-1]

    @property
    def r(self) -> int:
        """Smallest r with 2**r strictly above the top degree."""
        return self.top_degree.bit_length()

    @property
    def period(self) -> int:
        """Period 2**r of the sign pattern."""
        return 1 << self.r

    @property
    def sign_row(self) -> tuple[int, ...]:
        """One full period of the sign pattern, index 0 first."""
        return tuple(sign_row(self.degrees, self.period - 1))

    def __str__(self) -> str:
        return "[" + ",".join(str(k) for k in self.degrees) + "]"


def _residue_sums(n: int, m: int) -> list[int]:
    """sum over l = a mod m of C(n, l), for a = 0..m-1: the half row folded,
    each entry added at l and at n - l."""
    sums = [0] * m
    for l, c in enumerate(_binomial_half_row(n)):
        sums[l % m] += c
        if 2 * l != n:
            sums[(n - l) % m] += c
    return sums


def periodic_binomial_sums(weights, n_lo: int, n_hi: int) -> list[int]:
    """sum over l = 0..n of weights[l mod P] * C(n, l), for n = n_lo..n_hi.

    P = len(weights).  The residue-class sums A_n[a] = sum over l = a mod P
    of C(n, l) obey Pascal's rule A_(n+1)[a] = A_n[a] + A_n[a - 1 mod P], so
    row n_lo is folded once (``_residue_sums``) and every further n costs P
    additions.  The list is empty when n_hi < n_lo.
    """
    if not weights:
        raise ValueError("need at least one weight")
    if n_lo < 0:
        raise ValueError("variable count must be nonnegative")
    if n_hi < n_lo:
        return []
    acc = _residue_sums(n_lo, len(weights))
    out = [sum(map(mul, weights, acc))]
    for _ in range(n_lo, n_hi):
        acc = list(map(add, acc, acc[-1:] + acc[:-1]))
        out.append(sum(map(mul, weights, acc)))
    return out


def exp_sum_symmetric(n: int, spec: SymmetricSpec) -> int:
    """Sign sum of the degree set on n variables, n >= 1."""
    if n < 1:
        raise ValueError("need at least one variable")
    return periodic_binomial_sums(spec.sign_row, n, n)[0]


class DeltaVector(Record):
    """Periodic weights that a perturbation induces on the binomial row.

    ``values[a]`` is sum over m of profile[m] * sign(a + m); the vector is
    2**r-periodic.  For j >= 1 every entry is even with absolute value at
    most 2**j; for j = 0 entries are odd.
    """

    _fields = ("j", "r", "values")

    def __init__(self, j: int, r: int, values: tuple[int, ...]) -> None:
        vals = tuple(map(index, values))
        if j < 0:
            raise ValueError("variable count must be nonnegative")
        if len(vals) != 1 << r:
            raise ValueError(f"expected {1 << r} entries, got {len(vals)}")
        bound = 1 << j
        for a, v in enumerate(vals):
            if abs(v) > bound:
                raise ValueError(f"entry {a} exceeds bound {bound}")
            if j >= 1 and v % 2:
                raise ValueError(f"entry {a} must be even when j >= 1")
            if j == 0 and v % 2 == 0:
                raise ValueError(f"entry {a} must be odd when j = 0")
        super().__init__(j, r, vals)

    @property
    def period(self) -> int:
        return 1 << self.r


def delta_row(signs, values, length: int) -> list[int]:
    """sum over m of values[m] * signs[l + m] for l < length: the weights that
    the perturbation with weight profile ``values`` lays on the binomial row.
    ``signs`` is a ``sign_row`` of length + j - 1 or more weights (j =
    len(values) - 1); the entries past that are not read.

    This is the one place where a profile meets the Lucas signs.
    """
    row = [0] * length
    for m, c in enumerate(values):
        row = [x + c * s for x, s in zip(row, signs[m:])]
    return row


def delta_vector(spec: SymmetricSpec, profile: WeightProfile) -> DeltaVector:
    """Periodic weight vector of a perturbation given by its weight profile."""
    signs = sign_row(spec.degrees, spec.period + profile.j - 1)
    return DeltaVector(profile.j, spec.r, delta_row(signs, profile.values, spec.period))


def exp_sum_profile(spec: SymmetricSpec, profile: WeightProfile, inner_n: int) -> int:
    """Sign sum with the perturbation folded in; inner_n counts the variables
    beyond the perturbed block (inner_n >= 0)."""
    if inner_n < 0:
        raise ValueError("inner variable count must be nonnegative")
    return periodic_binomial_sums(delta_vector(spec, profile).values, inner_n, inner_n)[0]


def _shift_degrees(k: int, t: int, offset: int) -> SymmetricSpec:
    """Degrees {k + offset - i : C(t, i) odd}, all required positive."""
    degs = sorted(k + offset - i for i in range(t + 1) if binom_parity(t, i))
    if degs and degs[0] < 1:
        raise ValueError("shifted degree set leaves the positive range")
    return SymmetricSpec(tuple(degs))


def shifted_identity_gap(k: int, t: int, profile: WeightProfile, n: int) -> int:
    """Difference between the two sides of the degree-shift identity.

    Left side: the perturbed sign sum for degrees {2k - i : C(t, i) odd} on
    n inner variables.  Right side: the same for degrees {2k + 1 - i} on
    n + 1 inner variables.  The gap vanishes for every n >= 1 exactly when
    the perturbation is balanced; at n = 0 the gap is minus the sign sum of
    the perturbation itself.
    """
    if k < 1 or t < 0:
        raise ValueError("need k >= 1 and t >= 0")
    if 2 * k - t < 1:
        raise ValueError("shift width t too large for k")
    if n < 0:
        raise ValueError("inner variable count must be nonnegative")
    low = _shift_degrees(2 * k, t, 0)
    high = _shift_degrees(2 * k, t, 1)
    left = exp_sum_profile(low, profile, n)
    right = exp_sum_profile(high, profile, n + 1)
    return left - right
