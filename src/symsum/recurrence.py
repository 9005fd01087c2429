"""Linear recurrences with constant coefficients satisfied by the sign sums,
their minimal characteristic polynomials, and exact asymptotic data.

For a top degree below 2**r the sign-sum sequence obeys a universal order
2**r - 1 recurrence whose characteristic polynomial factors as
(X-2) * product over t = 1..r-1 of ((X-1)^(2^t) + 1).  For a single degree k
a smaller polynomial suffices: with kbar = 2*floor(k/2) + 1 written as
1 + 2^a1 + ... + 2^as, it is (X-2)^eps(k) times the product of
((X-1)^(2^al) + 1), where eps is zero exactly at powers of two.

Closed-form coefficients live in the ring generated by a primitive 2**r-th
root of unity xi = exp(i*pi / 2**(r-1)); CyclotomicValue represents exact
elements of that ring over the basis xi^0 .. xi^(2^(r-1) - 1).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, gcd

from .boolean_core import Record, WeightProfile, _bind
from .expsum import SymmetricSpec, delta_vector, periodic_binomial_sums


# ---------------------------------------------------------------------------
# integer polynomials, constant coefficient first
# ---------------------------------------------------------------------------

def _poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for k, bk in enumerate(b):
                out[i + k] += ai * bk
    return tuple(out)


def _poly_divmod(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Divide by a monic polynomial; stays in integers."""
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(num)
    deg_d = len(den) - 1
    quot = [0] * max(1, len(num) - deg_d)
    for top in range(len(rem) - 1, deg_d - 1, -1):
        c = rem[top]
        if c == 0:
            continue
        quot[top - deg_d] = c
        for k, dk in enumerate(den):
            rem[top - deg_d + k] -= c * dk
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return tuple(quot), tuple(rem)


class RecurrencePoly(Record):
    """A monic characteristic polynomial, constant coefficient first.

    A sequence x satisfies it when sum over d of coeffs[d] * x[n - degree + d]
    vanishes for every admissible n.  Degree zero (coeffs == (1,)) asserts the
    sequence itself is identically zero.
    """

    _fields = ("coeffs", "label")

    def __init__(self, coeffs: tuple[int, ...], label: str | None = None) -> None:
        coeffs = tuple(int(c) for c in coeffs)
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        if coeffs[-1] != 1:
            raise ValueError("polynomial must be monic")
        _bind(self, "coeffs", coeffs)
        _bind(self, "label", label)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def mul(self, other: "RecurrencePoly") -> "RecurrencePoly":
        label = None
        if self.label and other.label:
            label = f"{self.label} * {other.label}"
        return RecurrencePoly(_poly_mul(self.coeffs, other.coeffs), label)

    def divides(self, other: "RecurrencePoly") -> bool:
        if self.degree > other.degree:
            return False
        _, rem = _poly_divmod(other.coeffs, self.coeffs)
        return rem == (0,)

    def expanded(self) -> str:
        if self.degree == 0:
            return "1"
        parts: list[str] = []
        for d in range(self.degree, -1, -1):
            c = self.coeffs[d]
            if c == 0:
                continue
            mag = abs(c)
            if d == 0:
                body = str(mag)
            else:
                x = "X" if d == 1 else f"X^{d}"
                body = x if mag == 1 else f"{mag}*{x}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.label if self.label else self.expanded()


def _binomial_shift_factor(width: int) -> RecurrencePoly:
    """((X-1)^width + 1) for an even width."""
    coeffs = [(-1) ** i * comb(width, i) for i in range(width + 1)]
    coeffs[0] += 1
    return RecurrencePoly(tuple(coeffs), f"((X-1)^{width}+1)")


def master_recurrence(r: int) -> RecurrencePoly:
    """Characteristic polynomial of the universal recurrence for period 2**r.

    Equals ((X-1)^(2**r) - 1) / X, of degree 2**r - 1; every degree set with
    top degree below 2**r yields a sign-sum sequence satisfying it.
    """
    if r < 1:
        raise ValueError("period exponent must be at least 1")
    size = 1 << r
    coeffs = tuple(comb(size, l + 1) * (-1) ** (size - 1 - l) for l in range(size))
    label = "(X-2)^1"
    for t in range(1, r):
        label += f" * ((X-1)^{1 << t}+1)"
    return RecurrencePoly(coeffs, label)


def epsilon(n: int) -> int:
    """Zero when n is a power of two, else one."""
    if n < 1:
        raise ValueError("argument must be positive")
    return 0 if n & (n - 1) == 0 else 1


def min_char_factors(k: int) -> list[RecurrencePoly]:
    """Irreducible (over Q) factors of the minimal polynomial for degree k."""
    if k < 1:
        raise ValueError("degree must be positive")
    factors: list[RecurrencePoly] = []
    if epsilon(k):
        factors.append(RecurrencePoly((-2, 1), "(X-2)^1"))
    kbar = 2 * (k // 2) + 1
    for a in range(1, kbar.bit_length()):
        if (kbar >> a) & 1:
            factors.append(_binomial_shift_factor(1 << a))
    return factors


def min_char_poly(k: int) -> RecurrencePoly:
    """Minimal characteristic polynomial of the degree-k sign-sum sequence.

    Its degree is 2*floor(k/2) + epsilon(k).  For k = 1 the sequence is
    identically zero from the first index, so the polynomial degenerates to
    the constant 1.
    """
    factors = min_char_factors(k)
    if not factors:
        return RecurrencePoly((1,), "1")
    poly = factors[0]
    for f in factors[1:]:
        poly = poly.mul(f)
    return poly


def first_violation(seq, poly: RecurrencePoly) -> int | None:
    """Smallest index where the recurrence fails, or None if it holds.

    ``seq[i]`` is the sequence value at index ``i + 1``; every index with a
    full history inside the sequence is checked.
    """
    vals = list(seq)
    deg = poly.degree
    for lo in range(len(vals) - deg):
        acc = 0
        for d, c in enumerate(poly.coeffs):
            acc += c * vals[lo + d]
        if acc != 0:
            return lo + deg + 1
    return None


def satisfies(seq, poly: RecurrencePoly) -> bool:
    """Whether the sequence satisfies the recurrence at every checked index."""
    return first_violation(seq, poly) is None


def extend(seed, poly: RecurrencePoly, count: int) -> list[int]:
    """Continue a sequence by the recurrence; returns seed plus count values."""
    vals = list(seed)
    deg = poly.degree
    if len(vals) < deg:
        raise ValueError(f"seed must hold at least {deg} values")
    for _ in range(count):
        if deg == 0:
            vals.append(0)
            continue
        acc = 0
        for d in range(deg):
            acc += poly.coeffs[d] * vals[len(vals) - deg + d]
        vals.append(-acc)
    return vals


def minimality_certificate(k: int, horizon: int) -> bool:
    """Check the minimal polynomial is satisfied and no proper factor product is.

    Compares against the first ``horizon`` sign-sum values (indices 1..horizon);
    requires horizon >= 2 * degree + 4 so each dropped-factor candidate is
    rejected on solid data.
    """
    poly = min_char_poly(k)
    if horizon < 2 * poly.degree + 4:
        raise ValueError(f"horizon must be at least {2 * poly.degree + 4}")
    spec = SymmetricSpec((k,))
    seq = periodic_binomial_sums(spec.sign_row, 1, horizon)
    if not satisfies(seq, poly):
        return False
    factors = min_char_factors(k)
    for size in range(len(factors)):
        for subset in itertools.combinations(range(len(factors)), size):
            cand = RecurrencePoly((1,), "1")
            for i in subset:
                cand = cand.mul(factors[i])
            if satisfies(seq, cand):
                return False
    return True


# ---------------------------------------------------------------------------
# exact cyclotomic coefficients
# ---------------------------------------------------------------------------

class CyclotomicValue(Record):
    """Element of Z[xi, 1/2] with xi = exp(i*pi / 2**(r-1)).

    Stored as integer coordinates over the power basis xi^0..xi^(2^(r-1)-1)
    (xi to the 2^(r-1) equals -1) divided by a positive denominator; reduced
    on construction.
    """

    _fields = ("r", "coeffs", "denom")

    def __init__(self, r: int, coeffs: tuple[int, ...], denom: int = 1) -> None:
        if r < 1:
            raise ValueError("root order exponent must be at least 1")
        half = 1 << (r - 1)
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != half:
            raise ValueError(f"expected {half} coordinates, got {len(coeffs)}")
        den = int(denom)
        if den == 0:
            raise ValueError("zero denominator")
        if den < 0:
            den, coeffs = -den, tuple(-c for c in coeffs)
        g = den
        for c in coeffs:
            g = gcd(g, c)
            if g == 1:
                break
        if g > 1:
            coeffs = tuple(c // g for c in coeffs)
            den //= g
        _bind(self, "r", r)
        _bind(self, "coeffs", coeffs)
        _bind(self, "denom", den)

    @property
    def half(self) -> int:
        return 1 << (self.r - 1)

    @classmethod
    def zero(cls, r: int) -> "CyclotomicValue":
        return cls(r, (0,) * (1 << (r - 1)), 1)

    @classmethod
    def from_int(cls, r: int, n: int) -> "CyclotomicValue":
        coeffs = [0] * (1 << (r - 1))
        coeffs[0] = n
        return cls(r, tuple(coeffs), 1)

    def _match(self, other: "CyclotomicValue") -> None:
        if self.r != other.r:
            raise ValueError("operands use different root orders")

    def __add__(self, other: "CyclotomicValue") -> "CyclotomicValue":
        self._match(other)
        da, db = self.denom, other.denom
        coeffs = tuple(a * db + b * da for a, b in zip(self.coeffs, other.coeffs))
        return CyclotomicValue(self.r, coeffs, da * db)

    def __neg__(self) -> "CyclotomicValue":
        return CyclotomicValue(self.r, tuple(-c for c in self.coeffs), self.denom)

    def __sub__(self, other: "CyclotomicValue") -> "CyclotomicValue":
        return self + (-other)

    def __mul__(self, other: "CyclotomicValue") -> "CyclotomicValue":
        self._match(other)
        half = self.half
        out = [0] * half
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for k, b in enumerate(other.coeffs):
                if b == 0:
                    continue
                e = i + k
                if e >= half:
                    out[e - half] -= a * b
                else:
                    out[e] += a * b
        return CyclotomicValue(self.r, tuple(out), self.denom * other.denom)

    def power(self, n: int) -> "CyclotomicValue":
        """self**n.  A base a*xi^e + b*xi^f of at most two terms expands by the
        binomial row, C(n, i) * a^(n-i) * b^i at xi^(e*n + i*(f-e)), summed by i mod
        2^r / gcd(f-e, 2^r) and folded by xi^half = -1; others use repeated squaring."""
        if n < 0:
            raise ValueError("negative powers not supported")
        terms = [(i, c) for i, c in enumerate(self.coeffs) if c] or [(0, 0)]  # zero is 0*xi^0
        if len(terms) > 2:
            acc = CyclotomicValue.from_int(self.r, 1)
            base = self
            while n:
                if n & 1:
                    acc = acc * base
                base = base * base
                n >>= 1
            return acc
        (e, a), (f, b) = terms[0], terms[-1]  # e == f for one term
        row = [a ** n]  # row[i] = C(n, i) * a^(n-i) * b^i
        if f > e:
            for i in range(n):
                row.append(row[i] * (n - i) * b // ((i + 1) * a))
        m = 2 * self.half // gcd(f - e, 2 * self.half)
        out = [0] * self.half
        for t in range(min(m, n + 1)):
            _add_xi_power(out, e * n + t * (f - e), sum(row[t::m]))
        return CyclotomicValue(self.r, tuple(out), self.denom ** n)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("value is irrational")
        return Fraction(self.coeffs[0], self.denom)

    def conjugate(self) -> "CyclotomicValue":
        out = [0] * self.half
        for i, c in enumerate(self.coeffs):
            _add_xi_power(out, -i, c)
        return CyclotomicValue(self.r, tuple(out), self.denom)

    def __complex__(self) -> complex:
        import cmath

        half = self.half
        xi = cmath.exp(1j * cmath.pi / half)
        return sum(c * xi ** i for i, c in enumerate(self.coeffs)) / self.denom


def _add_xi_power(coords: list[int], e: int, v: int) -> None:
    """Add v * xi**e to power-basis coordinates, folded by xi**half = -1."""
    half = len(coords)
    coords[e % half] += -v if e // half & 1 else v


def xi_power(r: int, e: int) -> CyclotomicValue:
    """xi**e reduced into the power basis."""
    coeffs = [0] * (1 << (r - 1))
    _add_xi_power(coeffs, e, 1)
    return CyclotomicValue(r, tuple(coeffs), 1)


def lambda_value(r: int, l: int) -> CyclotomicValue:
    """Eigenvalue 1 + xi**(-l) attached to frequency l; zero at l = 2**(r-1)."""
    return CyclotomicValue.from_int(r, 1) + xi_power(r, -l)


def d_coefficients(spec: SymmetricSpec, profile: WeightProfile) -> list[CyclotomicValue]:
    """Exact spectral coefficients d_l for l = 0..2**r - 1.

    The perturbed sign sum on inner_n variables beyond the perturbation equals
    sum over l of d_l * lambda_l**inner_n, with d_l the discrete Fourier
    coefficient (1/2**r) * sum over a of delta[a] * xi**(a*l), whose integer
    coordinates are summed directly.  Conjugate symmetry pairs l and 2**r - l.
    """
    dv = delta_vector(spec, profile)
    out = []
    for l in range(dv.period):
        coeffs = [0] * (dv.period // 2)
        for a, d in enumerate(dv.values):
            _add_xi_power(coeffs, a * l, d)
        out.append(CyclotomicValue(spec.r, tuple(coeffs), dv.period))
    return out


def d0(spec: SymmetricSpec, profile: WeightProfile) -> Fraction:
    """Coefficient of 2**n in the perturbed sign sum on n total variables.

    Equals d_0 / 2**j, d_0 being the coefficient of 2**inner_n in the spectral
    decomposition; the unperturbed function is the profile WeightProfile(0, (1,)).
    It is a dyadic rational in [-1, 1] and vanishes exactly when the growth drops
    below 2**n, in particular for every balanced perturbation.
    """
    return d_coefficients(spec, profile)[0].as_fraction() / (1 << profile.j)
