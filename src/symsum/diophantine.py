"""Integer solutions of sum over l of x_l * C(n, l) = 0 over bounded alphabets.

A balanced perturbed symmetric function on n + j variables hands its witness
to this equation: the periodic weight vector, written at presentation scale,
is a solution with entries in the level-j alphabet Gamma_j = {x : |x| <=
2**(j-1)} (level 0 uses {-1, 1}).  Solutions are compared up to scaling by a
common factor, global sign, and the rearrangements allowed by the symmetry
C(n, l) = C(n, n - l); folding a vector onto its first half captures exactly
those moves, so a normalized folded vector is a canonical class key.
"""

from __future__ import annotations

import itertools
from math import comb, gcd, prod
from operator import add, mul

from .boolean_core import Record, _bind


def _binomial_half_row(n: int) -> list[int]:
    """C(n, 0), ..., C(n, n // 2), by one exact multiplicative pass.

    C(n, l + 1) = C(n, l) * (n - l) / (l + 1) divides exactly at every step,
    and C(n, l) = C(n, n - l) gives the other half.
    """
    row = [1]
    c = 1
    for l in range(n // 2):
        c = c * (n - l) // (l + 1)
        row.append(c)
    return row


def _binomial_row(n: int) -> list[int]:
    """C(n, 0), ..., C(n, n): the half row and its mirror."""
    half = _binomial_half_row(n)
    return half + half[: n - n // 2][::-1]


def _folded_sum(n: int, comps: tuple[int, ...]) -> int:
    """sum over l of x_l * C(n, l) for a vector given by its fold: pair sums
    x_l + x_(n-l) for l < (n + 1) // 2, then the center entry for even n, so
    that component l weighs C(n, l).
    """
    return sum(map(mul, comps, _binomial_half_row(n)))


class BudgetExceeded(RuntimeError):
    """An enumeration was refused because its size metric is over budget."""


class GammaAlphabet(Record):
    """The level-j entry alphabet: |x| <= 2**(j-1), or {-1, 1} at level 0."""

    _fields = ("j",)

    def __init__(self, j: int) -> None:
        if j < 0:
            raise ValueError("alphabet level must be nonnegative")
        _bind(self, "j", j)

    @property
    def bound(self) -> int:
        return 1 if self.j == 0 else 1 << (self.j - 1)

    @property
    def members(self) -> tuple[int, ...]:
        if self.j == 0:
            return (-1, 1)
        b = self.bound
        return tuple(range(-b, b + 1))

    def __contains__(self, x: int) -> bool:
        if self.j == 0:
            return x in (-1, 1)
        return abs(x) <= self.bound

    def __len__(self) -> int:
        return len(self.members)


class SolutionVector(Record):
    """Entries x_0..x_n with sum of x_l * C(n, l) equal to zero, and ``key``,
    their class key from ``canonical_key``: not a field, so vectors in one
    class share a key but stay unequal."""

    _fields = ("n", "entries")

    def __init__(self, n: int, entries: tuple[int, ...]) -> None:
        entries = tuple(int(x) for x in entries)
        _bind(self, "n", n)
        _bind(self, "entries", entries)
        if n < 1:
            raise ValueError("need n >= 1")
        if len(entries) != n + 1:
            raise ValueError(f"expected {n + 1} entries, got {len(entries)}")
        _bind(self, "key", canonical_key(self))

    def in_alphabet(self, alphabet: GammaAlphabet) -> bool:
        return all(x in alphabet for x in self.entries)


def _normalize_components(comps: tuple[int, ...]) -> tuple[tuple[int, ...], bool]:
    """Divide by the gcd and fix the first nonzero entry positive."""
    if all(c == 0 for c in comps):
        return comps, True
    g = 0
    for c in comps:
        g = gcd(g, c)
        if g == 1:
            break
    scaled = tuple(c // g for c in comps) if g > 1 else comps
    for c in scaled:
        if c:
            if c < 0:
                scaled = tuple(-x for x in scaled)
            break
    return scaled, False


class FoldedKey(Record):
    """Canonical equivalence-class key: the normalized folded vector.

    ``half`` holds the normalized pair sums, ``center`` the normalized middle
    entry for even n (None for odd n), and ``is_zero`` marks the class of
    vectors folding to zero everywhere.  The constructor checks the shape,
    the normalization and the equation, for keys built from outside input;
    ``canonical_key`` makes a vector's key itself and binds it without them.
    """

    _fields = ("n", "half", "center", "is_zero")

    def __init__(self, n: int, half: tuple[int, ...], center: int | None, is_zero: bool) -> None:
        if n < 1:
            raise ValueError("need n >= 1")
        half = tuple(int(c) for c in half)
        hl = (n + 1) // 2
        if len(half) != hl:
            raise ValueError(f"expected {hl} folded entries, got {len(half)}")
        if (center is None) != (n % 2 == 1):
            raise ValueError("center entry present exactly when n is even")
        comps = half if center is None else half + (center,)
        if is_zero != all(c == 0 for c in comps):
            raise ValueError("zero flag inconsistent with components")
        if not is_zero:
            norm, _ = _normalize_components(comps)
            if norm != comps:
                raise ValueError("components are not normalized")
        acc = _folded_sum(n, comps)
        if acc != 0:
            raise ValueError(
                f"folded components do not satisfy the equation: weighted sum is {acc}"
            )
        _bind(self, "n", n)
        _bind(self, "half", half)
        _bind(self, "center", center)
        _bind(self, "is_zero", is_zero)

    @classmethod
    def _unchecked(cls, n: int, half: tuple[int, ...], center: int | None,
                   is_zero: bool) -> "FoldedKey":
        """A key bound without ``__init__``'s checks, for ``canonical_key``,
        which made its shape and normalization and checked its fold's sum."""
        key = cls.__new__(cls)
        _bind(key, "n", n)
        _bind(key, "half", half)
        _bind(key, "center", center)
        _bind(key, "is_zero", is_zero)
        return key

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "half": list(self.half),
            "center": self.center,
            "zero": self.is_zero,
        }

    @property
    def is_trivial(self) -> bool:
        """Whether the class holds an always-present family: the zero class, of
        the antisymmetric vectors (x_{n-l} = -x_l) and, at odd n, the
        alternating ones ((-1)**l * m); or at even n the alternating class,
        with pair sums 2 * (-1)**l and center (-1)**(n/2), already normalized."""
        if self.is_zero:
            return True
        half = self.n // 2
        return (self.n % 2 == 0 and self.center == (-1) ** half
                and self.half == ((2, -2) * half)[:half])


def canonical_key(v: SolutionVector) -> FoldedKey:
    """Class key of a solution under scaling, sign, and symmetric rearrangement.

    Folds ``v`` once into pair sums x_l + x_(n-l), l < (n + 1) // 2, and the
    center for even n; checks the equation on that fold (ValueError "not a
    solution: ..."); and divides the fold by its gcd and sign, which keeps the
    sum zero, so the key is bound without FoldedKey's checks.
    """
    n, x = v.n, v.entries
    hl = (n + 1) // 2
    comps = tuple(map(add, x[:hl], reversed(x)))
    if n % 2 == 0:
        comps += (x[hl],)
    acc = _folded_sum(n, comps)
    if acc != 0:
        raise ValueError(f"not a solution: weighted sum is {acc}")
    norm, zero = _normalize_components(comps)
    return FoldedKey._unchecked(n, norm[:hl], None if n % 2 else norm[hl], zero)


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


# ---------------------------------------------------------------------------
# exact counting and enumeration of all solutions
# ---------------------------------------------------------------------------

def direct_enumeration_metric(n: int, j: int) -> int:
    """Size of the raw search space for full enumeration."""
    return len(GammaAlphabet(j)) ** (n + 1)


def class_enumeration_metric(n: int, j: int) -> int:
    """Size of the folded space behind class counting and enumeration."""
    folds = (1 << (j + 1)) + 1
    metric = folds ** ((n + 1) // 2)
    if n % 2 == 0:
        metric *= (1 << j) + 1
    return metric


def gamma_integral_metric(n: int, j: int) -> int:
    """Size of the nonnegative-value space behind the averaged recount."""
    return ((1 << (j - 1)) + 1) ** (n + 1) if j >= 1 else 2 ** (n + 1)


def _box_count(weights, sizes, target: int) -> int:
    """Number of integer vectors t with 0 <= t_i < sizes[i] and sum of
    t_i * weights[i] equal to target (weights >= 0, sizes >= 1).

    Reads one coefficient of prod_i (1 + y_i + ... + y_i**(m_i - 1)) with
    y_i = z**w_i, packed into a single int with K-bit slots, coefficient k in
    slot k (Kronecker substitution).  Every coefficient of every partial
    product counts vectors, so it lies in [0, prod m_i]; with K the bit length
    of prod m_i no slot can carry into the next.  Each factor costs O(log m)
    shift-adds through S_2a = S_a * (1 + y**a) and S_(a+1) = 1 + y * S_a, and
    slots above the target are dropped as they appear: the weights are
    nonnegative, so those terms never come back down.
    """
    if not 0 <= target <= sum((m - 1) * w for m, w in zip(sizes, weights)):
        return 0
    k = prod(sizes).bit_length()
    mask = (1 << (k * (target + 1))) - 1
    poly = 1
    for w, m in zip(weights, sizes):
        step = k * w
        acc, a = poly, 1
        for bit in bin(m)[3:]:
            acc = (acc + (acc << step * a)) & mask
            a *= 2
            if bit == "1":
                acc = poly + ((acc << step) & mask)
                a += 1
        poly = acc
    return (poly >> k * target) & ((1 << k) - 1)


def count_solutions(n: int, j: int) -> int:
    """Number of solutions with entries in the level-j alphabet.

    Shifts every entry into [0, 2b] (b the alphabet bound), or maps the
    level-0 signs to {0, 1}, and reads the count as one box count: the
    shifted equation asks for the weighted sum b * 2**n, or 2**(n-1).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    b = GammaAlphabet(j).bound
    weights = _binomial_row(n)
    if j == 0:
        return _box_count(weights, [2] * (n + 1), 1 << (n - 1))
    return _box_count(weights, [2 * b + 1] * (n + 1), b << n)


def enumerate_solutions(n: int, j: int, budget: float | None = None):
    """Yield every solution over the level-j alphabet in lexicographic order.

    A depth-first sweep over the positions, pruned wherever the remaining
    positions can no longer bring the partial sum back to zero.  Refuses with
    BudgetExceeded when the direct metric is over the budget (10**7 when none
    is given).
    """
    cap = budget if budget is not None else 10 ** 7
    metric = direct_enumeration_metric(n, j)
    if metric > cap:
        raise BudgetExceeded(f"direct metric {metric} exceeds budget {cap}")
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


# ---------------------------------------------------------------------------
# equivalence classes
# ---------------------------------------------------------------------------

def _check_class_cell(n: int, j: int, budget: float | None) -> None:
    """Refuse class cells off the folded-box argument or over budget.

    Level 0 is refused: over {-1, 1} the folded vectors do not fill a box of
    integers (pair sums are even and the center is never zero), so neither
    the folded sweep nor the Moebius count describes them.
    """
    if n < 1 or j < 1:
        raise ValueError("need n >= 1 and j >= 1")
    if budget is not None and class_enumeration_metric(n, j) > budget:
        raise BudgetExceeded(
            f"class metric {class_enumeration_metric(n, j)} exceeds budget {budget}"
        )


def _mobius(d: int) -> int:
    """The Moebius function mu(d), by trial division."""
    mu, p = 1, 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if d > 1 else mu


def enumerate_classes(n: int, j: int, budget: float | None = None) -> dict[FoldedKey, SolutionVector]:
    """Map each solution class to one realizable representative.

    Sweeps the folded space directly: pair sums range over |s| <= 2**j, the
    center (even n) over the alphabet, and the first pair sum is forced by
    the equation.  Every in-range folded vector is realizable by splitting
    each pair sum into ceil/floor halves, so the sweep sees exactly the
    classes of actual solutions.  Each class is keyed by its
    representative's ``key``, made with the representative's one fold and
    equation check.
    """
    _check_class_cell(n, j, budget)
    hl = (n + 1) // 2
    row = _binomial_half_row(n)
    weights = row[:hl]
    even = n % 2 == 0
    center_w = row[-1] if even else 0
    fold_b = 1 << j
    center_b = 1 << (j - 1)

    # max_tail[i]: largest |contribution| still available from slots i.. plus
    # the center and the forced first entry.
    max_tail = [0] * (hl + 1)
    for i in range(hl - 1, 0, -1):
        max_tail[i] = max_tail[i + 1] + fold_b * weights[i]
    slack = fold_b * weights[0] + (center_b * center_w if even else 0)

    found: dict[tuple[int, ...], tuple[tuple[int, ...], int | None]] = {}

    def emit(half: tuple[int, ...], center: int | None) -> None:
        comps = half if center is None else half + (center,)
        norm, _ = _normalize_components(comps)
        if norm not in found:
            found[norm] = (half, center)

    # Each loop runs over the range its bound allows, by floor division:
    # lo <= s <= hi exactly when |acc + s * w| <= lim (and likewise for the
    # center, whose bound is the forced first pair sum's |s0| <= 2**j).
    def walk(idx: int, acc: int, chosen: tuple[int, ...]) -> None:
        if idx == hl:
            if even:
                lo = max(-center_b, -((fold_b + acc) // center_w))
                hi = min(center_b, (fold_b - acc) // center_w)
                for c in range(lo, hi + 1):
                    emit((-(acc + c * center_w),) + chosen, c)
            elif -fold_b <= acc <= fold_b:
                emit((-acc,) + chosen, None)
            return
        w = weights[idx]
        lim = max_tail[idx + 1] + slack
        lo = max(-fold_b, -((lim + acc) // w))
        hi = min(fold_b, (lim - acc) // w)
        for s in range(lo, hi + 1):
            walk(idx + 1, acc + s * w, chosen + (s,))

    walk(1, 0, ())

    out: dict[FoldedKey, SolutionVector] = {}
    for half, center in found.values():
        entries = [0] * (n + 1)
        for l, s in enumerate(half):
            entries[l] = (s + 1) // 2
            entries[n - l] = s // 2
        if center is not None:
            entries[n // 2] = center
        rep = SolutionVector(n, tuple(entries))
        out[rep.key] = rep
    return out


def count_classes(n: int, j: int, budget: float | None = None) -> int:
    """Number of solution classes over the level-j alphabet.

    A class is the zero class or a primitive folded solution up to sign.  The
    folded box (pair sums within 2**j, center within 2**(j-1)) is symmetric
    and convex, so a class is present exactly when its primitive vector lies
    in the box.  Moebius inversion over a common divisor d counts those:
    classes = 1 + (1/2) * sum over d <= 2**j of mu(d) * (Z_d - 1), where Z_d,
    the number of folded solutions with every component divisible by d, is a
    box count over the box with its bounds divided by d.
    """
    _check_class_cell(n, j, budget)
    hl = (n + 1) // 2
    weights = _binomial_half_row(n)
    bounds = [1 << j] * hl
    if n % 2 == 0:
        bounds.append(1 << (j - 1))
    primitive = 0
    for d in range(1, (1 << j) + 1):
        mu = _mobius(d)
        if mu:
            shrunk = [c // d for c in bounds]
            z = _box_count(
                weights,
                [2 * c + 1 for c in shrunk],
                sum(c * w for c, w in zip(shrunk, weights)),
            )
            primitive += mu * (z - 1)
    return 1 + primitive // 2


def gamma_via_integral(n: int, j: int, budget: float | None = None) -> int:
    """Recount the solutions through the sign-averaged nonnegative form.

    Writes each entry as a sign times a value in [0, 2**(j-1)]; averaging the
    indicator of a zero sum over all sign patterns, with weight 2 per nonzero
    value, reproduces the solution count exactly.  Must agree with
    count_solutions; the two follow entirely different routes.

    The sign patterns are walked depth first, largest weight first: a
    prefix's partial-sum counts are built once and extended for +C(n, l) and
    for -C(n, l), and every partial sum that the remaining weights can no
    longer bring back to zero is dropped.  Each leaf adds its pattern's count
    of zero sums; the two leaves under a node on the last weight are read off
    that node's counts directly.  Refuses with BudgetExceeded when the
    integral metric is over the budget.
    """
    if n < 1 or j < 1:
        raise ValueError("need n >= 1 and j >= 1")
    if budget is not None and gamma_integral_metric(n, j) > budget:
        raise BudgetExceeded(
            f"integral metric {gamma_integral_metric(n, j)} exceeds budget {budget}"
        )
    bound = 1 << (j - 1)
    values = range(1, bound + 1)
    # math.comb, not the half-row kernel: this recount is the independent
    # route that count_solutions is checked against.
    weights = sorted((comb(n, l) for l in range(n + 1)), reverse=True)
    suffix = [0] * (n + 2)
    for i in range(n, -1, -1):
        suffix[i] = suffix[i + 1] + weights[i] * bound
    last = weights[n]
    total = 0

    def walk(cur: dict[int, int], i: int, step: int) -> None:
        nonlocal total
        lim = suffix[i + 1]
        nxt: dict[int, int] = {}
        for s, c in cur.items():
            if -lim <= s <= lim:
                nxt[s] = nxt.get(s, 0) + c
            for x in values:
                s2 = s + x * step
                if -lim <= s2 <= lim:
                    nxt[s2] = nxt.get(s2, 0) + 2 * c
        if i + 1 < n:
            walk(nxt, i + 1, weights[i + 1])
            walk(nxt, i + 1, -weights[i + 1])
            return
        # the leaves for +last and -last: value 0 keeps a zero sum, and value
        # x brings -x * last (or +x * last) to zero
        total += 2 * nxt.get(0, 0) + 2 * sum(
            nxt.get(x * last, 0) + nxt.get(-x * last, 0) for x in values
        )

    # Opposite sign patterns match the same value vectors, so fix the first
    # sign positive and double.
    walk({0: 1}, 0, weights[0])
    q, rem = divmod(2 * total, 1 << (n + 1))
    if rem:
        raise ArithmeticError("sign-averaged recount did not divide evenly")
    return q
