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

from math import comb, gcd, prod
from operator import add, index, mul

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


class GammaAlphabet(Record):
    """The level-j entry alphabet: |x| <= 2**(j-1), or {-1, 1} at level 0."""

    _fields = ("j",)

    def __init__(self, j: int) -> None:
        if j < 0:
            raise ValueError("alphabet level must be nonnegative")
        super().__init__(j)

    @property
    def bound(self) -> int:
        return 1 if self.j == 0 else 1 << (self.j - 1)

    @property
    def members(self) -> tuple[int, ...]:
        if self.j == 0:
            return (-1, 1)
        b = self.bound
        return tuple(range(-b, b + 1))


class SolutionVector(Record):
    """Entries x_0..x_n with sum of x_l * C(n, l) equal to zero, and ``key``,
    their class key from ``canonical_key`` (which refuses entries of another
    length): not a field, so vectors in one class share a key but stay unequal."""

    _fields = ("n", "entries")

    def __init__(self, n: int, entries: tuple[int, ...]) -> None:
        entries = tuple(map(index, entries))
        if n < 1:
            raise ValueError("need n >= 1")
        super().__init__(n, entries)
        _bind(self, "key", canonical_key(self))


class FoldedKey(Record):
    """Canonical equivalence-class key: the normalized folded vector.

    ``half`` holds the normalized pair sums, ``center`` the normalized middle
    entry for even n (None for odd n), and ``is_zero`` marks the class of
    vectors folding to zero everywhere.  Built only by ``_fold_key``.
    """

    _fields = ("n", "half", "center", "is_zero")

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


def _fold_key(n: int, fold: tuple[int, ...], row: list[int] | None = None) -> FoldedKey:
    """Class key of a fold: pair sums x_l + x_(n-l), l < (n + 1) // 2, and the
    center for even n, divided by their gcd and sign.

    A sporadic fold is then checked against the equation (ValueError "not a
    solution: ...").  A trivial one needs no check: a zero fold weighs 0 on
    any row, and the alternating fold m * (2, -2, ...; (-1)**(n/2)) weighs m
    times the sum of (-1)**l * C(n, l), which is 0 for n >= 1.  ``row`` is
    the half row C(n, 0), ..., C(n, n // 2) for a caller that keys many folds
    of one n; without it the check builds the row.
    """
    g = gcd(*fold)  # 0 only for the zero fold
    if g and next(filter(None, fold)) < 0:
        g = -g
    norm = fold if g in (0, 1) else tuple(c // g for c in fold)
    hl = (n + 1) // 2
    key = FoldedKey(n, norm[:hl], None if n % 2 else norm[hl], g == 0)
    if not key.is_trivial:
        # component l weighs C(n, l)
        acc = sum(map(mul, fold, row or _binomial_half_row(n)))
        if acc != 0:
            raise ValueError(f"not a solution: weighted sum is {acc}")
    return key


def _entries_key(n: int, x: tuple[int, ...]) -> FoldedKey:
    """``_fold_key`` of entries x_0..x_n folded to the pair sums x_l + x_(n-l),
    l < (n + 1) // 2, then the center for even n; another length is refused."""
    if len(x) != n + 1:
        raise ValueError(f"expected {n + 1} entries, got {len(x)}")
    hl = len(x) // 2
    fold = tuple(map(add, x[:hl], reversed(x)))
    return _fold_key(n, fold + (x[hl],) if len(x) % 2 else fold)


def canonical_key(v: SolutionVector) -> FoldedKey:
    """Class key of a solution under scaling, sign, and symmetric
    rearrangement: ``_entries_key`` of its entries."""
    return _entries_key(v.n, v.entries)


# ---------------------------------------------------------------------------
# exact counting of all solutions
# ---------------------------------------------------------------------------

def direct_enumeration_metric(n: int, j: int) -> int:
    """Size of the raw search space for full enumeration."""
    return (2 if j == 0 else (1 << j) + 1) ** (n + 1)  # an alphabet member per entry x_0..x_n


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
    y_i = z**w_i, packed into a single int with K-bit slots (Kronecker
    substitution).  Every coefficient of every partial product counts
    vectors, so it lies in [0, prod m_i]; with K the bit length of prod m_i
    no slot can carry into the next.  Each factor costs O(log m) shift-adds
    through S_2a = S_a * (1 + y**a) and S_(a+1) = 1 + y * S_a.

    Only a window of slots is kept, coefficient k in slot k - low: the
    weights are nonnegative, so slots above the target never come back down,
    and once the remaining factors can add at most ``rest``, slots below
    target - rest can no longer reach it.  Those are shifted out after each
    factor, so the later factors work on a shrinking window; after the last
    one the window is the target's slot alone.
    """
    rest = sum((m - 1) * w for m, w in zip(sizes, weights))
    if not 0 <= target <= rest:
        return 0
    k = prod(sizes).bit_length()
    low = 0
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
        rest -= (m - 1) * w
        drop = target - rest - low
        if drop > 0:
            acc >>= k * drop
            mask >>= k * drop
            low += drop
        poly = acc
    return poly


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


# ---------------------------------------------------------------------------
# equivalence classes
# ---------------------------------------------------------------------------

def _check_class_cell(n: int, j: int) -> None:
    """Refuse class cells off the folded-box argument.

    Level 0 is refused: over {-1, 1} the folded vectors do not fill a box of
    integers (pair sums are even and the center is never zero), so neither
    the folded sweep nor the Moebius count describes them.
    """
    if n < 1 or j < 1:
        raise ValueError("need n >= 1 and j >= 1")


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


def enumerate_classes(n: int, j: int) -> dict[FoldedKey, tuple[int, ...]]:
    """Map each solution class to the entries of one realizable representative.

    Sweeps the folded space directly: pair sums range over |s| <= 2**j, the
    center (even n) over the alphabet, and the first pair sum is forced by
    the equation.  Every in-range folded vector is realizable by splitting
    each pair sum into ceil/floor halves, so the sweep sees exactly the
    classes of actual solutions.

    The free entries, the tail s_1, s_2, ... and then the center, are walked
    in lexicographic order.  Each leaf's fold is keyed by ``_fold_key``, and
    a class is represented by the first leaf that reaches it: only that
    leaf's fold is unfolded into entries.  A class {+-k * p} meets
    its first leaf at a member whose first nonzero tail entry is negative
    (or at the zero vector, whose tail is all zero), so while the tail is
    zero so far only values <= 0 are tried: the leaves skipped that way,
    half of all, never start a class.
    """
    _check_class_cell(n, j)
    hl = (n + 1) // 2
    row = _binomial_half_row(n)
    # the free slots: pair sums 1 .. hl - 1, then the center for even n
    weights = row[1:]
    bounds = [1 << j] * (hl - 1)
    if n % 2 == 0:
        bounds.append(1 << (j - 1))
    last = len(bounds) - 1

    # max_tail[i]: largest |contribution| still available from slots i.. plus
    # the forced first pair sum, whose bound is 2**j and weight C(n, 0) = 1.
    max_tail = [1 << j] * (last + 2)
    for i in range(last, -1, -1):
        max_tail[i] = max_tail[i + 1] + bounds[i] * weights[i]

    out: dict[FoldedKey, tuple[int, ...]] = {}

    def emit(fold: tuple[int, ...]) -> None:
        key = _fold_key(n, fold, row)
        if key not in out:
            half = fold[:hl]  # ceil halves, the center for even n, floor halves
            out[key] = (tuple([(s + 1) // 2 for s in half]) + fold[hl:]
                        + tuple([s // 2 for s in reversed(half)]))

    # Each loop runs over the range its bound allows, by floor division:
    # lo <= s <= hi exactly when |acc + s * w| <= lim.  On the last slot lim
    # is the first pair sum's bound, so every value there is a leaf whose
    # first pair sum -(acc + s * w) is in range.  ``zero`` says every free
    # entry chosen so far is zero.
    def walk(idx: int, acc: int, chosen: tuple[int, ...], zero: bool) -> None:
        w, b, lim = weights[idx], bounds[idx], max_tail[idx + 1]
        lo = max(-b, -((lim + acc) // w))
        hi = 0 if zero else min(b, (lim - acc) // w)
        if idx == last:
            for s in range(lo, hi + 1):
                emit((-(acc + s * w),) + chosen + (s,))
            return
        for s in range(lo, hi + 1):
            walk(idx + 1, acc + s * w, chosen + (s,), zero and s == 0)

    if last < 0:  # n = 1: the first pair sum alone, forced to 0
        emit((0,))
    else:
        walk(0, 0, (), True)
    return out


def count_classes(n: int, j: int) -> int:
    """Number of solution classes over the level-j alphabet.

    A class is the zero class or a primitive folded solution up to sign.  The
    folded box (pair sums within 2**j, center within 2**(j-1)) is symmetric
    and convex, so a class is present exactly when its primitive vector lies
    in the box.  Moebius inversion over a common divisor d counts those:
    classes = 1 + (1/2) * sum over d <= 2**j of mu(d) * (Z_d - 1), where Z_d,
    the number of folded solutions with every component divisible by d, is a
    box count over the box with its bounds divided by d.

    Z_d depends on d only through the shrunk pair-sum bound c = 2**j // d,
    since the shrunk center bound 2**(j-1) // d is c // 2.  So mu is summed
    over each run of divisors sharing c, and each run with a nonzero sum
    costs one box count: 5 instead of 11 at (8, 4), and 333 instead of 973
    over the 57 cells of the default omega grid.
    """
    _check_class_cell(n, j)
    hl = (n + 1) // 2
    weights = _binomial_half_row(n)
    top = 1 << j
    runs: dict[int, int] = {}
    for d in range(1, top + 1):
        runs[top // d] = runs.get(top // d, 0) + _mobius(d)
    primitive = 0
    for c, mu in runs.items():
        if mu:
            shrunk = [c] * hl
            if n % 2 == 0:
                shrunk.append(c // 2)
            z = _box_count(
                weights,
                [2 * s + 1 for s in shrunk],
                sum(s * w for s, w in zip(shrunk, weights)),
            )
            primitive += mu * (z - 1)
    return 1 + primitive // 2


def gamma_via_integral(n: int, j: int) -> int:
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
    that node's counts directly.
    """
    if n < 1 or j < 1:
        raise ValueError("need n >= 1 and j >= 1")
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
