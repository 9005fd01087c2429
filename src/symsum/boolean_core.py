"""Boolean functions on up to 24 variables: truth tables, algebraic normal form,
exact sign sums, and weight-layer statistics.

A function on j variables is stored as a 2**j-bit integer truth table.  Input
x (an integer in [0, 2**j)) encodes the assignment whose i-th variable (1-based)
is bit i-1 of x.  The sign sum of F is sum over all inputs of (-1)**F(x); F is
balanced exactly when this sum is zero.
"""

from __future__ import annotations

import itertools
import re
from math import comb
from operator import attrgetter, index

MAX_VARIABLES = 24

# Sets a record's field, past Record.__setattr__.  Unlike writing
# self.__dict__, it keeps the fields in the instance's compact inline
# storage: a FoldedKey takes 112 bytes, not 248 with a materialized dict.
_bind = object.__setattr__


class Record:
    """Base of the package's immutable value records.

    A subclass names its fields, in order, in ``_fields``, and
    ``Record.__init__`` binds one value to each, in that order: a subclass
    that checks its arguments ends its own ``__init__`` with
    ``super().__init__(...)``, and one that does not has no ``__init__``.  Two
    records are equal when they are of the same class with equal fields, a
    record hashes by its fields, its repr is ``Name(field=value, ...)``, and
    assigning or deleting an attribute raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # The field values, read in C: equality and hashing run on every
        # dict and set lookup of a record.
        cls._values = property(attrgetter(*cls._fields))

    def __init__(self, *values) -> None:
        fields = self._fields
        if len(values) != len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} field values "
                            f"({', '.join(fields)}), got {len(values)}")
        for name, value in zip(fields, values):
            _bind(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


class AnfSyntaxError(ValueError):
    """Raised when an algebraic-normal-form expression fails to parse."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class AnfExpression(Record):
    """A multilinear XOR-of-monomials expression over variables x1..x24.

    ``terms`` is a frozenset of monomials; each monomial is a frozenset of
    1-based variable indices.  The empty monomial is the constant 1, and an
    empty term set is the constant 0.  Duplicate monomials cancel (XOR), so
    this form is canonical.
    """

    _fields = ("terms",)

    def __init__(self, terms: frozenset[frozenset[int]]) -> None:
        for mono in terms:
            for idx in mono:
                if not 1 <= idx <= MAX_VARIABLES:
                    raise ValueError(f"variable index {idx} out of range 1..{MAX_VARIABLES}")
        super().__init__(terms)

    @property
    def max_index(self) -> int:
        """Largest variable index used, or 0 for a constant expression."""
        return max((idx for mono in self.terms for idx in mono), default=0)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        ordered = sorted(self.terms, key=lambda m: (len(m), sorted(m)))
        parts = ["1" if not m else "*".join(f"x{i}" for i in sorted(m)) for m in ordered]
        return " + ".join(parts)


# One token of an expression: a variable x<k>, or any other character but
# whitespace, which the scan skips.  ``\d*`` lets a bare 'x' be refused by name.
_ANF_TOKEN = re.compile(r"[xX]\d*|[^ \t\r\n]")
# The kinds of token that may follow each kind; the start of input counts as '+'.
_ANF_NEXT = {"+": "x1", "*": "x", "x": "+*", "1": "+"}


def anf_parse(text: str) -> AnfExpression:
    """Parse an expression such as ``x1*x2 + x3 + 1`` into canonical form.

    Grammar: terms are joined by '+'; a term is either the constant '1' or
    one or more variables ``x<k>`` joined by '*'.  Whitespace is ignored.
    Repeated monomials cancel in pairs, and a variable repeated inside a
    product counts once (x*x = x).  Raises AnfSyntaxError with the offending
    position on malformed input.
    """
    terms: set[frozenset[int]] = set()
    mono: frozenset[int] = frozenset()
    prev, pos = "+", None
    for match in _ANF_TOKEN.finditer(text):
        token, pos = match[0], match.start()
        kind = "x" if token[0] in "xX" else token
        if kind not in _ANF_NEXT[prev]:
            raise AnfSyntaxError(f"unexpected {token!r}", pos)
        if kind == "x":
            if len(token) == 1:
                raise AnfSyntaxError("expected digits after 'x'", pos)
            var = int(token[1:])
            if not 1 <= var <= MAX_VARIABLES:
                raise AnfSyntaxError(f"variable index {var} out of range 1..{MAX_VARIABLES}", pos)
            mono = (mono if prev == "*" else frozenset()) | {var}
        elif kind == "1":
            mono = frozenset()
        elif kind == "+":
            terms ^= {mono}
        prev = kind
    if prev in "+*":
        raise AnfSyntaxError("empty expression" if pos is None else f"dangling {prev!r}", pos or 0)
    return AnfExpression(frozenset(terms ^ {mono}))


class BooleanFunction(Record):
    """A Boolean function on ``j`` variables with truth table ``table``.

    Bit x of ``table`` is the value at input x; inputs pack variable i
    (1-based) into bit i-1.
    """

    _fields = ("j", "table")

    def __init__(self, j: int, table: int) -> None:
        if not 1 <= j <= MAX_VARIABLES:
            raise ValueError(f"variable count must be in 1..{MAX_VARIABLES}, got {j}")
        if not 0 <= table < (1 << (1 << j)):
            raise ValueError("truth table does not fit 2**j bits")
        super().__init__(j, table)

    @property
    def size(self) -> int:
        """Number of inputs, 2**j."""
        return 1 << self.j

    def bits(self) -> tuple[int, ...]:
        """Truth table as a tuple of 0/1 values, input 0 first."""
        return tuple((self.table >> x) & 1 for x in range(self.size))


def anf_to_function(expr: AnfExpression, j: int) -> BooleanFunction:
    """Evaluate an expression into a truth table on ``j`` variables."""
    if expr.max_index > j:
        raise ValueError(f"expression uses x{expr.max_index} but only {j} variables given")
    if not 1 <= j <= MAX_VARIABLES:
        raise ValueError(f"variable count must be in 1..{MAX_VARIABLES}, got {j}")
    masks = [sum(1 << (i - 1) for i in mono) for mono in expr.terms]
    table = 0
    for x in range(1 << j):
        v = 0
        for m in masks:
            if x & m == m:
                v ^= 1
        table |= v << x
    return BooleanFunction(j, table)


class WeightProfile(Record):
    """Signed counts of a function by input weight.

    ``values[m]`` is (number of weight-m inputs with value 0) minus (number
    with value 1), for m = 0..j.  Entry m is bounded by C(j, m) in absolute
    value and has the same parity as C(j, m); the total is the sign sum.
    """

    _fields = ("j", "values")

    def __init__(self, j: int, values: tuple[int, ...]) -> None:
        if j < 0:
            raise ValueError("variable count must be nonnegative")
        vals = tuple(map(index, values))
        if len(vals) != j + 1:
            raise ValueError(f"expected {j + 1} entries, got {len(vals)}")
        for m, v in enumerate(vals):
            bound = comb(j, m)
            if abs(v) > bound:
                raise ValueError(f"entry {m} exceeds layer size {bound}")
            if (v - bound) % 2:
                raise ValueError(f"entry {m} has wrong parity for layer size {bound}")
        super().__init__(j, vals)

    @property
    def total(self) -> int:
        """Sign sum of the underlying function."""
        return sum(self.values)


def weight_profile(f: BooleanFunction) -> WeightProfile:
    """Weight-layer sign counts of a function."""
    values = [0] * (f.j + 1)
    for x in range(f.size):
        values[x.bit_count()] += 1 - 2 * ((f.table >> x) & 1)
    return WeightProfile(f.j, tuple(values))


def all_profiles(j: int):
    """Yield every weight profile realizable on j variables, in lex order."""
    # A layer of size b splits as b = (#zeros) + (#ones), so its signed count
    # ranges over -b..b in steps of 2.
    ranges = [range(-comb(j, m), comb(j, m) + 1, 2) for m in range(j + 1)]
    for combo in itertools.product(*ranges):
        yield WeightProfile(j, combo)
