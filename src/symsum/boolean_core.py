"""Boolean functions on up to 24 variables: truth tables, algebraic normal form,
exact sign sums, and weight-layer statistics.

A function on j variables is stored as a 2**j-bit integer truth table.  Input
x (an integer in [0, 2**j)) encodes the assignment whose i-th variable (1-based)
is bit i-1 of x.  The sign sum of F is sum over all inputs of (-1)**F(x); F is
balanced exactly when this sum is zero.
"""

from __future__ import annotations

import itertools
from math import comb
from operator import attrgetter

MAX_VARIABLES = 24

# Sets a field in a record's __init__, past Record.__setattr__.  Unlike
# writing self.__dict__, it keeps the fields in the instance's compact inline
# storage: a FoldedKey takes 112 bytes, not 248 with a materialized dict.
_bind = object.__setattr__


class Record:
    """Base of the package's immutable value records.

    A subclass names its fields, in order, in ``_fields``; its ``__init__``
    checks its arguments and sets each field with ``_bind``.  Two records are
    equal when they are of the same class with equal fields, a record hashes
    by its fields, its repr is ``Name(field=value, ...)``, and assigning or
    deleting an attribute raises AttributeError.  A
    ``functools.cached_property`` still works, as it writes the instance dict.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # The field values, read in C: equality and hashing run on every
        # dict and set lookup of a record.
        cls._values = property(attrgetter(*cls._fields))

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
        _bind(self, "terms", terms)

    @property
    def max_index(self) -> int:
        """Largest variable index used, or 0 for a constant expression."""
        return max((idx for mono in self.terms for idx in mono), default=0)

    @property
    def degree(self) -> int:
        """Largest monomial size, or 0 for a constant expression."""
        return max((len(mono) for mono in self.terms), default=0)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        ordered = sorted(self.terms, key=lambda m: (len(m), sorted(m)))
        parts = ["1" if not m else "*".join(f"x{i}" for i in sorted(m)) for m in ordered]
        return " + ".join(parts)


def _tokenize_anf(text: str) -> list[tuple[str, str, int]]:
    """Split an expression into (kind, value, position) tokens."""
    tokens: list[tuple[str, str, int]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in "+*":
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch == "1":
            tokens.append(("one", "1", i))
            i += 1
            continue
        if ch in "xX":
            start = i
            i += 1
            digits = ""
            while i < n and text[i].isdigit():
                digits += text[i]
                i += 1
            if not digits:
                raise AnfSyntaxError("expected digits after 'x'", start)
            tokens.append(("var", digits, start))
            continue
        raise AnfSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


def anf_parse(text: str) -> AnfExpression:
    """Parse an expression such as ``x1*x2 + x3 + 1`` into canonical form.

    Grammar: terms are joined by '+'; a term is either the constant '1' or
    one or more variables ``x<k>`` joined by '*'.  Whitespace is ignored.
    Repeated monomials cancel in pairs.  Raises AnfSyntaxError with the
    offending position on malformed input.
    """
    tokens = _tokenize_anf(text)
    if not tokens:
        raise AnfSyntaxError("empty expression", 0)

    terms: set[frozenset[int]] = set()

    def flush(mono: set[int] | None, is_one: bool, pos: int) -> None:
        if mono is None and not is_one:
            raise AnfSyntaxError("empty term", pos)
        key = frozenset() if is_one else frozenset(mono or ())
        if key in terms:
            terms.remove(key)
        else:
            terms.add(key)

    idx = 0
    while idx < len(tokens):
        kind, value, pos = tokens[idx]
        if kind == "one":
            flush(None, True, pos)
            idx += 1
        elif kind == "var":
            mono: set[int] = set()
            while True:
                kind, value, pos = tokens[idx]
                if kind != "var":
                    raise AnfSyntaxError("expected variable inside product", pos)
                var = int(value)
                if not 1 <= var <= MAX_VARIABLES:
                    raise AnfSyntaxError(
                        f"variable index {var} out of range 1..{MAX_VARIABLES}", pos
                    )
                mono.symmetric_difference_update({var})
                idx += 1
                if idx < len(tokens) and tokens[idx][:2] == ("op", "*"):
                    idx += 1
                    if idx >= len(tokens):
                        raise AnfSyntaxError("dangling '*'", tokens[idx - 1][2])
                else:
                    break
            flush(mono, False, pos)
        else:
            raise AnfSyntaxError(f"unexpected {value!r}", pos)
        if idx < len(tokens):
            kind, value, pos = tokens[idx]
            if (kind, value) != ("op", "+"):
                raise AnfSyntaxError(f"expected '+' before {value!r}", pos)
            idx += 1
            if idx >= len(tokens):
                raise AnfSyntaxError("dangling '+'", pos)
    return AnfExpression(frozenset(terms))


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
        _bind(self, "j", j)
        _bind(self, "table", table)

    def value(self, x: int) -> int:
        if not 0 <= x < (1 << self.j):
            raise ValueError(f"input {x} out of range for {self.j} variables")
        return (self.table >> x) & 1

    __call__ = value

    @property
    def size(self) -> int:
        """Number of inputs, 2**j."""
        return 1 << self.j

    def bits(self) -> tuple[int, ...]:
        """Truth table as a tuple of 0/1 values, input 0 first."""
        return tuple((self.table >> x) & 1 for x in range(self.size))

    @classmethod
    def from_bits(cls, values) -> "BooleanFunction":
        values = tuple(int(v) for v in values)
        size = len(values)
        if size < 2 or size & (size - 1):
            raise ValueError("truth table length must be a power of two, at least 2")
        if any(v not in (0, 1) for v in values):
            raise ValueError("truth table entries must be 0 or 1")
        table = 0
        for x, v in enumerate(values):
            table |= v << x
        return cls(size.bit_length() - 1, table)

    def weight(self) -> int:
        """Number of inputs where the function is 1."""
        return self.table.bit_count()

    def restrict_is_symmetric(self) -> bool:
        """True when the value depends only on the input weight."""
        by_weight: dict[int, int] = {}
        for x in range(self.size):
            w = x.bit_count()
            v = (self.table >> x) & 1
            if by_weight.setdefault(w, v) != v:
                return False
        return True


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
        vals = tuple(int(v) for v in values)
        if len(vals) != j + 1:
            raise ValueError(f"expected {j + 1} entries, got {len(vals)}")
        for m, v in enumerate(vals):
            bound = comb(j, m)
            if abs(v) > bound:
                raise ValueError(f"entry {m} exceeds layer size {bound}")
            if (v - bound) % 2:
                raise ValueError(f"entry {m} has wrong parity for layer size {bound}")
        _bind(self, "j", j)
        _bind(self, "values", vals)

    @property
    def total(self) -> int:
        """Sign sum of the underlying function."""
        return sum(self.values)

    @classmethod
    def constant_zero(cls, j: int = 0) -> "WeightProfile":
        """Profile of the all-zero function on j variables."""
        return cls(j, tuple(comb(j, m) for m in range(j + 1)))


def weight_profile(f: BooleanFunction) -> WeightProfile:
    """Weight-layer sign counts of a function."""
    values = [0] * (f.j + 1)
    for x in range(f.size):
        values[x.bit_count()] += 1 - 2 * ((f.table >> x) & 1)
    return WeightProfile(f.j, tuple(values))


def symmetric_sigma_eval(n: int, degrees, x: int) -> int:
    """Value at input x of the XOR of elementary symmetric functions.

    ``degrees`` lists the elementary degrees; the result is the GF(2) sum of
    the elementary symmetric polynomials of those degrees in n variables,
    evaluated at the assignment packed into x.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    if not 0 <= x < (1 << n):
        raise ValueError(f"input {x} out of range for {n} variables")
    w = x.bit_count()
    v = 0
    for k in degrees:
        # The weight-w slice of the degree-k elementary symmetric function
        # sums C(w, k) monomials, so its value is the parity of C(w, k).
        if k < 0:
            raise ValueError("degrees must be nonnegative")
        if k & ~w == 0:
            v ^= 1
    return v


def symmetric_function(n: int, degrees) -> BooleanFunction:
    """Truth table of the XOR of elementary symmetric functions."""
    if not 1 <= n <= MAX_VARIABLES:
        raise ValueError(f"variable count must be in 1..{MAX_VARIABLES}, got {n}")
    degs = tuple(degrees)
    parity_by_weight = [0] * (n + 1)
    for w in range(n + 1):
        v = 0
        for k in degs:
            if k & ~w == 0:
                v ^= 1
        parity_by_weight[w] = v
    table = 0
    for x in range(1 << n):
        table |= parity_by_weight[x.bit_count()] << x
    return BooleanFunction(n, table)


def xor_functions(f: BooleanFunction, g: BooleanFunction) -> BooleanFunction:
    """Pointwise XOR of two functions on the same variable count."""
    if f.j != g.j:
        raise ValueError("functions must share a variable count")
    return BooleanFunction(f.j, f.table ^ g.table)


def all_functions(j: int):
    """Yield every Boolean function on j variables (use only for tiny j)."""
    if j > 4:
        raise ValueError("refusing to enumerate more than 2**16 functions")
    for table in range(1 << (1 << j)):
        yield BooleanFunction(j, table)


def all_profiles(j: int):
    """Yield every weight profile realizable on j variables, in lex order."""
    # A layer of size b splits as b = (#zeros) + (#ones), so its signed count
    # ranges over -b..b in steps of 2.
    ranges = [range(-comb(j, m), comb(j, m) + 1, 2) for m in range(j + 1)]
    for combo in itertools.product(*ranges):
        yield WeightProfile(j, combo)
