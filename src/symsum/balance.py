"""Balance classification of perturbed symmetric functions.

A perturbed symmetric function is balanced when its sign sum vanishes; the
witness is then the periodic weight vector laid along the binomial row, a
solution of the bounded Diophantine equation.  Balanced cases split into the
trivial classes (antisymmetric or alternating witnesses, present for
structural reasons at predictable indices) and sporadic ones.  For each
residue of the inner variable count modulo the period there is also an
exact criterion deciding whether every sufficiently large index with that
residue is balanced.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum
from math import comb

from .boolean_core import BooleanFunction, Record, WeightProfile, _bind, weight_profile
from .diophantine import FoldedKey, SolutionVector
from .expsum import (
    SymmetricSpec,
    _subset_masks,
    delta_row,
    delta_vector,
    periodic_binomial_sums,
)


class VerificationError(RuntimeError):
    """A structurally guaranteed balance property failed to verify."""


class BalanceStatus(str, Enum):
    NOT_BALANCED = "not_balanced"
    TRIVIAL = "trivial"
    SPORADIC = "sporadic"


class BalanceVerdict(Record):
    """Outcome of classifying one perturbed symmetric function.

    ``witness`` holds the presentation-scale weight vector (halved for j >= 1)
    along indices 0..inner_n when the function is balanced; ``key`` is its
    canonical equivalence-class key.
    """

    _fields = ("n_total", "degrees", "j", "perturbation", "sign_sum", "status", "witness", "key")

    def __init__(self, n_total: int, degrees: tuple[int, ...], j: int, perturbation: str,
                 sign_sum: int, status: BalanceStatus, witness: tuple[int, ...] | None,
                 key: FoldedKey | None) -> None:
        _bind(self, "n_total", n_total)
        _bind(self, "degrees", degrees)
        _bind(self, "j", j)
        _bind(self, "perturbation", perturbation)
        _bind(self, "sign_sum", sign_sum)
        _bind(self, "status", status)
        _bind(self, "witness", witness)
        _bind(self, "key", key)

    @property
    def balanced(self) -> bool:
        return self.status is not BalanceStatus.NOT_BALANCED

    @property
    def inner_n(self) -> int:
        return self.n_total - self.j

    def raw_witness(self) -> tuple[int, ...] | None:
        """Witness at the raw (unhalved) scale."""
        if self.witness is None:
            return None
        if self.j == 0:
            return self.witness
        return tuple(2 * w for w in self.witness)

    def to_record(self) -> dict:
        return {
            "n_total": self.n_total,
            "degrees": list(self.degrees),
            "perturbation": self.perturbation,
            "S": self.sign_sum,
            "status": self.status.value,
            "witness": None if self.witness is None else list(self.witness),
            "key": None if self.key is None else self.key.to_json(),
        }


def classify(spec: SymmetricSpec, profile: WeightProfile, n_total: int,
             perturbation: str | None = None) -> BalanceVerdict:
    """Balance status of the degree set on n_total variables perturbed by the
    weight profile on the first j of them, with witness."""
    if perturbation is None:
        perturbation = f"n={n_total} degrees={spec} profile={list(profile.values)}"
    return next(classify_range(spec, profile, n_total, n_total, perturbation))


def classify_range(spec: SymmetricSpec, profile: WeightProfile, n_lo: int, n_hi: int,
                   perturbation: str) -> Iterator[BalanceVerdict]:
    """Verdicts for n_total = n_lo..n_hi in order, all with the descriptor
    ``perturbation``.

    The sign sums come from one sweep over the range, made by the call; only
    the indices where the sweep gives zero are classified, each as the
    iterator reaches it.  The first zero builds the witness row for n_hi
    (``witness_row``, read off the Lucas signs, not off the period the sweep
    folds); each zero's witness is its prefix, since entry l does not depend
    on the length.  Raises VerificationError when the witness of such a zero
    fails its equation: both are the same sum, so that is an internal fault.
    """
    j = profile.j
    if n_lo <= j:
        raise ValueError("need more variables than the perturbation touches")
    sums = periodic_binomial_sums(delta_vector(spec, profile).values, n_lo - j, n_hi - j)

    def verdicts() -> Iterator[BalanceVerdict]:
        row = None
        for n_total, s in zip(range(n_lo, n_hi + 1), sums):
            if s:
                yield BalanceVerdict(n_total, spec.degrees, j, perturbation, s,
                                     BalanceStatus.NOT_BALANCED, None, None)
                continue
            if row is None:
                row = witness_row(spec.degrees, profile.values, n_hi - j + 1,
                                  _subset_masks(n_hi))
            inner_n = n_total - j
            yield classify_zero(
                spec.degrees, j, n_total, perturbation,
                f"sign-sum sweep gives 0 at n_total={n_total} (inner n={inner_n}, "
                f"degrees {list(spec.degrees)}) for profile {list(profile.values)} "
                f"but its witness fails its equation",
                row[:inner_n + 1],
            )

    return verdicts()


def witness_row(degrees: tuple[int, ...], values: tuple[int, ...], length: int,
                masks: list[int]) -> list[int]:
    """``delta_row`` of the profile ``values`` at indices 0..length - 1, halved
    when it perturbs j >= 1 variables: the presentation-scale witness of a
    zero at inner_n = length - 1, and of any smaller inner_n as its prefix.
    ``masks`` is ``_subset_masks`` of length + j - 1 or more."""
    row = delta_row(degrees, values, length, masks)
    return [x // 2 for x in row] if len(values) > 1 else row


def classify_zero(degrees: tuple[int, ...], j: int, n_total: int, perturbation: str,
                  context: str, witness: list[int]) -> BalanceVerdict:
    """Verdict of a zero sign sum: trivial or sporadic, with witness and key.

    ``witness`` is the ``witness_row`` along indices 0..inner_n = n_total - j
    of a profile on j variables.  Its equation sum over l of
    x_l * C(inner_n, l) = 0 is the sign sum S / 2 (S itself at j = 0), so a
    claimed zero that is false fails it: VerificationError "<context>: <reason>".
    """
    inner_n = n_total - j
    try:
        vector = SolutionVector(inner_n, witness)
    except ValueError as exc:
        raise VerificationError(f"{context}: {exc}") from exc
    key = vector.key
    status = BalanceStatus.TRIVIAL if key.is_trivial else BalanceStatus.SPORADIC
    return BalanceVerdict(n_total, degrees, j, perturbation, 0, status, vector.entries, key)


def mirror_parity(values: tuple[int, ...]) -> int | None:
    """[eps = +1] for a weight profile whose reversal is eps times itself
    (eps = -1 for x1, (1, -1); +1 for x1x2, (1, -2, 1), and for the
    unperturbed (1,)); None when the reversal is neither."""
    reverse = tuple(reversed(values))
    if reverse == tuple(values):
        return 1
    if reverse == tuple(-c for c in values):
        return 0
    return None


def sign_bits_mirror(masks: list[int], degrees: tuple[int, ...], n_total: int,
                     parity: int) -> bool:
    """Whether the sign bits b_t of the degree set obey b_t XOR b_(N-t) =
    ``parity`` for every t <= N = n_total (``masks`` as for witness_row:
    ``_subset_masks`` of n_total or more).

    With s_t = (-1)**b_t that is s_(N-t) = -eps * s_t, for a profile c of
    mirror parity ``parity`` on j variables.  Its witness x_l = sum over m
    of c_m * s_(l+m) is then antisymmetric: x_(N-j-l) = sum over m of
    c_(j-m) * s_(N-l-m) = eps * sum over m of c_m * (-eps) * s_(l+m) = -x_l.
    So the sign sum vanishes and the witness folds to zero: a trivial
    balanced perturbation, shown by the symmetry alone, without the witness.
    """
    degree_mask = sum(1 << k for k in degrees)
    return all(
        ((masks[t] ^ masks[n_total - t]) & degree_mask).bit_count() & 1 == parity
        for t in range(n_total // 2 + 1)
    )


# ---------------------------------------------------------------------------
# residue criterion for eventual balance
# ---------------------------------------------------------------------------

class EventualBalanceReport(Record):
    """Result of the residue criterion.

    When ``holds``, every function whose inner variable count is congruent to
    ``residue`` is balanced (for any inner count >= 1); ``z`` is the constant
    in the alternating pair-sum pattern.  When it fails, ``first_failure``
    is the smallest offset a where the pair sum breaks the pattern.
    """

    _fields = ("residue", "period", "holds", "z", "first_failure")

    def __init__(self, residue: int, period: int, holds: bool, z: int | None,
                 first_failure: int | None) -> None:
        _bind(self, "residue", residue)
        _bind(self, "period", period)
        _bind(self, "holds", holds)
        _bind(self, "z", z)
        _bind(self, "first_failure", first_failure)


def eventual_balance(spec: SymmetricSpec, profile: WeightProfile, residue: int) -> EventualBalanceReport:
    """Check whether delta[a] + delta[residue - a] == (-1)**(a-1) * z for all a."""
    dv = delta_vector(spec, profile)
    period = dv.period
    res = residue % period
    z = -(dv.values[0] + dv.values[res])
    for a in range(period):
        t = dv.values[a] + dv.values[(res - a) % period]
        want = z if a % 2 else -z
        if t != want:
            return EventualBalanceReport(res, period, False, None, a)
    return EventualBalanceReport(res, period, True, z, None)


class WindowEntry(Record):
    """One index of a balance window report.

    ``pre_threshold`` marks indices that are balanced although the residue
    criterion rejects their residue; those can only occur below the (finite
    but not explicitly known) threshold index of the eventual-balance law.
    """

    _fields = ("n_total", "inner_n", "residue", "sign_sum", "balanced", "status",
               "criterion_holds", "z", "pre_threshold")

    def __init__(self, n_total: int, inner_n: int, residue: int, sign_sum: int,
                 balanced: bool, status: BalanceStatus, criterion_holds: bool,
                 z: int | None, pre_threshold: bool) -> None:
        _bind(self, "n_total", n_total)
        _bind(self, "inner_n", inner_n)
        _bind(self, "residue", residue)
        _bind(self, "sign_sum", sign_sum)
        _bind(self, "balanced", balanced)
        _bind(self, "status", status)
        _bind(self, "criterion_holds", criterion_holds)
        _bind(self, "z", z)
        _bind(self, "pre_threshold", pre_threshold)


def balance_window_report(spec: SymmetricSpec, profile: WeightProfile,
                          n_total_start: int, n_total_end: int) -> list[WindowEntry]:
    """Classify every index in a window (one ``classify_range`` sweep) and
    compare with the residue criterion."""
    reports = {
        res: eventual_balance(spec, profile, res) for res in range(spec.period)
    }
    out: list[WindowEntry] = []
    for v in classify_range(spec, profile, n_total_start, n_total_end,
                            f"profile={list(profile.values)}"):
        res = v.inner_n % spec.period
        rep = reports[res]
        if rep.holds and not v.balanced:
            raise VerificationError(
                f"residue criterion promises balance at n_total={v.n_total} "
                f"but sign sum is {v.sign_sum}"
            )
        out.append(
            WindowEntry(
                n_total=v.n_total,
                inner_n=v.inner_n,
                residue=res,
                sign_sum=v.sign_sum,
                balanced=v.balanced,
                status=v.status,
                criterion_holds=rep.holds,
                z=rep.z,
                pre_threshold=v.balanced and not rep.holds,
            )
        )
    return out


# ---------------------------------------------------------------------------
# structural balanced families
# ---------------------------------------------------------------------------

def parity_function(j: int) -> BooleanFunction:
    """XOR of all j variables."""
    table = 0
    for x in range(1 << j):
        table |= (x.bit_count() & 1) << x
    return BooleanFunction(j, table)


def single_variable() -> BooleanFunction:
    """The function x1 on one variable."""
    return BooleanFunction(1, 0b10)


def verify_x1_family(k: int, m_values) -> list[int]:
    """Verify the single-variable perturbation of degree k is trivially
    balanced at every index 2**r * m + k - 1.

    Returns the verified indices; raises VerificationError on any failure.
    """
    if k < 1:
        raise ValueError("degree must be positive")
    spec = SymmetricSpec((k,))
    profile = WeightProfile(1, (1, -1))
    out: list[int] = []
    for m in m_values:
        if m < 1:
            raise ValueError("family parameter m must be positive")
        n_total = spec.period * m + k - 1
        verdict = classify(spec, profile, n_total)
        if verdict.status is not BalanceStatus.TRIVIAL:
            raise VerificationError(
                f"degree {k}, index {n_total}: expected trivial balance, got "
                f"{verdict.status.value} (sign sum {verdict.sign_sum})"
            )
        out.append(n_total)
    return out


def verify_even_linear_family(l: int, D: int, m: int) -> tuple[int, int]:
    """Verify the two-sided family with an even linear perturbation.

    The XOR of 2m variables added to the degree 2**l set on 2**(l+1)*D - 1
    variables, and to the degree 2**l + 1 set on 2**(l+1)*D variables, are
    both trivially balanced.  All of l, D, m must be positive; with l = 0
    the second member genuinely fails (the XOR of two variables added to the
    degree-2 set on two variables has sign sum 4).  Returns the two verified
    indices.
    """
    if l < 1 or D < 1 or m < 1:
        raise ValueError("need l >= 1, D >= 1, m >= 1")
    j = 2 * m
    n1 = (1 << (l + 1)) * D - 1
    n2 = (1 << (l + 1)) * D
    if n1 <= j:
        raise ValueError("perturbation does not fit below the first index")
    profile = weight_profile(parity_function(j))
    for n_total, k in ((n1, 1 << l), (n2, (1 << l) + 1)):
        verdict = classify(SymmetricSpec((k,)), profile, n_total)
        if verdict.status is not BalanceStatus.TRIVIAL:
            raise VerificationError(
                f"degree {k}, index {n_total}, parity width {j}: expected trivial "
                f"balance, got {verdict.status.value} (sign sum {verdict.sign_sum})"
            )
    return n1, n2


def periodic_propagation(spec: SymmetricSpec, profile: WeightProfile, n_total: int,
                         m_max: int) -> list[int]:
    """Verify trivial balance propagates from n_total in steps of the period.

    Requires the base case itself to be trivially balanced; returns all
    verified indices including the base.
    """
    if m_max < 0:
        raise ValueError("need m_max >= 0")
    base = classify(spec, profile, n_total)
    if base.status is not BalanceStatus.TRIVIAL:
        raise VerificationError(
            f"base index {n_total} is {base.status.value}, not trivially balanced"
        )
    out = [n_total]
    for m in range(1, m_max + 1):
        n = n_total + m * spec.period
        verdict = classify(spec, profile, n)
        if verdict.status is not BalanceStatus.TRIVIAL:
            raise VerificationError(
                f"propagated index {n}: expected trivial balance, got "
                f"{verdict.status.value} (sign sum {verdict.sign_sum})"
            )
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# classical identity families behind sporadic witnesses
# ---------------------------------------------------------------------------

def fibonacci(n: int) -> int:
    if n < 0:
        raise ValueError("index must be nonnegative")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def luca_szalay_gap(t: int) -> int:
    """Gap of the three-term identity C(m-2, a-2) - 2C(m-2, a-1) + C(m-2, a)
    with m = t*t and a = (t*t + t)/2; zero for every |t| >= 3."""
    if abs(t) < 3:
        raise ValueError("identity requires |t| >= 3")
    m = t * t
    a = (m + t) // 2
    return comb(m - 2, a - 2) - 2 * comb(m - 2, a - 1) + comb(m - 2, a)


def singmaster_parameters(i: int) -> tuple[int, int]:
    """Parameters (n, k) of the i-th two-adjacent-entries coincidence."""
    if i < 1:
        raise ValueError("index must be positive")
    n = fibonacci(2 * i + 2) * fibonacci(2 * i + 3) - 1
    k = fibonacci(2 * i) * fibonacci(2 * i + 3) - 1
    return n, k


def singmaster_gap(i: int) -> int:
    """Gap of C(n, k) + C(n, k+1) - C(n, k+2) at the i-th coincidence; zero.

    With C(n, k+1) = C(n, k) * (n-k) / (k+1) and C(n, k+2) = C(n, k+1) *
    (n-k-1) / (k+2), the gap is C(n, k) * num / ((k+1)(k+2)) exactly, where
    num = (k+1)(k+2) + (n-k)(k+2) - (n-k)(n-k-1).  So the identity is decided
    by num alone, and the binomial is computed only for a nonzero gap.
    """
    n, k = singmaster_parameters(i)
    num = (k + 1) * (k + 2) + (n - k) * (k + 2) - (n - k) * (n - k - 1)
    if num == 0:
        return 0
    return comb(n, k) * num // ((k + 1) * (k + 2))
