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

from collections.abc import Callable, Iterator
from enum import Enum
from math import comb

from .boolean_core import BooleanFunction, Record, WeightProfile, weight_profile
from .diophantine import _fold, _fold_key
from .expsum import (
    SymmetricSpec,
    delta_row,
    delta_vector,
    periodic_binomial_sums,
    sign_row,
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
                row = witness_row(sign_row(spec.degrees, n_hi), profile.values, n_hi - j + 1)
            inner_n = n_total - j
            yield classify_zero(
                spec.degrees, j, n_total, perturbation,
                lambda: f"sign-sum sweep gives 0 at n_total={n_total} (inner n={inner_n}, "
                        f"degrees {list(spec.degrees)}) for profile {list(profile.values)} "
                        f"but its witness fails its equation",
                row[:inner_n + 1],
            )

    return verdicts()


def witness_row(signs: list[int], values: tuple[int, ...], length: int) -> list[int]:
    """``delta_row`` of the profile ``values`` at indices 0..length - 1, halved
    when it perturbs j >= 1 variables: the presentation-scale witness of a
    zero at inner_n = length - 1, and of any smaller inner_n as its prefix.
    ``signs`` is the degree set's ``sign_row`` of length + j - 1 or more weights."""
    row = delta_row(signs, values, length)
    return [x // 2 for x in row] if len(values) > 1 else row


def classify_zero(degrees: tuple[int, ...], j: int, n_total: int, perturbation: str,
                  context: Callable[[], str], witness: list[int]) -> BalanceVerdict:
    """Verdict of a zero sign sum: trivial or sporadic, with witness and key.

    ``witness`` is the ``witness_row`` along indices 0..inner_n = n_total - j
    (inner_n >= 1) of a profile on j variables.  Its equation sum over l of
    x_l * C(inner_n, l) = 0 is the sign sum S / 2 (S itself at j = 0), so a
    claimed zero that is false fails it, as does a witness of another length:
    VerificationError "<context()>: <reason>", the context formatted only then.
    """
    inner_n = n_total - j
    entries = tuple(witness)
    try:
        if len(entries) != inner_n + 1:
            raise ValueError(f"expected {inner_n + 1} entries, got {len(entries)}")
        key = _fold_key(inner_n, _fold(entries))
    except ValueError as exc:
        raise VerificationError(f"{context()}: {exc}") from exc
    status = BalanceStatus.TRIVIAL if key.is_trivial else BalanceStatus.SPORADIC
    return BalanceVerdict(n_total, degrees, j, perturbation, 0, status, entries, key)


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
        out.append(WindowEntry(v.n_total, v.inner_n, res, v.sign_sum, v.balanced, v.status,
                               rep.holds, rep.z, v.balanced and not rep.holds))
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


def _expect_verdict(spec: SymmetricSpec, profile: WeightProfile, n_total: int,
                    status: BalanceStatus, key=None) -> None:
    """``classify`` at n_total; VerificationError unless the verdict has
    ``status`` and, when ``key`` is given, that class key."""
    verdict = classify(spec, profile, n_total)
    where = f"degrees {list(spec.degrees)}, index {n_total}, profile {list(profile.values)}"
    if verdict.status is not status:
        raise VerificationError(f"{where}: expected {status.value}, got "
                                f"{verdict.status.value} (sign sum {verdict.sign_sum})")
    if key is not None and verdict.key != key:
        raise VerificationError(f"{where}: witness outside the expected solution class")


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
        _expect_verdict(spec, profile, n_total, BalanceStatus.TRIVIAL)
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
        _expect_verdict(SymmetricSpec((k,)), profile, n_total, BalanceStatus.TRIVIAL)
    return n1, n2


def periodic_propagation(spec: SymmetricSpec, profile: WeightProfile, n_total: int,
                         m_max: int) -> list[int]:
    """Verify trivial balance propagates from n_total in steps of the period.

    Requires the base case itself to be trivially balanced; returns all
    verified indices including the base.
    """
    if m_max < 0:
        raise ValueError("need m_max >= 0")
    out = [n_total + m * spec.period for m in range(m_max + 1)]
    for n in out:
        _expect_verdict(spec, profile, n, BalanceStatus.TRIVIAL)
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
