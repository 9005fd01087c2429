"""The value records: equality, hashing, immutability and repr, and what
importing the command line loads."""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from symsum.balance import (
    BalanceVerdict,
    EventualBalanceReport,
    WindowEntry,
    balance_window_report,
    classify,
    eventual_balance,
)
from symsum.boolean_core import AnfExpression, BooleanFunction, WeightProfile, anf_parse
from symsum.diophantine import (
    FoldedKey,
    GammaAlphabet,
    SolutionVector,
    canonical_key,
    enumerate_classes,
    enumerate_solutions,
    enumerate_trivial_solutions,
)
from symsum.expsum import DeltaVector, SymmetricSpec, delta_vector
from symsum.recurrence import CyclotomicValue, RecurrencePoly, d0
from symsum.search_cli import Campaign, ScanCounters

SRC = Path(__file__).resolve().parent.parent / "src"

X1 = WeightProfile(1, (1, -1))
X1X2 = WeightProfile(2, (1, -2, 1))

# (class, field names in order, a function building a fresh record); each
# call builds its record anew, so two calls give equal records that are not
# the same object.
FROZEN = [
    (AnfExpression, ("terms",), lambda: anf_parse("x1*x2 + x3")),
    (BooleanFunction, ("j", "table"), lambda: BooleanFunction(2, 0b0110)),
    (WeightProfile, ("j", "values"), lambda: WeightProfile(2, [1, -2, 1])),
    (GammaAlphabet, ("j",), lambda: GammaAlphabet(2)),
    (SolutionVector, ("n", "entries"), lambda: SolutionVector(4, [0, 1, -2, 2, 0])),
    (FoldedKey, ("n", "half", "center", "is_zero"), lambda: FoldedKey(4, [2, 1], -1, False)),
    (SymmetricSpec, ("degrees",), lambda: SymmetricSpec([2, 3])),
    (DeltaVector, ("j", "r", "values"), lambda: delta_vector(SymmetricSpec.of(3), X1)),
    (RecurrencePoly, ("coeffs", "label"), lambda: RecurrencePoly([-2, 1], "X-2")),
    (CyclotomicValue, ("r", "coeffs", "denom"), lambda: CyclotomicValue(2, (2, 4), 2)),
    (BalanceVerdict,
     ("n_total", "degrees", "j", "perturbation", "sign_sum", "status", "witness", "key"),
     lambda: classify(SymmetricSpec.of(14), X1X2, 24)),
    (EventualBalanceReport, ("residue", "period", "holds", "z", "first_failure"),
     lambda: eventual_balance(SymmetricSpec.of(4), X1, 3)),
    (WindowEntry,
     ("n_total", "inner_n", "residue", "sign_sum", "balanced", "status", "criterion_holds",
      "z", "pre_threshold"),
     lambda: balance_window_report(SymmetricSpec.of(4), X1, 6, 6)[0]),
    (Campaign, ("k_max", "n_max", "n_convention", "perturbations", "sporadic_only"),
     lambda: Campaign(4, 4, "total", (("x1", (1, -1)),))),
]
RECORDS = FROZEN + [
    (ScanCounters, ("candidates", "balanced", "trivial", "sporadic"),
     lambda: ScanCounters(5, 3, 2, 1)),
]


def _ids(cases):
    return [cls.__name__ for cls, _, _ in cases]


@pytest.mark.parametrize("cls, fields, make", FROZEN, ids=_ids(FROZEN))
def test_equal_fields_give_equal_records_with_equal_hashes(cls, fields, make):
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls, fields, make", RECORDS, ids=_ids(RECORDS))
def test_a_record_equals_neither_its_fields_nor_another_class(cls, fields, make):
    record = make()
    values = tuple(getattr(record, name) for name in fields)
    assert record != values
    if len(values) == 1:
        assert record != values[0]
    for other_cls, _, other_make in RECORDS:
        if other_cls is not cls:
            assert record != other_make()


@pytest.mark.parametrize("cls, fields, make", FROZEN, ids=_ids(FROZEN))
def test_assignment_and_deletion_raise(cls, fields, make):
    record = make()
    for name in fields:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert record == make()


@pytest.mark.parametrize("cls, fields, make", RECORDS, ids=_ids(RECORDS))
def test_repr_names_the_class_and_its_fields(cls, fields, make):
    record = make()
    text = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
    assert repr(record) == f"{cls.__name__}({text})"


def test_scan_counters_are_mutable_and_unhashable():
    counters = ScanCounters()
    counters.add(ScanCounters(5, 3, 2, 1))
    counters.sporadic += 1
    assert counters == ScanCounters(5, 3, 2, 2)
    assert counters.to_json() == {"candidates": 5, "balanced": 3, "trivial": 2, "sporadic": 2}
    with pytest.raises(TypeError):
        hash(counters)


def test_unchecked_key_equals_the_checked_one():
    for n in (4, 5, 8):
        for key, rep in enumerate_classes(n, 1).items():
            unchecked = canonical_key(rep)
            checked = FoldedKey(key.n, key.half, key.center, key.is_zero)
            assert type(unchecked) is FoldedKey
            assert unchecked == key == checked and hash(unchecked) == hash(checked)
            assert repr(unchecked) == repr(checked)
    # every solution and trivial solution of a small cell, beyond the class
    # representatives: non-primitive, negative-first and zero-fold vectors
    seen = {"non-primitive": 0, "negative first": 0, "zero fold": 0}
    for n in range(1, 7):
        for j in range(3):
            vectors = list(enumerate_solutions(n, j))
            if j:
                vectors += enumerate_trivial_solutions(n, j)
            for v in vectors:
                key = v.key
                checked = FoldedKey(key.n, key.half, key.center, key.is_zero)
                for other in (canonical_key(v), checked):
                    assert type(other) is FoldedKey
                    assert key == other and hash(key) == hash(other)
                    assert repr(key) == repr(other)
                seen["non-primitive"] += gcd(*v.entries) > 1
                seen["negative first"] += v.entries[0] < 0
                seen["zero fold"] += key.is_zero and any(v.entries)
    assert all(seen.values()), seen


def test_cached_sign_row_leaves_equality_alone():
    spec = SymmetricSpec.of(2, 3)
    assert spec.sign_row == (1, 1, -1, 1)
    assert spec == SymmetricSpec.of(2, 3) and hash(spec) == hash(SymmetricSpec.of(2, 3))
    assert repr(spec) == "SymmetricSpec(degrees=(2, 3))"


def _loaded_by_cli_import(names: set[str]) -> str:
    """The sorted list of ``names`` found in sys.modules after a fresh
    interpreter imports symsum.search_cli, as printed."""
    # -S keeps the site-packages .pth files, and whatever they import, out.
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import symsum.search_cli; "
        f"print(sorted({set(names)!r} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, check=False)
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    assert _loaded_by_cli_import({"dataclasses", "inspect"}) == "[]\n"


def test_cli_import_loads_no_hashlib_fractions_or_typing():
    # hashlib (with OpenSSL) is imported by Campaign.digest, fractions (with
    # decimal) by the functions that return a Fraction
    assert _loaded_by_cli_import({"hashlib", "fractions", "decimal", "typing"}) == "[]\n"
    campaign = Campaign(17, 17, "total", (("x1", (1, -1)), ("x1x2", (1, -2, 1))), True)
    assert campaign.digest() == "d29640b9dd8f5bfb"
    assert type(d0(SymmetricSpec.of(2, 3), X1)) is Fraction
    assert type(CyclotomicValue.from_int(2, 3).as_fraction()) is Fraction
