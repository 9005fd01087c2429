"""Command line interface and exhaustive search campaigns."""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from symsum import (
    BalanceStatus,
    SolutionVector,
    SymmetricSpec,
    WeightProfile,
    canonical_key,
    classify,
    enumerate_classes,
    exp_sum_symmetric,
    weight_profile,
)
from symsum import balance, diophantine, expsum, search_cli
from symsum.search_cli import Campaign, main, run_search

from conftest import (
    all_functions,
    brute_force_sign_sum,
    key_record,
    read_findings,
    verdict_record,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env() -> dict[str, str]:
    """This process's environment with ``src`` first on PYTHONPATH, so that a
    child interpreter imports the checkout's symsum."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


DEGREE4_ROW = (2, 4, 8, 14, 20, 20, 0, -68, -232, -560)
DEGREE5_ROW = (2, 4, 8, 16, 30, 52, 84, 128, 188, 280)


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# expsum / classify
# ---------------------------------------------------------------------------

class TestExpsumCommand:
    def test_table_row(self, capsys):
        code, out, _ = run_main(capsys, ["expsum", "--degrees", "4", "--n", "1..10"])
        assert code == 0
        rows = [tuple(map(int, line.split())) for line in out.strip().splitlines()]
        assert rows == [(n, s) for n, s in zip(range(1, 11), DEGREE4_ROW)]

    def test_perturbed_row_json(self, capsys):
        code, out, _ = run_main(
            capsys,
            ["expsum", "--degrees", "4", "--n", "2..10", "--profile", "1,-1", "--json"],
        )
        assert code == 0
        recs = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["S"] for r in recs] == [0, 0, 2, 8, 20, 40, 68, 96, 96]
        assert all(r["perturbation"] == "profile:1,-1" for r in recs)

    def test_anf_perturbation(self, capsys):
        code, out, _ = run_main(
            capsys, ["expsum", "--degrees", "4", "--n", "4..7", "--anf", "x1"]
        )
        assert code == 0
        values = [int(line.split()[1]) for line in out.strip().splitlines()]
        assert values == [2, 8, 20, 40]

    def test_no_room_for_perturbation(self, capsys):
        code, _, err = run_main(
            capsys, ["expsum", "--degrees", "4", "--n", "2", "--profile", "1,-2,1"]
        )
        assert code == 2
        assert "error:" in err

    def test_both_perturbation_flags_rejected(self, capsys):
        code, _, err = run_main(
            capsys,
            ["expsum", "--degrees", "4", "--n", "5", "--anf", "x1", "--profile", "1,-1"],
        )
        assert code == 2

    def test_bad_range(self, capsys):
        code, _, err = run_main(capsys, ["expsum", "--degrees", "4", "--n", "9..2"])
        assert code == 2
        assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["expsum", "--degrees", "3", "--n", "2..4"],
        ["classify", "--degrees", "3", "--n", "2..4"],
        ["search", "--k-max", "3", "--n-max", "4"],
    ],
    ids=["expsum", "classify", "search"],
)
@pytest.mark.parametrize(
    "flag, message",
    [("--profile", "--profile needs at least one weight"),
     ("--anf", "empty expression (at position 0)")],
)
def test_empty_perturbation_is_a_usage_error(capsys, argv, flag, message):
    # an empty value is a perturbation that fails to parse, not an absent flag
    code, out, err = run_main(capsys, argv + [flag, ""])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [["expsum", "--degrees", "3", "--n", "4"], ["search", "--k-max", "3", "--n-max", "4"]],
    ids=["expsum", "search"],
)
@pytest.mark.parametrize("text", ["1,,-1", "1,-1,", "1,a", "1,x", "1.5,-1", "1,-2 1"])
def test_malformed_profile_field_is_a_usage_error(capsys, argv, text):
    # an empty or non-integer field is refused, not dropped or reported by int()
    code, out, err = run_main(capsys, argv + ["--profile", text])
    assert code == 2
    assert out == ""
    assert err == f"error: --profile needs comma-separated integers, got {text!r}\n"


@pytest.mark.parametrize("command", ["expsum", "classify"])
@pytest.mark.parametrize("text", ["", "3,,4", "3,4,", ",3", "3,a", "2.5", "3 4"])
def test_malformed_degrees_field_is_a_usage_error(capsys, command, text):
    # an empty or non-integer field is refused, not dropped or reported by int()
    code, out, err = run_main(capsys, [command, "--degrees", text, "--n", "5"])
    assert code == 2
    assert out == ""
    assert err == f"error: --degrees needs comma-separated integers, got {text!r}\n"


@pytest.mark.parametrize("command", ["expsum", "classify"])
def test_degrees_past_the_bound_are_refused(capsys, monkeypatch, command):
    # the sign row of a top degree near 10**8 would take a period of 2**27
    # weights, so it must be refused before any sign row is built
    def refuse(word, n):
        raise AssertionError(f"sign row built up to {n}")

    monkeypatch.setattr(expsum, "_subset_xor", refuse)
    code, out, err = run_main(capsys, [command, "--degrees", "100000000", "--n", "5"])
    assert (code, out) == (2, "")
    assert err == "error: --degrees needs degrees below 16384, got 100000000\n"
    assert search_cli.DEGREE_BOUND == 2 ** 14
    assert search_cli._parse_degrees("3,16383").top_degree == 16383
    with pytest.raises(search_cli.SystemExit2, match="below 16384, got 16384"):
        search_cli._parse_degrees("16384")


@pytest.mark.parametrize(
    "argv, flag",
    [(["expsum", "--degrees", "3", "--n"], "--n"),
     (["classify", "--degrees", "3", "--n"], "--n"),
     (["gamma", "--n", "3", "--j"], "--j"),
     (["omega", "--j", "1", "--n"], "--n")],
    ids=["expsum", "classify", "gamma", "omega"],
)
@pytest.mark.parametrize("text", ["", "a..5", "5..", "..5", "1.5", "2..3..4", "5..2"])
def test_malformed_range_is_a_usage_error(capsys, argv, flag, text):
    code, out, err = run_main(capsys, argv + [text])
    assert code == 2
    assert out == ""
    need = "lo <= hi" if text == "5..2" else "an integer or a range lo..hi"
    assert err == f"error: {flag} needs {need}, got {text!r}\n"


@pytest.mark.parametrize("argv, message", [
    (["gamma", "--n", "0", "--j", "1"], "--n needs values >= 1, got '0'"),
    (["gamma", "--n", "1", "--j", "-1"], "--j needs values >= 0, got '-1'"),
    (["omega", "--n", "0", "--j", "1"], "--n needs values >= 1, got '0'"),
    (["omega", "--n", "0..3", "--j", "1"], "--n needs values >= 1, got '0..3'"),
    (["omega", "--n", "3", "--j", "0..2"], "--j needs values >= 1, got '0..2'"),
])
def test_range_below_its_flags_least_value_is_a_usage_error(capsys, argv, message):
    # checked here, not left to the library's "need n >= 1" or to a negative shift
    code, out, err = run_main(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["expsum", "--degrees", "3", "--n", "16384"], "--n needs values below 16384, got '16384'"),
    (["expsum", "--degrees", "3", "--n", "1..1000000000000"],
     "--n needs values below 16384, got '1..1000000000000'"),
    (["classify", "--degrees", "3", "--n", "16384"], "--n needs values below 16384, got '16384'"),
    (["classify", "--degrees", "3", "--n", "2..16384", "--profile", "1,-1"],
     "--n needs values below 16384, got '2..16384'"),
    (["conjecture-scan", "--k-max", "3", "--n-max", "16384"],
     "--n-max needs values below 16384, got 16384"),
    (["gamma", "--n", "1..1000000000000", "--j", "1"],
     "--n needs values below 16384, got '1..1000000000000'"),
    (["gamma", "--n", "16384", "--j", "1"], "--n needs values below 16384, got '16384'"),
    (["gamma", "--n", "1", "--j", "16384"], "--j needs values below 16384, got '16384'"),
    (["omega", "--n", "2..16384", "--j", "1"], "--n needs values below 16384, got '2..16384'"),
    (["omega", "--n", "1", "--j", "1..16384"], "--j needs values below 16384, got '1..16384'"),
], ids=["expsum", "expsum-range", "classify", "classify-range", "conjecture-scan",
        "gamma-range", "gamma-n", "gamma-j", "omega-n", "omega-j"])
def test_variable_counts_past_the_bound_are_refused(capsys, monkeypatch, argv, message):
    # classify_range over n = 2..16383 already takes about 40 s for one
    # degree set, so a larger count is refused before any sweep starts; the
    # gamma and omega grids list their whole ranges before the first cell
    def refuse(*args):
        raise AssertionError("sweep started")

    monkeypatch.setattr(search_cli, "periodic_binomial_sums", refuse)
    monkeypatch.setattr(search_cli, "classify_range", refuse)
    code, out, err = run_main(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
    assert search_cli.N_BOUND == 2 ** 14
    assert search_cli._parse_range("16382..16383", "--n", below=16384) == [16382, 16383]


@pytest.mark.parametrize("convention", ["total", "inner"])
def test_search_n_max_past_the_bound_is_refused(capsys, monkeypatch, tmp_path, convention):
    # Campaign.n_totals lists every variable count, so --n-max 10**9 ran out
    # of memory; --k-max needs no bound, since chunks past the last top
    # degree are skipped
    def refuse(*args):
        raise AssertionError("campaign started")

    monkeypatch.setattr(search_cli, "_scan_leading_degree", refuse)
    out_path, checkpoint = tmp_path / "out.jsonl", tmp_path / "ckpt.json"
    code, out, err = run_main(capsys, [
        "search", "--k-max", "1", "--n-max", "16384", "--n-convention", convention,
        "--out", str(out_path), "--checkpoint", str(checkpoint),
    ])
    assert (code, out) == (2, "")
    assert err == "error: --n-max needs values below 16384, got 16384\n"
    assert not out_path.exists() and not checkpoint.exists()


@pytest.mark.parametrize("argv", [["expsum"], ["expsum", "--json"], ["classify"]],
                         ids=["expsum", "expsum-json", "classify"])
def test_sums_past_the_int_to_text_limit_print_in_full(capsys, argv):
    # S at n = 14400 has more digits than Python converts to text by default
    limit = sys.get_int_max_str_digits()
    with search_cli._any_digits():
        want = str(exp_sum_symmetric(14400, SymmetricSpec.of(3)))
    assert len(want) > 4300
    code, out, err = run_main(capsys, argv + ["--degrees", "3", "--n", "14400"])
    assert (code, err) == (0, "")
    if argv == ["expsum"]:
        assert out == f"14400 {want}\n"
    else:
        assert f'"S": {want},' in out
    assert sys.get_int_max_str_digits() == limit


def test_flag_values_past_the_int_to_text_limit_are_still_refused(capsys, tmp_path):
    # the limit is lifted only while output is printed, not while flags are read
    digits = "9" * 5000
    code, out, err = run_main(capsys, ["expsum", "--degrees", "3", "--n", digits])
    assert (code, out) == (2, "")
    assert err == f"error: --n needs an integer or a range lo..hi, got {digits!r}\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"degrees = {digits}\nn = 5\n")
    code, out, err = run_main(capsys, ["--config", str(cfg), "expsum"])
    assert (code, out) == (2, "")
    assert err == f"error: --degrees needs comma-separated integers, got {digits!r}\n"


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    # a ValueError raised after the flags are converted is a fault: it
    # propagates with its traceback, and the interpreter exits 1
    real = expsum.delta_row

    def odd_first_entry(*args):
        row = real(*args)
        row[0] += 1
        return row

    monkeypatch.setattr(expsum, "delta_row", odd_first_entry)
    with pytest.raises(ValueError, match="entry 0 must be even when j >= 1"):
        main(["expsum", "--degrees", "3", "--n", "5", "--profile", "1,-1"])


def test_spaced_degrees_and_range_still_parse(capsys):
    code, out, _ = run_main(capsys, ["expsum", "--degrees", " 3, 4", "--n", " 4 .. 5 "])
    assert code == 0
    assert out == run_main(capsys, ["expsum", "--degrees", "3,4", "--n", "4..5"])[1]


@pytest.mark.parametrize("command", ["expsum", "classify"])
def test_anf_variable_count_zero_is_not_ignored(capsys, command):
    argv = [command, "--degrees", "3", "--n", "2..4"]
    code, out, err = run_main(capsys, argv + ["--anf", "x1", "--vars", "0"])
    assert code == 2
    assert out == ""
    assert err == "error: expression uses x1 but only 0 variables given\n"
    code, out, err = run_main(capsys, argv + ["--anf", "1"])
    assert code == 2
    assert out == ""
    assert err == "error: constant expressions carry no variables; use --profile\n"


@pytest.mark.parametrize("argv", [
    ["classify", "--degrees", "3", "--n", "5", "--profile", "1,-1", "--vars", "3"],
    ["expsum", "--degrees", "3", "--n", "5", "--vars", "3"],
    ["classify", "--degrees", "3", "--n", "5", "--vars", "0"],
])
def test_vars_without_anf_is_a_usage_error(capsys, argv):
    code, out, err = run_main(capsys, argv)
    assert code == 2
    assert out == ""
    assert "--vars needs --anf" in err


class TestClassifyCommand:
    def test_sporadic_record(self, capsys):
        code, out, _ = run_main(
            capsys, ["classify", "--degrees", "14", "--n", "24", "--profile", "1,-2,1"]
        )
        assert code == 0
        rec = json.loads(out.strip())
        assert rec["status"] == "sporadic"
        assert rec["S"] == 0
        wit = rec["witness"]
        assert wit[12:16] == [-1, 1, 1, -1]
        assert all(v == 0 for i, v in enumerate(wit) if not 12 <= i < 16)

    def test_range_emits_one_line_each(self, capsys):
        code, out, _ = run_main(
            capsys, ["classify", "--degrees", "14", "--n", "23..25", "--profile", "1,-2,1"]
        )
        assert code == 0
        recs = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["status"] for r in recs] == ["not_balanced", "sporadic", "not_balanced"]
        assert recs[0]["witness"] is None

    def test_rejected_witness_exits_1(self, capsys, monkeypatch):
        # an internal fault, not a usage error: the witness check alone is broken
        real = diophantine._binomial_half_row

        def faulty(n):
            row = real(n)
            row[1] += 1
            return row

        monkeypatch.setattr(diophantine, "_binomial_half_row", faulty)
        code, out, err = run_main(capsys, ["classify", "--degrees", "1,2,3,5,7", "--n", "8"])
        assert code == 1
        assert out == ""
        assert err.startswith("verification failed: ")
        assert "weighted sum is -2" in err


def test_verdict_lines_are_the_json_encoder_bytes():
    # search --out and classify write each verdict with _verdict_line, whose
    # bytes must be json.dumps(sort_keys=True) of the verdict's record: for
    # every status, odd and even inner counts (center null and an int), the
    # zero class, profiles on 0..3 variables, --profile and --anf
    # descriptors, one that JSON escapes, and a sign sum past 4300 digits
    perturbations = [search_cli._perturbation(values, None, None)
                     for values in ((1,), (1, -1), (1, -2, 1))]
    perturbations += [search_cli._perturbation(None, "x1*x2 + x3", None),
                      ('anf:"x1" \\ é', (1, -1))]
    verdicts = [
        v for desc, values in perturbations
        for degs in itertools.chain.from_iterable(
            itertools.combinations(range(1, 8), size) for size in range(1, 8))
        for v in search_cli.classify_range(
            SymmetricSpec(degs), WeightProfile(len(values) - 1, values), len(values), 13, desc)
    ]
    assert {(v.j, v.status) for v in verdicts} == set(itertools.product(range(4), BalanceStatus))
    # the zero class at both parities, the alternating class at even n
    assert {(v.status.value, v.inner_n % 2, v.key.is_zero) for v in verdicts if v.key} == {
        ("trivial", 0, True), ("trivial", 1, True), ("trivial", 0, False),
        ("sporadic", 0, False), ("sporadic", 1, False)}
    for v in verdicts:
        escaped = json.dumps(v.perturbation)
        assert search_cli._verdict_line(v, escaped) == json.dumps(verdict_record(v),
                                                                  sort_keys=True), v
    huge = classify(SymmetricSpec.of(8191), WeightProfile(0, (1,)), 15000, "f=0")
    with search_cli._any_digits():
        assert len(str(huge.sign_sum)) > 4300
        assert search_cli._verdict_line(huge, '"f=0"') == json.dumps(verdict_record(huge),
                                                                      sort_keys=True)


# ---------------------------------------------------------------------------
# count tables
# ---------------------------------------------------------------------------

class TestGammaCommand:
    def test_small_grid_csv(self, capsys):
        code, out, _ = run_main(capsys, ["gamma", "--n", "1..6", "--j", "1..2", "--csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "j\\n,1,2,3,4,5,6"
        assert lines[1] == "1,3,5,9,15,39,45"
        assert lines[2] == "2,5,13,41,103,275,685"

    def test_budget_stars(self, capsys):
        code, out, _ = run_main(
            capsys, ["gamma", "--n", "1..8", "--j", "3", "--csv", "--budget", "1e6"]
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[0] == "3"
        assert "*" in row
        # refused cells sit to the right of computed ones
        stars = [i for i, cell in enumerate(row) if cell == "*"]
        assert stars == list(range(stars[0], len(row)))

    def test_huge_level_is_a_star_without_building_its_alphabet(self, capsys):
        code, out, _ = run_main(capsys, ["gamma", "--n", "1", "--j", "40"])
        assert (code, out) == (0, "count   n=1\nj=40      *\n")

    def test_cross_check(self, capsys):
        code, out, _ = run_main(
            capsys, ["gamma", "--n", "1..5", "--j", "1..2", "--cross-check"]
        )
        assert code == 0
        checks = [l for l in out.splitlines() if l.startswith("cross-check")]
        assert len(checks) == 10
        assert all(l.endswith("ok") for l in checks)

    def test_cross_check_skips_cells_over_the_recount_bound(self, capsys):
        # (20, 1) has integral metric 2**21, just over the bound; its direct
        # count is cheap, so only the recount is skipped
        code, out, _ = run_main(
            capsys, ["gamma", "--n", "20", "--j", "1", "--budget", "1e18", "--cross-check"]
        )
        assert code == 0
        assert out.splitlines()[-1] == (
            "cross-check n=20 j=1: skipped (integral metric 2097152 exceeds budget 2000000)"
        )

    def test_recount_bound_admits_every_cross_checked_cell(self):
        # the cells the tests, the README and the benchmark recount
        for n in range(1, 9):
            for j in range(1, 4):
                assert diophantine.gamma_integral_metric(n, j) <= search_cli.CROSS_CHECK_BUDGET

    def test_cross_check_at_level_zero_is_refused_before_any_work(self, capsys):
        code, out, err = run_main(
            capsys, ["gamma", "--n", "1..3", "--j", "0..1", "--cross-check"]
        )
        assert code == 2
        assert out == ""
        assert "error:" in err


class TestOmegaCommand:
    def test_small_grid_csv(self, capsys):
        code, out, _ = run_main(capsys, ["omega", "--n", "1..8", "--j", "1", "--csv"])
        assert code == 0
        assert out.strip().splitlines()[1] == "1,1,2,1,3,2,3,3,7"

    def test_classes_out(self, capsys, tmp_path):
        path = tmp_path / "classes.jsonl"
        code, _, _ = run_main(
            capsys, ["omega", "--n", "4", "--j", "2", "--classes-out", str(path)]
        )
        assert code == 0
        recs = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(recs) == 5
        reps = (
            (0, 0, 0, 0, 0),
            (0, 1, -2, 2, 0),
            (2, -2, 1, 0, 0),
            (2, 1, -1, 0, 0),
            (2, -1, 0, 0, 2),
        )
        want_json = {
            json.dumps(key_record(canonical_key(SolutionVector(4, r))), sort_keys=True)
            for r in reps
        }
        got_json = {json.dumps(r["key"], sort_keys=True) for r in recs}
        assert got_json == want_json
        for rec in recs:
            v = SolutionVector(rec["n"], tuple(rec["realizable_example"]))
            assert key_record(canonical_key(v)) == rec["key"]

    def test_classes_out_at_n8_j4_is_pinned(self, capsys, tmp_path):
        path = tmp_path / "classes.jsonl"
        code, out, err = run_main(
            capsys, ["omega", "--n", "8", "--j", "4", "--classes-out", str(path)]
        )
        assert (code, out, err) == (0, "class    n=8\nj=4     5076\n", "")
        body = path.read_bytes()
        assert body.count(b"\n") == 5076
        assert hashlib.sha256(body).hexdigest() == (
            "1ac826d0a580cd07f55c2a5aecd2e74082e86c79a36b7d64b28a25a34f554a7e")

    def test_classes_out_lines_are_the_json_encoder_bytes(self, capsys, tmp_path):
        # each line is json.dumps(sort_keys=True) of the record dict, in the
        # order of (zero class last, half, center)
        path = tmp_path / "classes.jsonl"
        cells = [(n, j) for n in range(1, 10) for j in range(1, 4)] + [(8, 4)]
        for n, j in cells:
            code, _, _ = run_main(
                capsys, ["omega", "--n", str(n), "--j", str(j), "--classes-out", str(path)]
            )
            assert code == 0
            want = "".join(
                json.dumps({"n": n, "j": j, "key": key_record(key),
                            "realizable_example": list(rep)}, sort_keys=True) + "\n"
                for key, rep in sorted(
                    enumerate_classes(n, j).items(),
                    key=lambda kv: (kv[0].is_zero, kv[0].half, kv[0].center or 0),
                )
            )
            assert path.read_text() == want, (n, j)

    def test_classes_out_count_mismatch_is_a_verification_failure(
            self, capsys, monkeypatch, tmp_path):
        # the sweep's class count is checked against the Moebius count
        # before the file is opened or the grid printed
        count = search_cli.count_classes
        monkeypatch.setattr(search_cli, "count_classes", lambda n, j: count(n, j) + 1)
        path = tmp_path / "classes.jsonl"
        code, out, err = run_main(
            capsys, ["omega", "--n", "4", "--j", "2", "--classes-out", str(path)]
        )
        assert (code, out) == (1, "")
        assert err.startswith("verification failed: ")
        assert not path.exists()

    def test_classes_out_needs_single_cell(self, capsys, tmp_path):
        path = tmp_path / "x"
        code, out, err = run_main(
            capsys,
            ["omega", "--n", "1..4", "--j", "2", "--classes-out", str(path)],
        )
        assert code == 2
        assert "error:" in err
        assert out == ""
        assert not path.exists()

    def test_classes_out_over_budget_is_refused_before_any_output(self, capsys, tmp_path):
        path = tmp_path / "x"
        code, out, err = run_main(
            capsys, ["omega", "--n", "10", "--j", "4", "--classes-out", str(path)]
        )
        assert code == 2
        assert "exceeds budget" in err
        assert out == ""
        assert not path.exists()

    def test_classes_out_unwritable_path_is_refused_before_any_output(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x"
        code, out, err = run_main(
            capsys, ["omega", "--n", "4", "--j", "2", "--classes-out", str(path)]
        )
        assert code == 2
        assert "error:" in err
        assert out == ""

    def test_level_zero_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "x"
        code, out, err = run_main(
            capsys, ["omega", "--n", "6", "--j", "0", "--classes-out", str(path)]
        )
        assert code == 2
        assert "error:" in err
        assert out == ""
        assert not path.exists()


@pytest.mark.parametrize("command", ["gamma", "omega"])
@pytest.mark.parametrize("budget", ["nan", "-1", "-inf"])
def test_budget_must_be_nonnegative(capsys, command, budget):
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "9", "--j", "4", "--budget", budget])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command, n", [("gamma", "9"), ("omega", "10")])
def test_infinite_budget_computes_every_cell(capsys, command, n):
    # the default budget refuses both cells
    code, out, _ = run_main(capsys, [command, "--n", n, "--j", "4", "--csv"])
    assert code == 0
    assert "*" in out
    code, out, _ = run_main(
        capsys, [command, "--n", n, "--j", "4", "--csv", "--budget", "inf"]
    )
    assert code == 0
    assert "*" not in out


# ---------------------------------------------------------------------------
# search campaigns
# ---------------------------------------------------------------------------

class TestSearch:
    def small_campaign(self, **kw):
        defaults = dict(
            k_max=6,
            n_max=9,
            n_convention="total",
            perturbations=(("profile:1,-1", (1, -1)), ("profile:1,-2,1", (1, -2, 1))),
        )
        defaults.update(kw)
        return Campaign(**defaults)

    def test_counters_match_direct_recount(self, tmp_path):
        campaign = self.small_campaign()
        out = tmp_path / "findings.jsonl"
        counters, recorded = run_search(campaign, out)
        findings = read_findings(out)
        candidates = balanced = trivial = sporadic = 0
        recount: list[dict] = []
        for size in range(1, campaign.k_max + 1):
            for degs in itertools.combinations(range(1, campaign.k_max + 1), size):
                for desc, values in campaign.perturbations:
                    j = len(values) - 1
                    for n_total in campaign.n_totals(degs[-1], j):
                        candidates += 1
                        v = classify(
                            SymmetricSpec(degs), WeightProfile(j, values), n_total, desc
                        )
                        if not v.balanced:
                            continue
                        recount.append(verdict_record(v))
                        balanced += 1
                        if v.status is BalanceStatus.SPORADIC:
                            sporadic += 1
                        else:
                            trivial += 1
        assert counters.candidates == candidates
        assert counters.balanced == balanced == counters.trivial + counters.sporadic
        assert counters.trivial == trivial
        assert counters.sporadic == sporadic
        assert len(findings) == recorded == balanced
        # --out holds them in lex order of degree sets
        assert findings == sorted(
            recount, key=lambda r: (r["degrees"], r["n_total"], r["perturbation"])
        )

    def test_findings_reverify(self, tmp_path):
        campaign = self.small_campaign()
        out = tmp_path / "findings.jsonl"
        run_search(campaign, out)
        findings = read_findings(out)
        assert findings
        profiles = dict(campaign.perturbations)
        for rec in findings:
            values = profiles[rec["perturbation"]]
            assert rec == verdict_record(classify(
                SymmetricSpec(tuple(rec["degrees"])), WeightProfile(len(values) - 1, values),
                rec["n_total"], rec["perturbation"],
            ))

    def test_sporadic_only_filters_findings_not_counters(self, tmp_path):
        full_out, out = tmp_path / "full.jsonl", tmp_path / "sporadic.jsonl"
        full_counters, _ = run_search(self.small_campaign(), full_out)
        counters, recorded = run_search(self.small_campaign(sporadic_only=True), out)
        full_findings, findings = read_findings(full_out), read_findings(out)
        assert counters.trivial == full_counters.trivial > 0
        assert counters.sporadic == full_counters.sporadic
        assert len(findings) == recorded == counters.sporadic
        assert all(rec["status"] == "sporadic" for rec in findings)
        assert [r for r in full_findings if r["status"] == "sporadic"] == findings

    def test_inner_convention_scans_shifted_grid(self):
        campaign = self.small_campaign(n_convention="inner")
        assert campaign.n_totals(3, 2) == [inner + 2 for inner in range(3, 10)]
        counters, _ = run_search(campaign)
        assert counters.candidates > 0

    def test_repeated_perturbation_is_a_usage_error(self, capsys, tmp_path):
        # a repeated descriptor would scan and record every finding twice
        out_path = tmp_path / "findings.jsonl"
        code, out, err = run_main(
            capsys,
            ["search", "--k-max", "6", "--n-max", "9", "--profile", "1,-1",
             "--profile", "1,-1", "--sporadic-only", "--out", str(out_path)],
        )
        assert (code, out) == (2, "")
        assert err == "error: perturbation given more than once: profile:1,-1\n"
        assert not out_path.exists()
        with pytest.raises(ValueError, match="more than once"):
            self.small_campaign(perturbations=(("a", (1, -1)), ("a", (1, -2, 1))))

    def test_equal_profiles_are_a_usage_error(self, capsys, tmp_path):
        # --anf x1 has the profile (1, -1): the two flags name one perturbation
        out_path = tmp_path / "findings.jsonl"
        code, out, err = run_main(
            capsys,
            ["search", "--k-max", "2", "--n-max", "4", "--profile", "1,-1",
             "--anf", "x1", "--out", str(out_path)],
        )
        assert (code, out) == (2, "")
        assert err == ("error: perturbations profile:1,-1 and anf:x1 have the same "
                       "weight profile [1, -1]\n")
        assert not out_path.exists()

    def test_negated_profiles_are_a_usage_error(self, capsys, tmp_path):
        # c and -c have the same zeros and the same witness classes
        out_path = tmp_path / "findings.jsonl"
        code, out, err = run_main(
            capsys,
            ["search", "--k-max", "8", "--n-max", "9", "--sporadic-only", "--profile", "1,-1",
             "--profile=-1,1", "--out", str(out_path)],
        )
        assert (code, out) == (2, "")
        assert err == ("error: perturbations profile:1,-1 and profile:-1,1 have negated "
                       "weight profiles, so the same zeros and witness classes\n")
        assert not out_path.exists()
        with pytest.raises(ValueError, match="negated"):
            self.small_campaign(perturbations=(("a", (1, -2, 1)), ("b", (-1, 2, -1))))

    def test_two_runs_give_identical_output(self, capsys, tmp_path):
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            code, out, _ = run_main(
                capsys,
                ["search", "--k-max", "5", "--n-max", "8", "--profile", "1,-1",
                 "--profile", "1,-2,1", "--out", str(path)],
            )
            assert code == 0
            outs.append((out, path.read_bytes()))
        assert outs[0] == outs[1]

    def test_out_file_structure(self, capsys, tmp_path):
        path = tmp_path / "findings.jsonl"
        code, out, _ = run_main(
            capsys, ["search", "--k-max", "4", "--n-max", "8", "--out", str(path)]
        )
        assert code == 0
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["type"] == "campaign"
        assert header["k_max"] == 4
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["recorded"] == len(lines) - 1
        for line in lines[1:]:
            rec = json.loads(line)
            assert rec["S"] == 0
            assert rec["status"] in ("trivial", "sporadic")

    @pytest.mark.parametrize("profile, body_sha256", [
        ("1,-1", "6c809db3b8bf930db288f53a7b24fb93bb6bc38c027eec9c27a0ef9cb0561bb7"),
        ("1,-2,1", "f4a151c27d46b61eb4f8df355bc7998b507d6ffdc8c786084b01a619f9407238"),
    ])
    def test_sporadic_census_out_body_is_pinned(self, capsys, tmp_path, profile, body_sha256):
        # everything after the header line; the header describes the campaign
        out = tmp_path / "findings.jsonl"
        code, _, _ = run_main(
            capsys, ["search", "--k-max", "17", "--n-max", "17", "--sporadic-only",
                     "--profile", profile, "--out", str(out)]
        )
        assert code == 0
        body = out.read_bytes().split(b"\n", 1)[1]
        assert hashlib.sha256(body).hexdigest() == body_sha256

    def test_square_census_at_24_variables_is_pinned(self, capsys, tmp_path):
        # the smallest pinned campaign of tests/pinned_campaigns.py, so that
        # the --out lines are checked at 24 variables on every run
        out = tmp_path / "findings.jsonl"
        code, _, _ = run_main(
            capsys, ["search", "--k-max", "24", "--n-max", "24", "--profile", "1,-1",
                     "--profile", "1,-2,1", "--sporadic-only", "--out", str(out)]
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "afb254ff88bd7a5d6be120065c871ba9799515b4f5e2f617506f4ebd6d373a3c")

    def test_expect_sporadic_gate(self, capsys):
        argv = ["search", "--k-max", "4", "--n-max", "8", "--profile", "1,-1"]
        code, out, _ = run_main(capsys, argv + ["--expect-sporadic", "999"])
        assert code == 1
        assert "expected 999 sporadic findings" in out
        summary = json.loads(out.strip().splitlines()[0])
        code2, out2, _ = run_main(
            capsys, argv + ["--expect-sporadic", str(summary["sporadic"])]
        )
        assert code2 == 0

    @pytest.mark.parametrize("convention, chunks", [("total", 4), ("inner", 5)])
    def test_chunks_past_the_largest_top_degree_are_skipped(
        self, capsys, tmp_path, monkeypatch, convention, chunks
    ):
        # at n_max = 5 no cell has a top degree above 4 (total) or 5 (inner)
        leads = []
        scan = search_cli._scan_leading_degree

        def counted_scan(campaign, lead):
            leads.append(lead)
            return scan(campaign, lead)

        monkeypatch.setattr(search_cli, "_scan_leading_degree", counted_scan)
        ck = tmp_path / "ck.json"
        argv = ["search", "--n-max", "5", "--n-convention", convention]
        code, out, _ = run_main(capsys, argv + ["--k-max", "1000", "--checkpoint", str(ck)])
        assert code == 0
        assert leads == list(range(1, chunks + 1))
        assert json.loads(ck.read_text())["chunks_done"] == 1000
        assert run_main(capsys, argv + ["--k-max", str(chunks)]) == (0, out, "")

    def test_campaign_without_a_cell_checkpoints_every_chunk_done(
        self, capsys, tmp_path, monkeypatch
    ):
        def no_scan(campaign, lead):
            raise AssertionError(f"chunk {lead} scanned")

        monkeypatch.setattr(search_cli, "_scan_leading_degree", no_scan)
        ck = tmp_path / "ck.json"
        argv = ["search", "--k-max", "9", "--n-max", "1", "--checkpoint", str(ck)]
        code, out, _ = run_main(capsys, argv)
        assert code == 0
        assert json.loads(out)["candidates"] == 0
        assert json.loads(ck.read_text())["chunks_done"] == 9

    def test_checkpoint_and_resume(self, capsys, tmp_path):
        ck = tmp_path / "ck.json"
        argv = ["search", "--k-max", "4", "--n-max", "8", "--checkpoint", str(ck)]
        code, out, _ = run_main(capsys, argv)
        assert code == 0
        assert ck.exists()
        state = json.loads(ck.read_text())
        assert state["chunks_done"] == 4
        assert state["out_bytes"] is None
        assert set(state) == {"digest", "chunks_done", "counters", "out_bytes"}
        code2, out2, _ = run_main(capsys, argv + ["--resume"])
        assert code2 == 0
        assert json.loads(out.strip().splitlines()[-1]) == json.loads(
            out2.strip().splitlines()[-1]
        )

    @pytest.mark.parametrize("chunks_before_crash", [1, 3, 5])
    def test_interrupted_run_resumes_to_identical_output(
        self, capsys, tmp_path, monkeypatch, chunks_before_crash
    ):
        argv = ["search", "--k-max", "6", "--n-max", "10", "--profile", "1,-1",
                "--profile", "1,-2,1"]
        full_out, full_ck = tmp_path / "full.jsonl", tmp_path / "full.json"
        code, want_stdout, _ = run_main(
            capsys, argv + ["--out", str(full_out), "--checkpoint", str(full_ck)]
        )
        assert code == 0

        class Interrupted(Exception):
            pass

        scan = search_cli._scan_leading_degree

        def scan_then_crash(campaign, lead):
            if lead > chunks_before_crash:
                raise Interrupted
            return scan(campaign, lead)

        out, ck = tmp_path / "run.jsonl", tmp_path / "run.json"
        run_argv = argv + ["--out", str(out), "--checkpoint", str(ck)]
        monkeypatch.setattr(search_cli, "CHECKPOINT_EVERY", 1)
        monkeypatch.setattr(search_cli, "_scan_leading_degree", scan_then_crash)
        with pytest.raises(Interrupted):
            main(run_argv)
        assert json.loads(ck.read_text())["chunks_done"] == chunks_before_crash
        assert full_out.read_bytes().startswith(out.read_bytes())
        # the checkpoint was replaced in place: no temporary file is left
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "full.json", "full.jsonl", "run.json", "run.jsonl"
        ]

        monkeypatch.setattr(search_cli, "_scan_leading_degree", scan)
        code, stdout, err = run_main(capsys, run_argv + ["--resume"])
        assert code == 0
        assert f"resumed at chunk {chunks_before_crash}" in err
        assert stdout == want_stdout
        assert out.read_bytes() == full_out.read_bytes()
        assert ck.read_bytes() == full_ck.read_bytes()

    @pytest.mark.parametrize("chunks_before_crash", [1, 3])
    def test_resume_reads_checkpoints_that_carry_profiles(
        self, tmp_path, monkeypatch, chunks_before_crash
    ):
        # Checkpoints used to store each finding with its profile, and no
        # --out length.  Now they hold no profile at all: the campaign digest
        # fixes every profile, so resume takes them from the campaign, and a
        # checkpoint in the old format is refused with the --out file left as
        # it was.
        campaign = self.small_campaign(
            k_max=6, n_max=10,
            perturbations=(("profile:1", (1,)),) + self.small_campaign().perturbations,
        )
        full_out, full_ck = tmp_path / "full.jsonl", tmp_path / "full.json"
        want = run_search(campaign, full_out, full_ck)

        class Interrupted(Exception):
            pass

        scan = search_cli._scan_leading_degree

        def scan_then_crash(campaign, lead):
            if lead > chunks_before_crash:
                raise Interrupted
            return scan(campaign, lead)

        out, ck = tmp_path / "run.jsonl", tmp_path / "run.json"
        monkeypatch.setattr(search_cli, "CHECKPOINT_EVERY", 1)
        monkeypatch.setattr(search_cli, "_scan_leading_degree", scan_then_crash)
        with pytest.raises(Interrupted):
            run_search(campaign, out, ck)
        monkeypatch.setattr(search_cli, "_scan_leading_degree", scan)

        state = json.loads(ck.read_text())
        assert state["chunks_done"] == chunks_before_crash
        assert set(state) == {"digest", "chunks_done", "counters", "out_bytes"}
        assert "profile" not in ck.read_text()
        prefix = out.read_bytes()
        assert state["out_bytes"] == len(prefix)
        profiles = dict(campaign.perturbations)
        findings = read_findings(out)
        assert {rec["perturbation"] for rec in findings} == set(profiles)

        old = {k: v for k, v in state.items() if k != "out_bytes"}
        old["findings"] = [
            {**rec, "profile": list(profiles[rec["perturbation"]])} for rec in findings
        ]
        ck.write_text(json.dumps(old, sort_keys=True))
        with pytest.raises(search_cli.SystemExit2, match="is not an object with keys"):
            run_search(campaign, out, ck, resume=True)
        assert out.read_bytes() == prefix

        ck.write_text(json.dumps(state, sort_keys=True))
        assert run_search(campaign, out, ck, resume=True) == want
        assert out.read_bytes() == full_out.read_bytes()
        assert ck.read_bytes() == full_ck.read_bytes()

    def test_resume_refuses_old_checkpoints_and_mismatched_out(self, capsys, tmp_path):
        argv = ["search", "--k-max", "5", "--n-max", "8"]
        out, ck = tmp_path / "run.jsonl", tmp_path / "run.json"
        code, _, _ = run_main(capsys, argv + ["--out", str(out), "--checkpoint", str(ck)])
        assert code == 0
        state = json.loads(ck.read_text())
        body = out.read_bytes()
        assert state["out_bytes"] == len(body)

        def refused(checkpoint_state, out_path, out_bytes, message):
            ck.write_text(json.dumps(checkpoint_state))
            if out_bytes is not None:
                out_path.write_bytes(out_bytes)
            flags = ["--checkpoint", str(ck), "--resume"]
            if out_path is not None:
                flags += ["--out", str(out_path)]
            code, stdout, err = run_main(capsys, argv + flags)
            assert (code, stdout) == (2, ""), message
            assert message in err
            if out_path is not None:  # the --out file is left as it was
                assert (out_path.read_bytes() if out_path.exists() else None) == out_bytes

        # the format that kept every finding in the checkpoint
        old = {k: v for k, v in state.items() if k != "out_bytes"}
        refused({**old, "findings": []}, out, body, "is not an object with keys digest")
        refused({**state, "out_bytes": None}, out, body, "written without --out")
        refused(state, None, None, "written with --out")
        refused(state, tmp_path / "missing.jsonl", None, "No such file or directory")
        refused(state, out, body[:-1], "is shorter than")
        other = b'{"digest": "0", "type": "campaign"}\n'
        refused(state, out, other + body, "another campaign's header")

    @pytest.mark.parametrize("case", [
        "no digest", "no chunks_done", "no counters", "no out_bytes",
        "a list", "a number", "null",
        "chunks_done a string", "chunks_done a float", "chunks_done a bool",
        "counters a list", "a counter missing", "an unknown counter", "a counter a string",
        "out_bytes a string", "digest a number",
        "chunks_done negative", "chunks_done past the last chunk",
        "out_bytes inside the header", "out_bytes negative",
        "a counter negative", "candidates negative", "a negative counter in a true sum",
        "balanced not trivial plus sporadic", "more balanced than candidates",
        "not JSON", "not UTF-8", "nested too deep for the decoder",
    ])
    def test_resume_refuses_malformed_checkpoints(self, capsys, tmp_path, case):
        # a checkpoint is outside input: a wrong shape exits 2 before --out is touched
        argv = ["search", "--k-max", "3", "--n-max", "5", "--profile", "1,-1"]
        out, ck = tmp_path / "run.jsonl", tmp_path / "run.json"
        flags = ["--out", str(out), "--checkpoint", str(ck)]
        assert run_main(capsys, argv + flags)[0] == 0
        state, body = json.loads(ck.read_text()), out.read_bytes()
        counters = state["counters"]
        bad = {
            **{f"no {key}": {k: v for k, v in state.items() if k != key} for key in state},
            "a list": [1],
            "a number": 7,
            "null": None,
            "chunks_done a string": {**state, "chunks_done": "3"},
            "chunks_done a float": {**state, "chunks_done": 3.0},
            "chunks_done a bool": {**state, "chunks_done": True},
            "counters a list": {**state, "counters": list(counters.values())},
            "a counter missing": {**state, "counters": {
                k: v for k, v in counters.items() if k != "balanced"}},
            "an unknown counter": {**state, "counters": {**counters, "hits": 0}},
            "a counter a string": {**state, "counters": {**counters, "sporadic": "0"}},
            "out_bytes a string": {**state, "out_bytes": str(state["out_bytes"])},
            "digest a number": {**state, "digest": 0},
            "chunks_done negative": {**state, "chunks_done": -1},
            "chunks_done past the last chunk": {**state, "chunks_done": 4},
            "out_bytes inside the header": {**state, "out_bytes": 3},
            "out_bytes negative": {**state, "out_bytes": -7},
            "a counter negative": {**state, "counters": {**counters, "sporadic": -40}},
            "candidates negative": {**state, "counters": {**counters, "candidates": -1}},
            "a negative counter in a true sum": {**state, "counters": {
                **counters, "trivial": -1, "sporadic": counters["balanced"] + 1}},
            "balanced not trivial plus sporadic": {**state, "counters": {
                **counters, "balanced": counters["balanced"] + 1}},
            "more balanced than candidates": {**state, "counters": {
                **counters, "balanced": counters["balanced"] + 10**6,
                "trivial": counters["trivial"] + 10**6}},
            "not JSON": b'{"digest": ',
            "not UTF-8": b'{"digest": "\xff"}',
            "nested too deep for the decoder": b"[" * 100_000,
        }[case]
        ck.write_bytes(bad if isinstance(bad, bytes) else json.dumps(bad).encode())
        code, stdout, err = run_main(capsys, argv + flags + ["--resume"])
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: checkpoint {ck} ")
        if isinstance(bad, bytes):
            assert err.startswith(f"error: checkpoint {ck} is not JSON: ")
        assert out.read_bytes() == body

    def test_crash_in_first_chunk_leaves_a_resumable_header(self, tmp_path, monkeypatch):
        # the header line and a chunk-0 checkpoint are written before any scan
        campaign = self.small_campaign()
        full_out, full_ck = tmp_path / "full.jsonl", tmp_path / "full.json"
        want = run_search(campaign, full_out, full_ck)
        out, ck = tmp_path / "run.jsonl", tmp_path / "run.json"
        out.write_text("previous\n")

        class Interrupted(Exception):
            pass

        def crash(campaign, lead):
            raise Interrupted

        scan = search_cli._scan_leading_degree
        monkeypatch.setattr(search_cli, "_scan_leading_degree", crash)
        with pytest.raises(Interrupted):
            run_search(campaign, out, ck)
        monkeypatch.setattr(search_cli, "_scan_leading_degree", scan)
        header = full_out.read_bytes().split(b"\n", 1)[0] + b"\n"
        assert out.read_bytes() == header
        state = json.loads(ck.read_text())
        assert (state["chunks_done"], state["out_bytes"]) == (0, len(header))
        assert state["counters"] == search_cli.ScanCounters().to_json()
        with out.open("ab") as fh:  # a kill in mid-write leaves a partial line
            fh.write(b'{"n_total": ')

        assert run_search(campaign, out, ck, resume=True) == want
        assert out.read_bytes() == full_out.read_bytes()
        assert ck.read_bytes() == full_ck.read_bytes()

    def test_killed_run_resumes_to_identical_output(self, capsys, tmp_path):
        # A child process checkpoints after every chunk and pauses before
        # each, so a kill lands while it runs; it is killed once soon after
        # the chunk-0 checkpoint and once after chunk 4, then resumed here.
        argv = ["search", "--k-max", "8", "--n-max", "10", "--profile", "1,-1",
                "--profile", "1,-2,1"]
        full_out, full_ck = tmp_path / "full.jsonl", tmp_path / "full.json"
        code, want_stdout, _ = run_main(
            capsys, argv + ["--out", str(full_out), "--checkpoint", str(full_ck)]
        )
        assert code == 0
        child = (
            "import sys, time\n"
            "from symsum import search_cli\n"
            "scan = search_cli._scan_leading_degree\n"
            "def paused_scan(campaign, lead):\n"
            "    time.sleep(0.05)\n"
            "    return scan(campaign, lead)\n"
            "search_cli._scan_leading_degree = paused_scan\n"
            "search_cli.CHECKPOINT_EVERY = 1\n"
            "raise SystemExit(search_cli.main(sys.argv[1:]))\n"
        )
        for kill_after in (0, 4):
            out, ck = tmp_path / f"run{kill_after}.jsonl", tmp_path / f"run{kill_after}.json"
            run_argv = argv + ["--out", str(out), "--checkpoint", str(ck)]
            proc = subprocess.Popen([sys.executable, "-c", child] + run_argv,
                                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                    env=child_env())
            try:
                deadline = time.monotonic() + 30
                while not (ck.exists() and json.loads(ck.read_text())["chunks_done"] >= kill_after):
                    assert proc.poll() is None and time.monotonic() < deadline
                    time.sleep(0.001)
            finally:
                proc.kill()
                proc.wait()
            assert proc.returncode == -signal.SIGKILL
            assert json.loads(ck.read_text())["chunks_done"] < 8
            code, stdout, _ = run_main(capsys, run_argv + ["--resume"])
            assert code == 0
            assert stdout == want_stdout
            assert out.read_bytes() == full_out.read_bytes()
            assert ck.read_bytes() == full_ck.read_bytes()

    def test_engine_classifier_disagreement_exits_one(self, capsys, monkeypatch):
        engine = search_cli._balanced_degree_sets

        def with_false_hit(lead, top, values, inner):
            hits = engine(lead, top, values, inner)
            if (lead, inner) == (2, 7):
                hits.append(1 << 2)  # degrees [2]: S = -16 on 8 variables perturbed by x1
            return hits

        monkeypatch.setattr(search_cli, "_balanced_degree_sets", with_false_hit)
        code, out, err = run_main(capsys, ["search", "--k-max", "4", "--n-max", "8"])
        assert code == 1
        assert out == ""
        assert err.startswith("verification failed: census engine and classifier disagree")
        assert err.rstrip().endswith("degrees [2] at n=8 (profile:1,-1): "
                                     "not a solution: weighted sum is -8")

    def test_out_and_checkpoint_naming_one_file_are_refused(self, capsys, tmp_path, monkeypatch):
        # the checkpoint would replace the findings written before it
        monkeypatch.chdir(tmp_path)
        argv = ["search", "--k-max", "6", "--n-max", "7"]
        # the checkpoint is first written to .x.tmp and then moved onto x
        for out, checkpoint in (("x", "x"), ("./x", "x"), ("x", str(tmp_path / "x")),
                                (".x.tmp", "x")):
            code, stdout, err = run_main(capsys, argv + ["--out", out, "--checkpoint", checkpoint])
            assert (code, stdout) == (2, "")
            assert err == f"error: --out and --checkpoint would write one file: {Path(out)}\n"
            assert list(tmp_path.iterdir()) == []
        (tmp_path / "x").write_text("kept\n")
        code, stdout, err = run_main(capsys, argv + ["--out", "x", "--checkpoint", "./x", "--resume"])
        assert (code, stdout) == (2, "")
        assert "--out and --checkpoint" in err
        assert (tmp_path / "x").read_text() == "kept\n"

    @pytest.mark.parametrize("bounds", [("0", "3"), ("3", "-1")])
    def test_search_bounds_must_be_positive(self, capsys, bounds):
        code, out, err = run_main(capsys, ["search", "--k-max", bounds[0], "--n-max", bounds[1]])
        assert (code, out) == (2, "")
        assert err == f"error: bounds must be positive, got k_max={bounds[0]}, n_max={bounds[1]}\n"

    @pytest.mark.parametrize("flag", ["--out", "--checkpoint"])
    def test_unwritable_output_is_refused_before_any_chunk(
        self, capsys, tmp_path, monkeypatch, flag
    ):
        scanned = []
        scan = search_cli._scan_leading_degree

        def recorded_scan(campaign, lead):
            scanned.append(lead)
            return scan(campaign, lead)

        monkeypatch.setattr(search_cli, "_scan_leading_degree", recorded_scan)
        code, out, err = run_main(
            capsys, ["search", "--k-max", "6", "--n-max", "10", flag,
                     str(tmp_path / "missing" / "x.jsonl")]
        )
        assert code == 2
        assert err.startswith("error: ")
        assert out == ""
        assert scanned == []
        assert list(tmp_path.iterdir()) == []

    def test_witness_check_fault_exits_one(self, capsys, monkeypatch):
        # The engine builds its weights from math.comb, not from the half row
        # the witness check uses, so a fault in that row trips the check.
        # Only sporadic witnesses are checked, and these campaigns have some.
        real = diophantine._binomial_half_row

        def faulty(n):
            row = real(n)
            row[-1] += 1
            return row

        monkeypatch.setattr(diophantine, "_binomial_half_row", faulty)
        for profile in ([], ["--profile", "1"]):
            code, out, err = run_main(
                capsys, ["search", "--k-max", "7", "--n-max", "8"] + profile
            )
            assert code == 1, profile
            assert out == ""
            assert err.startswith("verification failed: census engine and classifier disagree")

    @pytest.mark.parametrize("profile, k_max, n_max", [("1,-1", "7", "8"),
                                                       ("1,-2,1", "8", "9")],
                             ids=["1,-1", "1,-2,1"])
    def test_witness_check_fault_exits_one_when_sporadic_only(self, capsys, monkeypatch,
                                                               profile, k_max, n_max):
        # Under --sporadic-only the mirrored hits are counted without a
        # witness, and trivial witnesses are not checked; each campaign has
        # sporadic hits, whose check reads the faulty row.
        real = diophantine._binomial_half_row

        def faulty(n):
            row = real(n)
            row[-1] += 1
            return row

        monkeypatch.setattr(diophantine, "_binomial_half_row", faulty)
        code, out, err = run_main(capsys, ["search", "--k-max", k_max, "--n-max", n_max,
                                           "--sporadic-only", "--profile", profile])
        assert code == 1
        assert out == ""
        assert err.startswith("verification failed: census engine and classifier disagree")

    def test_resume_guards(self, capsys, tmp_path):
        ck = tmp_path / "ck.json"
        code, _, err = run_main(
            capsys,
            ["search", "--k-max", "4", "--n-max", "8", "--checkpoint", str(ck), "--resume"],
        )
        assert code == 2  # no checkpoint yet
        code, _, _ = run_main(
            capsys, ["search", "--k-max", "4", "--n-max", "8", "--checkpoint", str(ck)]
        )
        assert code == 0
        code, _, err = run_main(
            capsys,
            ["search", "--k-max", "5", "--n-max", "8", "--checkpoint", str(ck), "--resume"],
        )
        assert code == 2  # digest mismatch
        assert "different campaign" in err


def test_campaign_sha256_matches_hashlib():
    # Campaign.digest hashes with search_cli's own SHA-256, so that search
    # never loads OpenSSL.  Lengths 0..300 cross every padding edge: 55/56
    # bytes (the length field still fits in the block), 63/64 and 119/120.
    rng = random.Random(35)
    for size in range(301):
        data = rng.randbytes(size)
        assert search_cli._sha256_hex(data) == hashlib.sha256(data).hexdigest(), size
    for campaign in (
        Campaign(17, 17, "total", (("profile:1,-1", (1, -1)),), True),
        Campaign(15, 15, "inner", (("anf:x1 + x1*x3", (1, 1, 1, 1)),)),
        Campaign(40, 200, "total", (("profile:1,-1", (1, -1)),
                                    ("profile:1,-2,1", (1, -2, 1))), True),
    ):
        text = json.dumps(campaign.to_json(), sort_keys=True).encode()
        assert campaign.digest() == hashlib.sha256(text).hexdigest()[:16]


# ---------------------------------------------------------------------------
# verification commands
# ---------------------------------------------------------------------------

class TestVerificationCommands:
    def test_tables(self, capsys):
        code, out, _ = run_main(capsys, ["tables"])
        assert code == 0
        oks = [l for l in out.splitlines() if l.startswith("ok:")]
        assert len(oks) == 2
        assert "8 rows" in oks[0]
        assert "19 rows" in oks[1]
        assert "MISMATCH" not in out

    def test_every_reference_row_folds_to_the_shared_class(self):
        # tables compares each witness with its reference row's class only;
        # that this is the shared class, x_4 = 1, x_5 = -2, x_6 = 1 on 7
        # points, is checked here
        shared = SolutionVector(7, (0, 0, 0, 0, 1, -2, 1, 0)).key
        rows = (list(search_cli.SPORADIC_WITNESSES_N8_X1.values())
                + list(search_cli.SPORADIC_WITNESSES_N9_X1X2.values()))
        assert len(rows) == 27
        assert all(SolutionVector(7, row).key == shared for row in rows)

    def test_verify_families(self, capsys):
        code, out, _ = run_main(capsys, ["verify-families"])
        assert code == 0
        assert out.splitlines() == [
            "ok single-flip family: degrees 1..16, steps 1..4",
            "ok even-parity family: 23 parameter triples",
            "ok period propagation: 5 base cases, 3 steps each",
            "ok adjacent-square identity: |t| in 3..12, plus the degree-15 witness instance",
            "ok adjacent-entry identity: i in 1..6, plus 4 witness instances on 15 variables",
        ]

    def test_verify_families_takes_no_grid_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-families", "--x1-k-max", "0"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_conjecture_scan_flags_degenerate_cases(self, capsys):
        # off-residue balance happens only where the residue law says nothing:
        # degree 1 (balanced at every index) and indices so small the
        # degree-k part vanishes identically
        code, out, _ = run_main(
            capsys, ["conjecture-scan", "--k-min", "1", "--k-max", "6", "--n-max", "40"]
        )
        assert code == 0
        assert "OFF-RESIDUE" in out
        for line in (l for l in out.splitlines() if "OFF-RESIDUE" in l):
            k = int(line.split()[0].split("=")[1])
            n = int(line.split()[1].split("=")[1])
            assert k == 1 or n < k - 1

    @pytest.mark.parametrize("flags, message", [
        (["--k-min", "5", "--k-max", "4"], "nothing to scan: degrees 5..4, n 2..100"),
        (["--n-max", "1"], "nothing to scan: degrees 1..10, n 2..1"),
        (["--k-min", "0"], "--k-min needs a degree >= 1, got 0"),
    ])
    def test_conjecture_scan_empty_range_is_a_usage_error(self, capsys, flags, message):
        code, out, err = run_main(capsys, ["conjecture-scan"] + flags)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")

    def test_conjecture_scan_degree_past_the_bound_is_refused(self, capsys, monkeypatch):
        # at k = 2**18 the sweep took gigabytes, so no sweep may start
        def refuse(*args):
            raise AssertionError("sweep started")

        monkeypatch.setattr(search_cli, "classify_range", refuse)
        code, out, err = run_main(
            capsys, ["conjecture-scan", "--k-min", "16384", "--k-max", "16384", "--n-max", "2"]
        )
        assert (code, out) == (2, "")
        assert err == "error: --k-max needs a degree below 16384, got 16384\n"

    def test_conjecture_scan_matches_per_index_classification(self, capsys):
        code, out, _ = run_main(capsys, ["conjecture-scan", "--k-max", "8", "--n-max", "120"])
        assert code == 0
        lines, off = [], 0
        for k in range(1, 9):
            spec = SymmetricSpec((k,))
            for n in range(2, 121):
                verdict = classify(spec, WeightProfile(1, (1, -1)), n)
                if not verdict.balanced:
                    continue
                on = n % spec.period == (k - 1) % spec.period
                off += not on
                lines.append(f"k={k} n={n} status={verdict.status.value} "
                             f"residue={'on' if on else 'off'}"
                             + ("" if on else "  <-- OFF-RESIDUE"))
        lines.append(f"balanced cases: {len(lines)}; off-residue: {off} "
                     f"(degrees 1..8, n up to 120)")
        assert out == "\n".join(lines) + "\n"

    def test_conjecture_scan_sweep_classifier_disagreement_exits_one(self, capsys, monkeypatch):
        def false_zeros(weights, n_lo, n_hi):
            return [0] * (n_hi - n_lo + 1)

        monkeypatch.setattr(balance, "periodic_binomial_sums", false_zeros)
        code, out, err = run_main(
            capsys, ["conjecture-scan", "--k-min", "2", "--k-max", "4", "--n-max", "20"]
        )
        assert code == 1
        assert out == ""
        assert err.startswith("verification failed: sign-sum sweep gives 0 at n_total=")

    def test_conjecture_scan_holds_on_meaningful_range(self, capsys):
        code, out, _ = run_main(
            capsys, ["conjecture-scan", "--k-min", "2", "--k-max", "10", "--n-max", "60"]
        )
        assert code == 0
        for line in (l for l in out.splitlines() if l.startswith("k=")):
            parts = dict(p.split("=") for p in line.split()[:4] if "=" in p)
            k, n = int(parts["k"]), int(parts["n"])
            if n >= k - 1:
                assert parts["residue"] == "on"
                assert parts["status"] == "trivial"


# ---------------------------------------------------------------------------
# configuration files and argument handling
# ---------------------------------------------------------------------------

class TestConfig:
    def test_config_supplies_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("degrees = 4\nn = 1..6\njson = true\n")
        code, out, _ = run_main(capsys, ["--config", str(cfg), "expsum"])
        assert code == 0
        recs = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["S"] for r in recs] == list(DEGREE4_ROW[:6])

    def test_explicit_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("degrees=4\nn=1..6\n")
        code, out, _ = run_main(
            capsys, ["--config", str(cfg), "expsum", "--n", "2..3"]
        )
        assert code == 0
        assert [int(l.split()[0]) for l in out.strip().splitlines()] == [2, 3]

    def test_config_comments_and_false(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\n\ndegrees=5\nn=1..10\njson=false\n")
        code, out, _ = run_main(capsys, ["--config", str(cfg), "expsum"])
        assert code == 0
        values = tuple(int(l.split()[1]) for l in out.strip().splitlines())
        assert values == DEGREE5_ROW

    def test_config_value_may_start_with_a_dash(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("degrees=4\nn=2..6\nprofile = -1,1\n")
        code, out, err = run_main(capsys, ["--config", str(cfg), "expsum"])
        assert (code, err) == (0, "")
        assert out == run_main(capsys, ["expsum", "--degrees", "4", "--n", "2..6",
                                        "--profile=-1,1"])[1]
        _, flipped, _ = run_main(capsys, ["expsum", "--degrees", "4", "--n", "2..6",
                                          "--profile", "1,-1"])
        assert [int(l.split()[1]) for l in out.splitlines()] == \
            [-int(l.split()[1]) for l in flipped.splitlines()]

    def test_config_errors(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("degrees 4\n")
        assert run_main(capsys, ["--config", str(bad), "expsum"])[0] == 2
        assert run_main(capsys, ["--config"])[0] == 2
        ok = tmp_path / "ok.cfg"
        ok.write_text("degrees=4\n")
        assert run_main(capsys, ["--config", str(ok)])[0] == 2
        assert run_main(capsys, ["--config", str(tmp_path / "missing.cfg"), "expsum"])[0] == 2
        latin = tmp_path / "latin.cfg"
        latin.write_bytes("degrees = 4\n# café\n".encode("latin-1"))
        code, out, err = run_main(capsys, ["--config", str(latin), "expsum", "--n", "3"])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {latin}: 'utf-8' codec can't decode")
        nul = tmp_path / "nul.cfg"
        nul.write_text("k_max = 3\nn_max = 4\nout = a\0b\n")
        assert run_main(capsys, ["--config", str(nul), "search"]) == (
            2, "", f"error: {nul}: holds a NUL byte\n")

    def test_abbreviated_flags_are_refused(self, capsys, tmp_path):
        # An explicit flag overrides the config's only when spelled in full,
        # so --prof would have scanned the config's profile as well.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k_max = 6\nn_max = 7\nprofile = 1,-1\nsporadic_only = true\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "search", "--prof", "1,-2,1"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        code, out, _ = run_main(capsys, ["--config", str(cfg), "search", "--profile", "1,-2,1"])
        assert code == 0
        assert json.loads(out)["balanced"] == 30
        with pytest.raises(SystemExit) as exc:
            main(["expsum", "--deg", "4", "--n", "3"])
        assert exc.value.code == 2

    def test_unknown_arguments_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["expsum", "--degrees", "4", "--n", "3", "--bogus"])
        assert exc.value.code == 2


# ---------------------------------------------------------------------------
# end-to-end checks
# ---------------------------------------------------------------------------

def test_installed_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-c",
         "from symsum.search_cli import console_entry; console_entry()",
         "expsum", "--degrees", "5", "--n", "1..10"],
        capture_output=True,
        text=True,
        check=False,
        env=child_env(),
    )
    # console_entry reads sys.argv[1:]; -c leaves the flags there
    assert proc.returncode == 0
    values = tuple(int(l.split()[1]) for l in proc.stdout.strip().splitlines())
    assert values == DEGREE5_ROW


def test_python_m_symsum_runs_without_warnings():
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "symsum", "expsum", "--degrees", "5", "--n", "1..10"],
        capture_output=True,
        text=True,
        check=False,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    values = tuple(int(l.split()[1]) for l in proc.stdout.strip().splitlines())
    assert values == DEGREE5_ROW


def test_every_three_variable_perturbation_matches_brute_force():
    spec = SymmetricSpec((3, 6))
    for f in all_functions(3):
        prof = weight_profile(f)
        got = classify(spec, prof, 9).sign_sum
        assert got == brute_force_sign_sum((3, 6), 9, f)
