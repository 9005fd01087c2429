"""Benchmark of the symsum CLI and library.

    python3 perfbench/run.py --workload census|grids|sequences --seed N --seconds S --trace 0|1
    python3 perfbench/run.py compare BASE.jsonl CHANGE.jsonl

Run from the root of a source checkout; the package is used from ``src``
without being installed.  One closed-loop client runs the operations of a
workload one at a time, each in a fresh Python process started through the
``symsum`` console-script entry point named in ``pyproject.toml``, and
cycles through them until ``--seconds`` have elapsed.  Every output is
checked (workloads.py); a wrong, missing or late output counts as a failed
operation and is printed on stderr.

With ``--trace 0`` the end-to-end metrics named in BENCHMARK.json are
reported (see ``plain_run``), with every time scaled to a reference CPU speed
measured in the operation's own process (child.py, ``Timing``).  With ``--trace 1`` every operation runs
untraced and traced, back to back; traced runs wrap the library's public
functions (spans.py) and the per-layer metrics named in BENCHMARK.json are
reported (see ``layer_metrics``).

The last line of stdout is the result as JSON.  Each run also appends a
record, with every sample and the environment, to
``.perfbench/results.jsonl`` (or ``--results``); ``compare`` reads two such
files and rates each workload and end-to-end metric against its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import tomllib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import child
import spans
from workloads import WORKLOADS, Op, Outcome, Workload, sha256

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Every operation is killed when the run reaches this age, so that a hung
# operation fails the run instead of outliving it.
RUN_DEADLINE_S = 170
# Set-up samples taken before every pass, so that they spread over the run
# like the passes do; one more unmeasured start fills the bytecode cache.
SETUP_PER_PASS = 3
# Seconds of one child.calibration_loop in the fast periods of the machine the
# benchmark was written on (a shared 2-vCPU virtual machine, Python 3.11.7).
# Times are reported at this speed, so they read as that machine's seconds.
CALIBRATION_REFERENCE_S = 0.00054
MACHINE_NOTE = "The harness pins no CPU, drops no cache and changes no machine setting."

# Per-layer metrics, grouped by how they are computed from the spans.  Groups
# name functions without their module, so a metric follows its function if
# the function moves to another module.
SELF_TIME = {
    "search_cli.run_search_self_s": {"run_search"},
    "balance.classify_self_s": {"classify", "classify_profile"},
    "balance.identity_s": {"singmaster_gap", "singmaster_parameters", "luca_szalay_gap",
                           "fibonacci"},
    "balance.family_s": {"verify_x1_family", "verify_even_linear_family",
                         "periodic_propagation", "parity_function", "single_variable"},
    "expsum.exp_sum_s": {"exp_sum_profile", "exp_sum_symmetric"},
    "expsum.delta_vector_s": {"delta_vector"},
    "diophantine.count_solutions_s": {"count_solutions"},
    "diophantine.classes_s": {"enumerate_classes", "count_classes"},
    "diophantine.integral_s": {"gamma_via_integral"},
    "diophantine.canonical_key_s": {"canonical_key"},
    "boolean_core.anf_s": {"anf_parse", "anf_to_function", "function_to_anf", "weight_profile"},
}
# Inclusive times of the outermost span of the group.  The recurrence work
# runs in CyclotomicValue methods, which no wrapper sees, so self time would
# split it arbitrarily between the spans around it.
INCLUSIVE_TIME = {
    "balance.classify_s": {"classify", "classify_profile"},
    "recurrence.d_coefficients_s": {"d_coefficients"},
    "recurrence.spectral_s": {"spectral_sum", "lambda_value"},
    "recurrence.certificate_s": {"minimality_certificate"},
}
CALLS = {
    "balance.classify_calls": {"classify"},
    "expsum.exp_sum_calls": {"exp_sum_profile", "exp_sum_symmetric"},
    "expsum.delta_vector_calls": {"delta_vector"},
    "diophantine.count_solutions_calls": {"count_solutions"},
    "diophantine.canonical_key_calls": {"canonical_key"},
    "boolean_core.weight_profile_calls": {"weight_profile"},
}


def resolve_entry() -> str:
    """The ``module:function`` of the ``symsum`` console script."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["symsum"]


def child_env() -> dict[str, str]:
    """A clean environment: nothing from the caller but the search path and
    locale, so settings such as SYMSUM_THREADS cannot change a result."""
    env = {k: os.environ[k] for k in ("PATH", "LANG", "LC_ALL") if k in os.environ}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    return env


def git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


@dataclass
class Timing:
    """Wall and CPU seconds of one operation's process, without the time its
    speed probes took, and the mean wall and CPU seconds of one calibration
    loop in that process (child.SpeedProbe)."""

    wall: float
    cpu: float
    loop_wall: float
    loop_cpu: float

    def scaled(self) -> tuple[float, float]:
        """Wall and CPU seconds at the reference speed: each scaled by how much
        faster or slower than the reference the calibration loop ran."""
        return (self.wall * CALIBRATION_REFERENCE_S / self.loop_wall,
                self.cpu * CALIBRATION_REFERENCE_S / self.loop_cpu)


class Runner:
    """Starts one operation at a time and measures it."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.entry = resolve_entry()
        self.env = child_env()
        self._verdicts: dict[str, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: Counter = Counter()
        self.peak_rss_kb = 0

    def run(self, op: Op, spans_path: Path | None = None) -> tuple[Outcome, Timing]:
        """Run one operation; returns its outcome and its times."""
        argv = [sys.executable, str(HERE / "child.py")]
        if spans_path is not None:
            argv += ["--spans", str(spans_path)]
        argv += [self.entry if op.target == "cli" else "lib", *op.args]
        for name in op.outputs:
            (self.work / name).unlink(missing_ok=True)
        stdout_path = self.work / "stdout"
        killed = threading.Event()
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        with open(stdout_path, "wb") as out, open(self.work / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)

            def kill() -> None:
                killed.set()
                proc.kill()

            timer = threading.Timer(max(0.0, self.deadline - start), kill)
            timer.start()
            try:
                returncode = proc.wait()
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        files = {}
        for name in op.outputs:
            path = self.work / name
            files[name] = path.read_bytes() if path.exists() else None
        timing = Timing(wall, cpu, CALIBRATION_REFERENCE_S, CALIBRATION_REFERENCE_S)
        for line in (self.work / "stderr").read_text(errors="replace").splitlines()[-1:]:
            if line.startswith(child.REPORT_PREFIX):
                report = json.loads(line[len(child.REPORT_PREFIX):])
                self.peak_rss_kb = max(self.peak_rss_kb, report["peak_rss_kb"])
                if "loop_seconds" in report:
                    timing = Timing(wall - report["spent"][0], cpu - report["spent"][1],
                                    *report["loop_seconds"])
        outcome = Outcome(None if killed.is_set() else returncode,
                          stdout_path.read_text(errors="replace"), files)
        return outcome, timing

    def check(self, op: Op, outcome: Outcome) -> None:
        """Count the operation as attempted, and as failed if its outcome has a
        problem.  Identical outcomes are checked once."""
        parts = [op.label, str(outcome.returncode), outcome.stdout]
        parts += [f"{n}:{'-' if d is None else sha256(d)}" for n, d in sorted(outcome.files.items())]
        key = sha256("\0".join(parts).encode())
        if key not in self._verdicts:
            try:
                self._verdicts[key] = op.check(outcome)
            except Exception as exc:  # malformed output must fail the operation, not the run
                self._verdicts[key] = [f"unreadable output ({type(exc).__name__}: {exc})"]
        self.attempted += 1
        if self._verdicts[key]:
            self.failed += 1
            self.problems.update(f"{op.label}: {p}" for p in self._verdicts[key][:5])


def traced_pass(runner: Runner, ops: list[Op], traced_first: bool) -> dict[str, float]:
    """Every operation untraced and traced, back to back so that both runs see
    the same machine speed; returns the per-layer metrics."""
    layer = {"calls": Counter(), "self": Counter(), "counters": Counter(),
             "inclusive": Counter(), "root_s": 0.0, "bytes": 0, "wall_s": 0.0, "untraced_s": 0.0}
    spans_path = runner.work / "op.spans"
    for op in ops:
        for traced in (traced_first, not traced_first):
            outcome, timing = runner.run(op, spans_path if traced else None)
            runner.check(op, outcome)
            layer["wall_s" if traced else "untraced_s"] += timing.wall
        layer["bytes"] += sum(len(d) for d in outcome.files.values() if d)
        if spans_path.exists():
            calls, self_s, counters, inclusive, root_s = spans.aggregate(spans_path, INCLUSIVE_TIME)
            spans_path.unlink()
            layer["calls"] += calls
            layer["self"] += self_s
            layer["counters"] += counters
            layer["inclusive"] += inclusive
            layer["root_s"] += root_s
    return layer_metrics(layer)


def layer_metrics(layer: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``<module>.self_s`` is the self time of all spans of that module, so the
    six add up to ``trace.span_s``, the time spent inside the library;
    ``trace.outside_s`` is the rest of the traced pass: interpreter start,
    imports, wrapping, writing spans.  ``trace.overhead_s`` is the traced
    minus the untraced time of the same operations.
    """
    def by_function(counter: Counter, functions) -> float:
        return sum(v for name, v in counter.items() if name.rsplit(".", 1)[1] in functions)

    def by_module(counter: Counter, module: str, exclude=()) -> float:
        return sum(v for name, v in counter.items()
                   if name.split(".", 1)[0] == module and name.rsplit(".", 1)[1] not in exclude)

    out = {metric: by_function(layer["self"], fns) for metric, fns in SELF_TIME.items()}
    out.update({metric: by_function(layer["calls"], fns) for metric, fns in CALLS.items()})
    out.update({metric: layer["inclusive"][metric] for metric in INCLUSIVE_TIME})
    for module in spans.MODULES:
        out[f"{module}.self_s"] = by_module(layer["self"], module)
    out["search_cli.cmd_self_s"] = by_module(layer["self"], "search_cli", {"run_search"})
    candidates = layer["counters"]["search_cli.candidates"]
    out["search_cli.candidates"] = candidates
    out["search_cli.hit_ratio"] = layer["counters"]["search_cli.balanced"] / candidates if candidates else 0.0
    out["search_cli.bytes_written"] = layer["bytes"]
    out["expsum.binomial_terms"] = layer["counters"]["expsum.binomial_terms"]
    out["trace.spans"] = sum(layer["calls"].values())
    out["trace.span_s"] = layer["root_s"]
    out["trace.outside_s"] = layer["wall_s"] - layer["root_s"]
    out["trace.traced_wall_s"] = layer["wall_s"]
    out["trace.untraced_wall_s"] = layer["untraced_s"]
    out["trace.overhead_s"] = layer["wall_s"] - layer["untraced_s"]
    return out


def setup_times(runner: Runner, count: int) -> list[Timing]:
    """Fresh-process times of ``symsum --help``."""
    def help_check(out: Outcome) -> list[str]:
        ok = out.returncode == 0 and out.stdout.startswith("usage: symsum")
        return [] if ok else [f"exit code {out.returncode}, no usage text"]

    op = Op("setup", "cli", ["--help"], help_check)
    times = []
    for _ in range(count):
        outcome, timing = runner.run(op)
        runner.check(op, outcome)
        times.append(timing)
    return times


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_revision": git_revision(),
        "note": MACHINE_NOTE,
    }


def plain_run(runner: Runner, workload: Workload, seconds: float) -> tuple[dict, dict]:
    """The operations in a cycle until ``seconds`` have passed and each has
    run at least once, with set-up samples before every cycle.

    Every time is scaled to the reference speed (``Timing.scaled``): on a
    shared 2-vCPU virtual machine the speed swings by up to a factor of two
    for seconds to minutes at a time, from load outside the guest, and a
    fixed loop timed in the operation's own process before, during and after
    it slows down with it.  Each operation's time is the median of its scaled
    samples in this run, and ``wall_s`` and ``cpu_s`` sum these over the
    operations; ``setup_s`` is the median of the scaled set-up samples.
    """
    ops = workload.ops
    timings: dict[str, list[Timing]] = {op.label: [] for op in ops}
    setup: list[Timing] = []
    setup_times(runner, 1)  # unmeasured: fills the bytecode cache
    start = time.perf_counter()
    i = 0
    while time.perf_counter() < runner.deadline and (
            i < len(ops) or time.perf_counter() - start < seconds):
        if i % len(ops) == 0:
            setup += setup_times(runner, SETUP_PER_PASS)
        op = ops[i % len(ops)]
        outcome, timing = runner.run(op)
        runner.check(op, outcome)
        timings[op.label].append(timing)
        i += 1
    scaled = {label: [t.scaled() for t in ts] for label, ts in timings.items()}
    wall_s = sum(statistics.median(w for w, _ in v) for v in scaled.values())
    metrics = {
        "wall_s": wall_s,
        "work_per_s": workload.work / wall_s,
        "cpu_s": sum(statistics.median(c for _, c in v) for v in scaled.values()),
        "peak_rss_mb": runner.peak_rss_kb / 1024,
        "setup_s": statistics.median(t.scaled()[0] for t in setup),
    }
    return metrics, {"op_timings": {label: [vars(t) for t in ts] for label, ts in timings.items()},
                     "setup_timings": [vars(t) for t in setup],
                     "calibration_reference_s": CALIBRATION_REFERENCE_S}


def traced_run(runner: Runner, workload: Workload, seconds: float) -> tuple[dict, dict]:
    """Traced passes until ``seconds`` have passed; each per-layer metric is
    the median over the passes."""
    passes: list[dict[str, float]] = []
    start = time.perf_counter()
    while time.perf_counter() < runner.deadline and (
            not passes or time.perf_counter() - start < seconds):
        passes.append(traced_pass(runner, workload.ops, traced_first=len(passes) % 2 == 1))
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    return metrics, {"passes": passes}


def measure(args, bench: dict) -> dict:
    work = ROOT / ".perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, os.path.relpath(work, ROOT))
    runner = Runner(work)
    load_start = os.getloadavg()
    if args.trace:
        metrics, samples = traced_run(runner, workload, args.seconds)
        wanted = bench["per_layer"]
    else:
        metrics, samples = plain_run(runner, workload, args.seconds)
        wanted = bench["end_to_end"]
    shutil.rmtree(work, ignore_errors=True)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": workload.inputs,
        "work_per_pass": workload.work,
        "work_unit": workload.unit,
        "environment": {**environment(), "loadavg_start": load_start, "loadavg_end": os.getloadavg()},
        "samples": samples,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "fail_ratio": runner.failed / runner.attempted,
        "problems": dict(runner.problems),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    """better, worse or unresolved, for one workload and metric.

    Worse: the change's median is worse than the base median by more than the
    bound.  Better: it is better by more than the base's own quartile spread.
    When that spread exceeds the bound, only a complete separation of the two
    sets of runs resolves the pairing.
    """
    b1, b2, b3 = quartiles(base)
    c2 = statistics.median(change)
    sign = 1 if better == "lower" else -1
    gain = sign * (b2 - c2) / b2
    spread = (b3 - b1) / b2
    if spread > bound:
        if all(sign * c < sign * b for c in change for b in base):
            return "better"
        if all(sign * c > sign * b for c in change for b in base):
            return "worse"
        return "unresolved"
    if -gain > bound:
        return "worse"
    if gain > spread:
        return "better"
    return "unresolved"


def compare(base_path: str, change_path: str, bench: dict) -> int:
    def load(path: str) -> dict[str, list[dict]]:
        runs: dict[str, list[dict]] = {}
        for line in Path(path).read_text().splitlines():
            rec = json.loads(line)
            if not rec["trace"]:
                runs.setdefault(rec["workload"], []).append(rec)
        return runs

    base, change = load(base_path), load(change_path)

    def spread(values: list[float]) -> str:
        q1, q2, q3 = quartiles(values)
        return f"{q2:.5g} [{q1:.5g}, {q3:.5g}]"

    print(f"{'workload':<10} {'metric':<12} {'base median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} {'change':>7}  verdict")
    for workload in sorted(base.keys() & change.keys()):
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in base[workload]]
            b = [r["metrics"][name]["value"] for r in change[workload]]
            rel = statistics.median(b) / statistics.median(a) - 1
            print(f"{workload:<10} {name:<12} {spread(a):<30} {spread(b):<30} {rel:>+7.1%}  "
                  f"{verdict(a, b, metric['better'], metric['bound'])} "
                  f"(runs {len(a)}/{len(b)}, bound {metric['bound']:.0%})")
        fails = [sum(r["failed"] for r in runs[workload]) for runs in (base, change)]
        print(f"{workload:<10} failed operations: base {fails[0]}, change {fails[1]}")
    return 0


def main(argv: list[str]) -> int:
    if not (ROOT / "pyproject.toml").is_file() or not (ROOT / "src" / "symsum").is_dir():
        print(f"error: {ROOT} is not a symsum source checkout (no pyproject.toml or src/symsum)",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare BASE.jsonl CHANGE.jsonl", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2], bench)
    p = argparse.ArgumentParser(description="symsum benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", default=str(ROOT / ".perfbench" / "results.jsonl"),
                   help="file the run record is appended to")
    args = p.parse_args(argv)
    record = measure(args, bench)
    Path(args.results).parent.mkdir(parents=True, exist_ok=True)
    with open(args.results, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    for name, m in record["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"{args.workload} fail_ratio = {record['fail_ratio']:.6g} "
          f"({record['failed']}/{record['attempted']} operations)", file=sys.stderr)
    for problem, times in record["problems"].items():
        print(f"FAILED ({times}x) {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
