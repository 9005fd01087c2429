"""Run one benchmark operation in this fresh process.

    python3 perfbench/child.py [--spans FILE] TARGET [ARG ...]

TARGET is the ``module:function`` entry point of the ``symsum`` console
script, called with ARG as its command line, or ``lib`` for the library step
in libstep.py.  With ``--spans`` the public library functions are wrapped
before the operation starts and the spans are written to FILE when it ends.

A fixed calibration loop is timed before, during and after the operation, in
this same process, so that the runner can tell how fast the CPU the operation
ran on was at the time (``SpeedProbe``).  The last line on stderr is
``perfbench-child`` and a JSON object: the peak resident set size in KiB and,
in untraced runs, the wall and CPU seconds of one calibration loop
(``loop_seconds``), the number of probes, and the wall and CPU seconds all
probes took (``spent``), for the runner to subtract.
"""

import importlib
import json
import math
import resource
import signal
import sys
import time

REPORT_PREFIX = "perfbench-child"
PROBE_BURST = 5
PROBE_INTERVAL_S = 0.1


def peak_rss_kb() -> int:
    """Peak resident set of this process since it started the interpreter.

    ru_maxrss would also count the image of the parent that forked it, so the
    kernel's high-water mark of the current address space is used instead.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def calibration_loop() -> int:
    """A fixed piece of the interpreter work symsum does: integer arithmetic
    in a Python loop, dictionary updates and big-integer binomials.  About
    1 ms on a 2-vCPU virtual machine with Python 3.11."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(3000):
        acc = (acc * 31 + i) % 1000003
        table[acc & 255] = table.get(acc & 255, 0) + 1
    row = [math.comb(600, l) for l in range(0, 601, 30)]
    return acc + sum(x % 7 for x in row) + len(table)


class SpeedProbe:
    """Times the calibration loop a few times before and after the operation
    and every PROBE_INTERVAL_S during it, from a timer signal, so that the
    probes sample the CPU's speed evenly over the operation's time."""

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.spent = [0.0, 0.0]

    def probe(self, *_signal) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        calibration_loop()
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        self.walls.append(wall)
        self.cpus.append(cpu)
        self.spent[0] += wall
        self.spent[1] += cpu

    def burst(self) -> None:
        for _ in range(PROBE_BURST):
            self.probe()

    def start(self) -> None:
        self.burst()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.burst()

    def loop_seconds(self) -> list[float]:
        """Wall and CPU seconds of one loop as the harmonic mean over the
        probes: scaling a time by its reciprocal weights each stretch of the
        operation by the speed the CPU had then."""
        return [len(v) / sum(1 / t for t in v) for v in (self.walls, self.cpus)]


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    target, args = argv[0], argv[1:]
    # Traced runs are not scaled, so their spans are left without probes.
    probe = SpeedProbe() if spans_path is None else None
    if probe is not None:
        probe.start()
    recorder = None
    if spans_path is not None:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    try:
        if target == "lib":
            import libstep

            return libstep.main(args, recorder)
        module, _, func = target.partition(":")
        entry = getattr(importlib.import_module(module), func)
        sys.argv = ["symsum", *args]
        try:
            entry()
        except SystemExit as exc:
            return exc.code
        return 0
    finally:
        if recorder is not None:
            recorder.write(spans_path)
        report = {"peak_rss_kb": peak_rss_kb()}
        if probe is not None:
            probe.stop()
            report.update(loop_seconds=probe.loop_seconds(), probes=len(probe.walls),
                          spent=probe.spent)
        print(f"\n{REPORT_PREFIX} {json.dumps(report)}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
