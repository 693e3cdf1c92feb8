"""seqlab benchmark: closed-loop CLI workloads with checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload perm-r1 --seed 1 --seconds 30 --trace 0

One process runs one workload. It repeats the workload's command list (see
workloads.py) in-process through ``seqlab.cli.main`` while time remains,
each repetition against a fresh cache directory under ``.perfbench/``, and
checks every command's output. Another repetition starts only if, judged by
the previous one, it will end less than half a repetition after
``--seconds``; at least one always runs.

``--trace 0`` prints the end-to-end metrics: ``setup_s``, the median scaled
time of a cold ``import seqlab.cli`` over fresh interpreters started
before, between and after the repetitions; ``seq_s``, the median of the
cold ``seq``; ``total_s``, the median of all the workload's commands
together; and ``peak_rss_mb`` of this process.

Command times are scaled to a reference host speed. On a shared host the
speed of Python code can switch between levels tens of percent apart for
seconds at a time, so raw wall times of one run differ from the next by
that much. A fixed probe (big integers and tuple-keyed dict stores, like
seqlab's own work, about 1 ms) runs three times before and after each
command and every PROBE_EVERY_S seconds during it, from a timer signal. The
command's wall time, less the probing, is multiplied by PROBE_REF_S over
the median probe time. The summary lines print both the wall and the
scaled time of every command.

``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics (see tracing.py; span times scaled like the command that
holds them, medians over the traced repetitions), the scaled median of every other command, ``failed_frac``,
and ``trace.overhead_s``: the traced ``total_s`` minus the untraced one. The
spans of every traced repetition are written to
``.perfbench/spans-<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# Fresh-interpreter imports per run. They are spread over the run because a
# shared host's speed can change in phases of seconds, and samples taken
# back to back would all land in one phase.
SETUP_SAMPLES = 7

sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS, Tracer  # noqa: E402
from workloads import COMMAND_METRICS, SHIFTS, WORKLOADS  # noqa: E402

# The host speed probe's work and how often it runs during a command, and
# its time on an unloaded core of a 2.1 GHz Xeon VM: the speed that scaled
# times refer to.
PROBE_MOD = 1 << 3072
PROBE_STEPS = 400
PROBE_REF_S = 0.00065
PROBE_EVERY_S = 0.1

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import seqlab.cli; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time of ``import seqlab.cli`` in a fresh interpreter, scaled to the
    reference host speed by probes run just before and after it."""
    probes = [probe_seconds() for _ in range(3)]
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    probes += [probe_seconds() for _ in range(3)]
    if done.returncode != 0:
        raise RuntimeError(f"cannot import seqlab.cli: {done.stderr.strip()[-500:]}")
    return float(done.stdout) * PROBE_REF_S / statistics.median(probes)


def probe_seconds() -> float:
    """Time of a fixed piece of work: how fast the host runs Python now."""
    start = time.perf_counter()
    x = 3
    table = {}
    for i in range(PROBE_STEPS):
        x = (x * 0x9E3779B97F4A7C15 + i) % PROBE_MOD
        table[i % 61, i % 7] = x >> 3000
    return time.perf_counter() - start


class SpeedSampler:
    """Times a command and samples the host's speed while it runs.

    The probe runs three times before and after the command and every
    PROBE_EVERY_S seconds during it, from a timer signal. ``wall`` is the
    command's time without the probing, and ``scaled`` is ``wall`` at the
    reference speed, using the median probe time.
    """

    def __enter__(self):
        self.probes = [probe_seconds() for _ in range(3)]
        self.spent = 0.0
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        self.start = time.perf_counter()
        return self

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.probes.append(probe_seconds())
        self.spent += time.perf_counter() - start

    def __exit__(self, *exc):
        stop = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        self.probes += [probe_seconds() for _ in range(3)]
        self.wall = stop - self.start - self.spent
        self.scaled = self.wall * PROBE_REF_S / statistics.median(self.probes)
        return False


@dataclass
class Sample:
    """One command in one repetition: wall seconds, the same scaled to the
    reference host speed, and what was wrong with its output, if anything."""

    wall: float
    scaled: float
    problem: str | None


def run_command(cli, command, tmp: Path, tracer) -> Sample:
    argv = command.args(tmp)
    out, err = io.StringIO(), io.StringIO()
    problem = None
    gc.collect()
    with SpeedSampler() as timer:
        span = tracer.begin({"argv": argv, "nmax": command.nmax}) if tracer else None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed command, never a skipped one
            problem = f"raised {type(exc).__name__}: {exc}"
        if tracer:
            tracer.end(span)
    if tracer:
        tracer.span_attrs[span]["scale"] = timer.scaled / timer.wall
    if problem is None:
        try:
            command.check(rc, out.getvalue(), tmp)
        except Exception as exc:  # any check error is reported, and the run goes on
            problem = f"{type(exc).__name__}: {exc}"
    if problem is not None:
        detail = err.getvalue().strip()[-300:]
        print(f"FAILED {' '.join(argv)}: {problem}" + (f" [{detail}]" if detail else ""), file=sys.stderr)
    return Sample(timer.wall, timer.scaled, problem)


def run_iteration(cli, commands, tracer=None) -> dict[str, Sample]:
    """One repetition of the workload."""
    OUT.mkdir(exist_ok=True)
    results = {}
    with tempfile.TemporaryDirectory(dir=OUT, prefix="cache-") as tmp:
        if tracer:
            tracer.cache_dir = Path(tmp)
            tracer.install()
        try:
            for command in commands:
                results[command.metric] = run_command(cli, command, Path(tmp), tracer)
        finally:
            if tracer:
                tracer.uninstall()
    return results


def median_time(reps, metric: str) -> float:
    return statistics.median(r[metric].scaled for r in reps)


def median_total(reps) -> float:
    return statistics.median(sum(sample.scaled for sample in r.values()) for r in reps)


def layer_report(layer_runs, plain, traced) -> dict:
    """Per-layer metrics: medians of the traced repetitions' layer times,
    the counters of the first one, the untraced command times, and the
    tracing overhead."""
    metrics = {}
    for name in layer_runs[0]:
        values = [m[name] for m in layer_runs]
        unit = LAYER_METRICS[name][0]
        value = statistics.median(values) if unit == "s" else values[0]
        if unit != "s" and any(v != values[0] for v in values):
            print(f"warning: counter {name} changed between repetitions: {values}", file=sys.stderr)
        metrics[name] = {"value": value, "unit": unit}
    for name in COMMAND_METRICS:
        if name != "seq_s":
            value = median_time(plain, name) if name in plain[0] else 0.0
            metrics[name] = {"value": value, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": median_total(traced) - median_total(plain), "unit": "s"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "seqlab" / "cli.py").is_file():
        print(f"error: no seqlab sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    shift = args.seed % SHIFTS
    commands = workload.build(shift)

    setup = []
    if not args.trace:
        import_seconds()  # untimed: leaves the bytecode cache written
        setup += [import_seconds(), import_seconds()]
    sys.path.insert(0, str(SRC))
    import seqlab.cli as cli

    tracer = Tracer() if args.trace else None

    plain, traced = [], []  # per repetition: {metric: Sample}
    layer_runs = []
    started = time.perf_counter()
    while True:
        use_trace = bool(args.trace) and len(traced) < len(plain)
        begin = time.perf_counter()
        if use_trace:
            mark = tracer.mark()
            traced.append(run_iteration(cli, commands, tracer))
            layer_runs.append(tracer.metrics(mark, tracer.mark()))
        else:
            plain.append(run_iteration(cli, commands))
        last = time.perf_counter() - begin
        if not args.trace:
            setup.append(import_seconds())
        enough = bool(plain) and (bool(traced) or not args.trace)
        # stop when another repetition would end more than half of one late
        if enough and time.perf_counter() - started + last / 2 > args.seconds:
            break
    while not args.trace and len(setup) < SETUP_SAMPLES:
        setup.append(import_seconds())

    runs = plain + traced
    attempted = sum(len(r) for r in runs)
    failed = sum(sample.problem is not None for r in runs for sample in r.values())
    if args.trace:
        metrics = layer_report(layer_runs, plain, traced)
        metrics["failed_frac"] = {"value": failed / attempted, "unit": "ratio"}
        tracer.write(OUT / f"spans-{workload.name}.jsonl")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "seq_s": {"value": median_time(plain, "seq_s"), "unit": "s"},
            "total_s": {"value": median_total(plain), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }

    print(
        f"workload={workload.name} seed={args.seed} shift={shift} trace={args.trace} "
        f"repetitions={len(plain)}+{len(traced)} attempted={attempted} failed={failed}"
    )
    for name in COMMAND_METRICS:
        if name in plain[0]:
            times = ", ".join(f"{r[name].wall:.3f}/{r[name].scaled:.3f}" for r in plain)
            print(f"  {name} wall/scaled: {times}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
