"""spharma benchmark: the CLI's three jobs, end to end and layer by layer.

Usage, from the root of a checkout (the program is read from ``src/``)::

    python3 perfbench/run.py --workload {field,series,fit} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Load shape: a closed loop with one client. Every command is a fresh child
process (``python -m spharma.cli ...``), started after the previous one has
exited, so the timings are what a CLI user waits for and each command's
peak RSS comes from the child's rusage. BLAS/OpenMP threads are pinned to 1
and ``SPHARMA_THREADS`` is unset (the serial default).

``--trace 0`` repeats the workload's commands, each iteration preceded by
one set-up probe (a child that only runs ``import spharma``), for about
``--seconds``, at least twice. It prints every end-to-end metric of the
workload with its unit, median, highest percentile with ten samples beyond
it (or the maximum when there are too few samples) and sample count.
``fail_ratio`` counts a command as failed when it exits non-zero or fails
an output check; on ``fit`` it also counts a probe of a known defect, which
is kept out of every timing and out of the result line's ``failed``.

On a shared host, CPU speed can drift by 20 % and more over minutes, which
moves wall times by more than the bounds allow. So the untraced loop times
a fixed CPU kernel of its own (``calibrate``, under a second, independent
of spharma) before every child, and the time metrics of the result line are
scaled to a reference host speed: median raw seconds x ``CAL_REF_S`` /
(median kernel time of the run). The printed lines give the raw and the
scaled medians and the kernel's times; a change to the program moves the
scaled figures as it moves the raw ones.

``--trace 1`` runs each command untraced and then traced (``traced_cli.py``
wraps every layer in spans), plus ``python -X importtime -c "import
spharma"``, and prints the per-layer metrics and each command's tracing
overhead and span coverage.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the ``end_to_end`` metrics of BENCHMARK.json with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``). ``--smoke``
runs every workload, check and span at tiny sizes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# the reference checks run numpy between commands; idle BLAS worker threads
# of this process must not compete with the timed child
os.environ.update({v: "1" for v in THREAD_VARS})
sys.path.insert(0, HERE)

import layers  # noqa: E402
import numpy as np  # noqa: E402
import workloads  # noqa: E402

MIN_ITERATIONS = 2
CAL_REPS = 9000                          # calibration kernel: short-array part
CAL_ARRAY, CAL_PASSES = 1 << 17, 40      # ... and whole-array part
CAL_REF_S = 0.8                          # its time at the reference host speed
MIN_SETUP_PROBES = {False: 3, True: 1}   # keyed by smoke
RUN_LIMIT_S = 170.0                      # children still running then are killed
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")


@dataclass
class Child:
    wall: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str
    spawned: float


def calibrate():
    """Time a fixed kernel of the two kinds of work spharma does, in seconds.

    Half of it is Python and numpy calls on short arrays (per-stream Philox
    set-up, as in ``simulate`` on many streams, and Python loops, as in the
    psi and fit loops); half is whole-array numpy (FFT, sort, cumsum, as in
    long series), so that a slow phase of the host slows it roughly as it
    slows the commands. The arrays are 1 MB: a child's ``ru_maxrss``
    includes this process's peak RSS at the time it is spawned, which must
    stay below the commands' own peaks.
    """
    t0 = time.perf_counter()
    acc = 0.0
    grid = np.linspace(0.0, 1.0, 4096)
    for i in range(CAL_REPS):
        bitgen = np.random.Philox(key=[7, i])
        draws = np.random.Generator(bitgen).standard_normal(64)
        acc += float(np.sin(draws) @ np.cos(draws))
        table = {j: j * 0.5 + acc for j in range(40)}
        acc += 1e-12 * (sum(table.values()) + float((grid * draws[i % 64]).sum()))
    x = np.random.default_rng(7).standard_normal(CAL_ARRAY)
    for _ in range(CAL_PASSES):
        y = np.fft.irfft(np.fft.rfft(x), CAL_ARRAY)
        x = np.sort(y)[::-1] + np.cumsum(y) * 1e-9
    return time.perf_counter() - t0


class Runner:
    """Starts one child at a time, with the benchmark's environment."""

    def __init__(self, root, work, deadline):
        self.root, self.work, self.deadline = root, work, deadline
        self.env = dict(os.environ)
        self.env.pop("SPHARMA_THREADS", None)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.count = 0

    def run(self, argv):
        self.count += 1
        out_path = os.path.join(self.work, f"child{self.count}.out")
        err_path = os.path.join(self.work, f"child{self.count}.err")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            spawned = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(max(0.0, self.deadline - spawned), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # interrupted or terminated: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            wall = time.perf_counter() - spawned
        with open(out_path) as fh_out, open(err_path) as fh_err:
            stdout, stderr = fh_out.read(), fh_err.read()
        os.remove(out_path)
        os.remove(err_path)
        return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout,
                     stderr, spawned)

    def cli(self, args):
        return self.run([sys.executable, "-m", "spharma.cli"] + args)

    def traced(self, args, spans_path):
        return self.run([sys.executable, os.path.join(HERE, "traced_cli.py"),
                         spans_path, "--"] + args)

    def setup_probe(self):
        return self.run([sys.executable, "-c", "import spharma"])

    def importtime(self):
        return self.run([sys.executable, "-X", "importtime", "-c",
                         "import spharma"])


class Tally:
    """Attempted and failed commands, and the reason for each failure."""

    def __init__(self):
        self.attempted = 0        # every child: CLI commands and import probes
        self.commands = 0         # CLI commands only, the base of fail_ratio
        self.failed_commands = 0
        self.problems = []

    def probe(self, name, child):
        """A child that only imports spharma: it must exit 0."""
        self.attempted += 1
        if child.code != 0:
            self.problems.append(f"{name}: exit {child.code}: "
                                 f"{_last_line(child.stderr)}")

    def judge(self, step, child):
        """Exit code, first-execution check and byte-stability of a step."""
        self.attempted += 1
        self.commands += 1
        problem = None
        if child.code != 0:
            problem = f"exit {child.code}: {_last_line(child.stderr)}"
        else:
            workloads.flush_outputs(step)
            digest = workloads.output_digest(step, child.stdout)
            try:
                if step.digest is None:
                    step.check(step, child.stdout)
                    step.digest = digest
                elif digest != step.digest:
                    problem = "outputs differ from the first execution"
            except (workloads.CheckFailed, OSError, ValueError) as exc:
                problem = f"check failed: {exc}"
        if problem:
            self.failed_commands += 1
            self.problems.append(f"{step.metric}: {problem}")
        return problem is None


def _last_line(text):
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    return lines[-1] if lines else ""


def tail(values):
    """(label, value) of the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return "max", ordered[-1]
    return f"p{100 * (n - 10) // n}", ordered[n - 11]


def summary_line(name, values, unit):
    label, value = tail(values)
    return (f"{name:<18} median {statistics.median(values):.6g} {unit}  "
            f"{label} {value:.6g} {unit}  n={len(values)}")


def provenance(root, seed, smoke):
    import scipy

    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    pkg = os.path.join(root, "src", "spharma")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + fh.read())
    return {"git_commit": commit, "source_sha256": src.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads": {v: "1" for v in THREAD_VARS} | {"SPHARMA_THREADS": None},
            "seed": seed, "smoke": smoke, "machine": platform.machine()}


def measure(runner, wl, seconds, smoke, tally, start):
    """Untraced loop: end-to-end samples keyed by metric name, and the
    calibration times, one taken before each child."""
    samples = {"setup_s": [], "wall_s": [], "peak_rss_mb": []}
    calibrations = []

    def setup():
        calibrations.append(calibrate())
        child = runner.setup_probe()
        tally.probe("setup probe", child)
        samples["setup_s"].append(child.wall)

    estimate = 0.0
    iteration = 0
    while iteration < MIN_ITERATIONS or (
            time.perf_counter() - start + estimate <= seconds):
        t0 = time.perf_counter()
        setup()
        wall, rss = 0.0, 0.0
        for step in wl.steps:
            calibrations.append(calibrate())
            child = runner.cli(step.args)
            tally.judge(step, child)
            samples.setdefault(step.metric, []).append(child.wall)
            wall += child.wall
            rss = max(rss, child.rss_mb)
        samples["wall_s"].append(wall)
        samples["peak_rss_mb"].append(rss)
        estimate = time.perf_counter() - t0
        iteration += 1
    while len(samples["setup_s"]) < MIN_SETUP_PROBES[smoke]:
        setup()
    return samples, calibrations


def end_to_end(samples, calibrations):
    """The result line's metrics: medians, times at the reference speed."""
    scale = CAL_REF_S / statistics.median(calibrations)
    return {name: {"value": statistics.median(samples[name])
                   * (1.0 if name == "peak_rss_mb" else scale),
                   "unit": "MB" if name == "peak_rss_mb" else "s"}
            for name in END_TO_END}


def trace(runner, wl, seconds, tally, start):
    """Traced loop: per-layer metrics per pass and per-command overheads."""
    passes, commands = [], []
    estimate = 0.0
    while not passes or time.perf_counter() - start + estimate <= seconds:
        t0 = time.perf_counter()
        child = runner.importtime()
        tally.probe("importtime probe", child)
        per_command, overhead, coverage = [], 0.0, 1.0
        for i, step in enumerate(wl.steps):
            plain = runner.cli(step.args)
            tally.judge(step, plain)
            spans_path = os.path.join(runner.work, f"spans{i}.json")
            traced = runner.traced(step.args, spans_path)
            if not tally.judge(step, traced):
                continue
            with open(spans_path) as fh:
                spans = json.load(fh)
            with open(spans_path + ".exit") as fh:
                exit_at = float(fh.read())
            row = _traced_timing(step, plain, traced, spans, exit_at)
            commands.append(row)
            overhead += row["overhead_s"]
            coverage = min(coverage, row["coverage"])
            per_command.append(layers.command_layers(spans))
        metrics = layers.combine(per_command)
        metrics.update(layers.import_self_times(child.stderr))
        metrics["trace.overhead_s"] = overhead
        metrics["trace.coverage_min"] = coverage
        passes.append(metrics)
        estimate = time.perf_counter() - t0
    return passes, commands


def _traced_timing(step, plain, traced, spans, exit_at):
    """Traced wall time of a command and how much of it its spans cover.

    The traced wall excludes the child's extra calls after the command.
    Process start (spawn to the child's first line), the import span and
    interpreter shutdown are reported on their own (the ``import.*`` metrics
    break the import down); the ``cli.main`` span should cover the rest.
    """
    post = spans["post_end"] - spans["post_start"]
    wall = traced.wall - post
    startup = spans["t_start"] - traced.spawned
    shutdown = traced.spawned + traced.wall - exit_at
    top = {s[0]: s[2] - s[1] for s in spans["spans"] if s[3] == -1}
    rest = wall - startup - top["import"] - shutdown
    return {"command": step.metric, "untraced_s": plain.wall, "traced_s": wall,
            "overhead_s": wall - plain.wall, "startup_s": startup,
            "import_s": top["import"], "shutdown_s": shutdown,
            "coverage": top["cli.main"] / rest if rest > 0 else 0.0}


def run_probe(runner, wl):
    """Known-defect probe: outcome only, never timed. Returns (failed, note)."""
    if wl.probe is None:
        return 0, None
    child = runner.cli(wl.probe.args)
    probe_tally = Tally()
    ok = probe_tally.judge(wl.probe, child)
    note = "passed" if ok else probe_tally.problems[0]
    return (0 if ok else 1), note


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; same workloads, checks and spans")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    start = time.perf_counter()
    # SIGTERM unwinds like an interrupt, so the running child is stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spharma", "cli.py")):
        print("perfbench: run from the root of a spharma checkout "
              "(src/spharma/cli.py not found)", file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench_work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        return _run(args, root, work, start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


def _run(args, root, work, start):
    runner = Runner(root, work, start + RUN_LIMIT_S)
    wl = workloads.build(args.workload, args.seed, work, args.smoke)
    tally = Tally()
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} smoke={int(args.smoke)}")
    print("provenance " + json.dumps(provenance(root, args.seed, args.smoke)))

    if args.trace:
        passes, commands = trace(runner, wl, args.seconds, tally, start)
        for row in commands:
            print(f"command {row['command']:<17} untraced {row['untraced_s']:.4f} s"
                  f"  traced {row['traced_s']:.4f} s  overhead "
                  f"{row['overhead_s']:+.4f} s  start {row['startup_s']:.4f} s"
                  f"  import {row['import_s']:.4f} s  shutdown "
                  f"{row['shutdown_s']:.4f} s  span coverage "
                  f"{row['coverage']:.4f}")
        metrics = {}
        for name in layers.names():
            values = [p.get(name, 0.0) for p in passes]
            unit = layers.unit_of(name)
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            print(f"layer {name:<40} {statistics.median(values):.6g} {unit}"
                  f"  n={len(values)}")
    else:
        samples, calibrations = measure(runner, wl, args.seconds, args.smoke,
                                        tally, start)
        print("metric " + summary_line("calibration_s", calibrations, "s"))
        for name, values in samples.items():
            unit = "MB" if name == "peak_rss_mb" else "s"
            print("metric " + summary_line(name, values, unit))
        metrics = end_to_end(samples, calibrations)
        for name in ("setup_s", "wall_s"):
            print(f"metric {name + ' scaled':<18} median "
                  f"{metrics[name]['value']:.6g} s")

    probe_failed, probe_note = run_probe(runner, wl)
    failed = len(tally.problems)
    commands = tally.commands + (1 if wl.probe else 0)
    command_failures = tally.failed_commands + probe_failed
    print(f"metric fail_ratio         {command_failures / commands:.6g} 1"
          f"  ({command_failures} failed of {commands} commands)")
    if probe_note:
        print(f"known-defect probe (approximate --kind ma on ar=[0.8] ma=[0.4]):"
              f" {probe_note}")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
