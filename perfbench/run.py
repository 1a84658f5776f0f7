"""Closed-loop benchmark of the dseval CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. One client runs the workload's
operation again and again, each starting when the previous one returns, for
``--seconds`` of wall time, in this one process. Inputs come from ``--seed``
and are written under ``.perfbench_work/``; dseval only sees those files.

Human-readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, with times in reference
seconds (wall time scaled by a calibration kernel timed around it; see
``reference_scale``); with ``--trace 1`` the run measures half its time
untraced and half with wrappers installed, and the metrics are the per-layer
ones taken from the traced half's spans, in wall seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# A fresh-process import takes about 0.2 s and varies by about 15% from one
# to the next, so it is repeated more often than the input generation.
IMPORT_REPEATS = 9
INPUT_REPEATS = 3
# The probe prints the time its import finished. perf_counter reads the
# system-wide monotonic clock on Linux, so the parent can subtract its own
# start time; timing subprocess.run instead would add the up-to-50 ms polling
# step of its timeout wait.
IMPORT_PROBE = "import sys, time; sys.path.insert(0, 'src'); import dseval.cli; print(time.perf_counter())"
# Times of the calibration kernel taken before the first operation, after
# every operation, and before and after set-up.
KERNEL_REPEATS = 3
# Kernel time that defines a reference second (about the kernel's time on
# the baseline machine; see README "Reference seconds").
KERNEL_REF_S = 0.022
# The kernel's arrays are allocated once, so it adds a constant 4 MB to
# peak_rss_mb and no allocation of its own between operations.
KERNEL_DATA = np.random.default_rng(0).random(250_000)
KERNEL_WORK = np.empty_like(KERNEL_DATA)


def calibration_kernel() -> None:
    """Fixed work that no change to the program touches: an interpreted loop and a numpy sort."""
    total = 0
    for i in range(250_000):
        total += i % 7
    for _ in range(2):
        KERNEL_WORK[:] = KERNEL_DATA
        KERNEL_WORK.sort()
        np.cumsum(KERNEL_WORK, out=KERNEL_WORK)


def kernel_times() -> list[float]:
    times = []
    for _ in range(KERNEL_REPEATS):
        started = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - started)
    return times


def reference_scale(kernel_s: list[float]) -> float:
    """Factor that turns wall seconds into reference seconds, from kernel times taken around them.

    The machine's speed drifts by up to 1.8x over minutes; the kernel slows
    with it, so wall time over kernel time does not.
    """
    return KERNEL_REF_S / statistics.median(kernel_s)


def percentile_line(samples: list[float]) -> str:
    """Median, count and the highest listed percentile with >= 10 samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    line = f"median {statistics.median(ordered):.4f} s  n={n}"
    for p in (99, 95, 90, 75, 50):
        rank = -(-p * n // 100)  # ceil(p*n/100): samples at or below the percentile
        if n - rank >= 10:
            return line + f"  p{p} {ordered[rank - 1]:.4f} s"
    return line + "  (no percentile has 10 samples beyond it)"


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Loop:
    """Runs operations of one workload and keeps their timings and verdicts."""

    def __init__(self, workload):
        self.workload = workload
        self.step_s: dict[str, list[float]] = {}
        self.op_s: list[float] = []
        self.kernel_s: list[list[float]] = []  # before op 0, then after each op
        self.op_ref_s: list[float] = []
        self.step_ref_s: dict[str, list[float]] = {}
        self.rows = 0
        self.attempted = 0
        self.failed = 0

    def op(self, call=None) -> None:
        """Run the next operation; ``call(main, argv)`` replaces a direct call when tracing."""
        from dseval.cli import main

        if not self.kernel_s:
            self.kernel_s.append(kernel_times())
        i = len(self.op_s)
        self.attempted += 1
        problems = []
        total = 0.0
        steps = []
        for step in self.workload.steps(i):
            started = time.perf_counter()
            try:
                code = call(main, step.argv) if call else main(step.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # an op that crashes is a failed op, not a crashed run
                code = "exception"
                traceback.print_exc()
            elapsed = time.perf_counter() - started
            total += elapsed
            steps.append((step.label, elapsed))
            self.step_s.setdefault(step.label, []).append(elapsed)
            self.rows += step.rows
            if code != 0:
                problems.append(f"{step.argv[0]} exited with {code}")
        if not problems:
            problems = self.workload.check(i)
        if problems:
            self.failed += 1
            for p in problems:
                print(f"perfbench: op {i} failed: {p}", file=sys.stderr)
        self.op_s.append(total)
        self.kernel_s.append(kernel_times())
        scale = reference_scale(self.kernel_s[i] + self.kernel_s[i + 1])
        self.op_ref_s.append(total * scale)
        for label, elapsed in steps:
            self.step_ref_s.setdefault(label, []).append(elapsed * scale)

    def until(self, seconds: float, call=None) -> None:
        """Closed loop for at least ``seconds`` of wall time."""
        started = time.perf_counter()
        while True:
            self.op(call)
            if time.perf_counter() - started >= seconds:
                return


def measure_setup(workload, log) -> float:
    """Median fresh-process import time plus median input-generation time, in reference seconds."""
    kernel = kernel_times()
    imports, inputs = [], []
    for _ in range(IMPORT_REPEATS):
        started = time.perf_counter()
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, check=True,
                               capture_output=True, text=True, timeout=120)
        imports.append(float(probe.stdout) - started)
    for _ in range(INPUT_REPEATS):
        started = time.perf_counter()
        workload.setup()
        inputs.append(time.perf_counter() - started)
    imp, gen = statistics.median(imports), statistics.median(inputs)
    scale = reference_scale(kernel + kernel_times())
    log(f"setup       {imp + gen:.4f} s wall = {(imp + gen) * scale:.4f} reference s  "
        f"(import {imp:.4f} s + inputs {gen:.4f} s, medians of {IMPORT_REPEATS} and "
        f"{INPUT_REPEATS})")
    return (imp + gen) * scale


def reference_outputs(ref) -> tuple[Loop, dict]:
    """Run one op of ``ref`` in ./reference; return its loop and output digests."""
    here = os.getcwd()
    os.makedirs("reference", exist_ok=True)
    os.chdir("reference")
    try:
        ref.setup()
        loop = Loop(ref)
        loop.op()
        return loop, {name: sha256(name) for name in ref.digested}
    finally:
        os.chdir(here)


def reference_check(workload_cls, digests, log) -> tuple[int, int]:
    """Check the outputs at the reference seed against ``digests``; (attempted, failed).

    Doubles as the warm-up before timing. Workloads whose outputs are checked
    by tolerance instead of digest (score-all) skip it.
    """
    ref = workload_cls(workloads.REFERENCE_SEED)
    if not ref.digested:
        return 0, 0
    loop, got = reference_outputs(ref)
    bad = [name for name, digest in got.items() if digest != digests.get(name)]
    for name in bad:
        print(f"perfbench: reference output {name} does not match its SHA-256", file=sys.stderr)
    log(f"reference   seed {workloads.REFERENCE_SEED}: "
        f"{len(got) - len(bad)}/{len(got)} digests match")
    return loop.attempted, int(loop.failed > 0 or bool(bad))


def run(workload_cls, seed: int, seconds: float, trace: bool, digests, log=print) -> dict:
    """One benchmark run in the current directory; returns the result object.

    Also leaves ``run.json`` (the result plus every op and step time) there.
    """
    attempted, failed = reference_check(workload_cls, digests, log) if digests is not None else (0, 0)
    workload = workload_cls(seed)
    setup_s = measure_setup(workload, log)
    loop = Loop(workload)
    log(f"workload    {workload.name} seed {seed}: closed loop, 1 client, "
        f"{'half untraced, half traced' if trace else 'untraced'}")
    started = time.perf_counter()
    if trace:
        tracer = tracing.Tracer()
        loop.until(seconds / 2)
        untraced = list(loop.op_s)
        span_cost = tracer.span_cost()
        tracer.install()
        try:
            def call(main, argv):
                tracer.op_id = len(loop.op_s)
                return tracer.call(tracing.ROOT_SPAN, main, (argv,))

            loop.until(seconds / 2, call)
        finally:
            tracer.uninstall()
        traced = loop.op_s[len(untraced):]
        tracer.write("spans.jsonl")
        metrics = tracing.layer_metrics(tracer.spans, len(traced), span_cost)
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
        units = tracing.UNITS
        log(f"traced      {len(traced)} ops ({len(tracer.spans)} spans), "
            f"untraced {len(untraced)} ops")
    else:
        loop.until(seconds)
        metrics = {
            "op_s": statistics.median(loop.op_ref_s),
            "rows_per_s": loop.rows / sum(loop.op_ref_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_s,
        }
        units = {"op_s": "s", "rows_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
        for label, samples in loop.step_ref_s.items():
            log(f"{label:<15} {percentile_line(samples)}  "
                f"(wall median {statistics.median(loop.step_s[label]):.4f} s)")
        kernel = [t for group in loop.kernel_s for t in group]
        log(f"kernel      median {statistics.median(kernel):.4f} s over {len(kernel)}; "
            f"op wall median {statistics.median(loop.op_s):.4f} s")
    log(f"ops         {len(loop.op_s)} in {time.perf_counter() - started:.1f} s")
    attempted += loop.attempted
    failed += loop.failed
    for name, value in metrics.items():
        log(f"{name:<26} {value:.6g} {units[name]}")
    log(f"fail_ratio  {failed}/{attempted} = {failed / attempted:.4g}; "
        f"checks {'passed' if failed == 0 else 'FAILED'}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open("run.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "op_s": loop.op_s, "step_s": loop.step_s,
                   "kernel_s": loop.kernel_s, "op_ref_s": loop.op_ref_s,
                   "step_ref_s": loop.step_ref_s}, fh)
    return result


def _import_program():
    """Import dseval from this checkout's src/ and the benchmark's own modules."""
    global workloads, tracing
    if not (SRC / "dseval" / "__init__.py").is_file():
        raise ImportError(f"no dseval sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dseval

    if Path(dseval.__file__).resolve().parent != SRC / "dseval":
        raise ImportError(f"dseval was imported from {dseval.__file__}, not {SRC}")
    import spans as tracing
    import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_program()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        digests = json.load(fh)["digests"].get(args.workload, {})
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)
    result = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace), digests)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
