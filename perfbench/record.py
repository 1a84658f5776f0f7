"""Record the benchmark's reference digests, or a baseline with its spread.

    python3 perfbench/record.py reference
        Run each digest-checked workload once at the reference seed and write
        the SHA-256 of every output file to perfbench/reference.json.

    python3 perfbench/record.py baseline --first-seed N
        Run perfbench/run.py untraced once for each of ten seeds from
        ``--first-seed`` and traced twice at the first seed, for each workload;
        print the median and quartile spread of every end-to-end metric against
        its bound, and how far each median moved from the previous set's;
        check that traced counts repeat exactly; and append the set, with a
        machine block, to perfbench/baseline.json.

Run from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"
ENV_PREFIXES = ("MALLOC_", "OPENBLAS_", "OMP_")
EXACT_COUNTS = (".calls", ".cells", ".rows")
RUNS = 10  # untraced runs per workload and set, one seed each
TRACED = 2  # traced runs per workload and set, at the first seed


def _openblas_threads():
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git(*args):
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def machine() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    status = _git("status", "--porcelain", "--", "src")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": _openblas_threads(),
        },
        "git_commit": _git("rev-parse", "HEAD"),
        "src_modified": bool(status) if status is not None else None,
        "env": {k: v for k, v in sorted(os.environ.items()) if k.startswith(ENV_PREFIXES)},
    }


def reference() -> None:
    sys.path.insert(0, str(HERE))
    import run

    run._import_program()
    digests = {}
    for name, cls in run.workloads.WORKLOADS.items():
        ref = cls(run.workloads.REFERENCE_SEED)
        if not ref.digested:
            continue
        work = run.WORK / "reference-record" / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        os.chdir(work)
        loop, digests[name] = run.reference_outputs(ref)
        if loop.failed:
            raise SystemExit(f"{name}: reference op failed its checks")
        print(name, json.dumps(digests[name], indent=2))
    out = {"reference_seed": run.workloads.REFERENCE_SEED, "digests": digests}
    (HERE / "reference.json").write_text(json.dumps(out, indent=2) + "\n")


def _run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(ROOT / ".perfbench_work" / workload / "run.json", encoding="utf-8") as fh:
        detail = json.load(fh)
    print(f"  {workload} seed {seed} trace {trace}: {wall:.1f} s wall, "
          f"{result['attempted']} ops, {result['failed']} failed", flush=True)
    return {"seed": seed, "wall_s": wall, "result": result, "detail": detail}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def baseline(first_seed: int) -> None:
    bench = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    command = f"python3 perfbench/record.py baseline --first-seed {first_seed}"
    path = HERE / "baseline.json"
    sets = json.loads(path.read_text())["sets"] if path.exists() else []
    out = {
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "command": command,
        "machine": machine(),
        "run_seconds": seconds,
        "workloads": {},
    }
    steady = True
    for name in (w["name"] for w in bench["workloads"]):
        print(f"{name}: {RUNS} untraced runs", flush=True)
        plain = [_run_once(name, first_seed + k, seconds, 0) for k in range(RUNS)]
        before = sets[-1]["workloads"][name]["end_to_end"] if sets else None
        e2e = {}
        for metric, bound in bounds.items():
            values = [r["result"]["metrics"][metric]["value"] for r in plain]
            stats = spread(values)
            stats.update(bound=bound, values=values)
            flag = "ok" if stats["spread"] < bound / 3 else (
                "within bound" if stats["spread"] <= bound else "TOO WIDE")
            if stats["spread"] > bound:
                steady = False
            line = (f"  {metric:<12} median {stats['median']:.6g}  IQR/median "
                    f"{stats['spread']:.4f}  bound {bound}  {flag}")
            if before is not None and metric in before:
                old = before[metric]["median"]
                worse = (stats["median"] - old) / old
                if better[metric] == "higher":
                    worse = -worse
                stats["worse_than_previous_set"] = worse
                if worse > bound:
                    steady = False
                line += f"  {worse:+.4f} worse than the previous set" + (
                    "  TOO FAR" if worse > bound else "")
            e2e[metric] = stats
            print(line)
        # Subcommands in reference seconds, then the raw wall times of whole
        # operations and of the calibration kernel, which drift with the machine.
        series = {label: [r["detail"]["step_ref_s"][label] for r in plain]
                  for label in plain[0]["detail"]["step_ref_s"]}
        series["op_wall_s"] = [r["detail"]["op_s"] for r in plain]
        series["kernel_wall_s"] = [[t for g in r["detail"]["kernel_s"] for t in g] for r in plain]
        steps = {}
        for label, runs in series.items():
            per_run = [statistics.median(samples) for samples in runs]
            steps[label] = {"median_of_run_medians": statistics.median(per_run),
                            "samples": sum(len(samples) for samples in runs),
                            **{k: v for k, v in spread(per_run).items() if k != "median"}}
            print(f"  {label:<15} median {steps[label]['median_of_run_medians']:.4f} s over "
                  f"{steps[label]['samples']} samples, IQR/median {steps[label]['spread']:.4f}")
        attempted = sum(r["result"]["attempted"] for r in plain)
        failed = sum(r["result"]["failed"] for r in plain)
        entry = {
            "seeds": [r["seed"] for r in plain],
            "wall_s": [round(r["wall_s"], 1) for r in plain],
            "end_to_end": e2e,
            "subcommands": steps,
            "fail_ratio": f"{failed}/{attempted}",
        }
        print(f"{name}: {TRACED} traced runs", flush=True)
        tr = [_run_once(name, first_seed, seconds, 1) for _ in range(TRACED)]
        layers = [{k: v["value"] for k, v in t["result"]["metrics"].items()} for t in tr]
        exact = {
            k: all(layer[k] == layers[0][k] for layer in layers)
            for k in layers[0] if k.endswith(EXACT_COUNTS)
        }
        entry["per_layer"] = layers[0]
        entry["per_layer_counts_repeat"] = exact
        print(f"  counts repeat exactly: {all(exact.values())}")
        out["workloads"][name] = entry
    sets.append(out)
    path.write_text(json.dumps({"sets": sets}, indent=2) + "\n")
    print("every spread within its bound, every median within its bound of the previous set"
          if steady else "SOME SPREAD OR SHIFT EXCEEDS ITS BOUND")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("reference")
    p = sub.add_parser("baseline")
    p.add_argument("--first-seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.command == "reference":
        reference()
    else:
        baseline(args.first_seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
