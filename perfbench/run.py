"""Benchmark for ivit: training, plain eval, top-K selection eval and gradcheck.

Run from the repository root:

    python3 perfbench/run.py --workload eval_plain --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1            # all four, each in its own process

The package is imported from ``src/`` next to this directory. Every input
is generated from ``--seed``. With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it times each layer from outside the
package (see ``tracing.py``) and reports the per-layer metrics. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
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
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("train_smoke", "eval_plain", "eval_select", "gradcheck")
THREAD_VARS = ("IVIT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: set-up is repeated for at least this many runs and this long, and its median reported
SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 2.0


def import_ivit():
    """Import ivit from this checkout's ``src/``, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "ivit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ivit package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import ivit

    if Path(ivit.__file__).resolve().parent != (src / "ivit").resolve():
        raise SystemExit(f"perfbench: imported ivit from {ivit.__file__}, expected {src}")
    return ivit


def machine() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        **{var: os.environ.get(var, "<unset>") for var in THREAD_VARS},
    }


class Runner:
    """Calls one workload, checks every output and counts the failures."""

    def __init__(self, workload, state: dict):
        self.workload = workload
        self.state = state
        self.reference: tuple | None = None
        self.attempted = 0
        self.failed = 0
        self.raised = 0

    def call(self, tracer=None) -> float | None:
        """One prepared, timed and checked call; its seconds, or None if it raised."""
        wl = self.workload
        self.attempted += 1
        try:
            wl.prepare(self.state)
            if tracer is not None:
                tracer.install()
            try:
                t = time.perf_counter()
                summary = wl.call(self.state)
                elapsed = time.perf_counter() - t
            finally:
                if tracer is not None:
                    tracer.uninstall()
            problems = wl.check(self.state, summary)
        except Exception:  # a failing call is counted and the run goes on
            traceback.print_exc()
            self.failed += 1
            self.raised += 1
            return None
        if self.reference is None:
            self.reference = summary
        elif summary != self.reference:
            problems.append(f"output {summary} differs from the first call's {self.reference}")
        if problems:
            print(f"check failed ({wl.name}): {'; '.join(problems)}", file=sys.stderr)
            self.failed += 1
        return elapsed


def repeated_setup(workload, seed: int, work_dir: str) -> tuple[dict, list[float]]:
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_MIN_SECONDS:
        t = time.perf_counter()
        state = workload.setup(seed, work_dir)
        times.append(time.perf_counter() - t)
    return state, times


def time_left(start: float, seconds: float, times: list[float]) -> bool:
    """Whether another call, as long as the median so far, still ends within ``seconds``."""
    if not times:
        return True
    return time.perf_counter() - start + statistics.median(times) <= seconds


def timed_calls(runner: Runner, seconds: float) -> list[float]:
    """Time successful calls for about ``seconds`` (at least one call)."""
    times: list[float] = []
    start = time.perf_counter()
    while time_left(start, seconds, times) and runner.raised <= 3:
        elapsed = runner.call()
        if elapsed is not None:
            times.append(elapsed)
    return times


def run_end_to_end(workload, seed: int, seconds: float, work_dir: str) -> tuple[Runner, dict]:
    state, setup_times = repeated_setup(workload, seed, work_dir)
    runner = Runner(workload, state)
    runner.call()  # warm-up: the first call in a process is the slowest
    call_times = timed_calls(runner, seconds)
    if not call_times:
        raise SystemExit(f"perfbench: every call of {workload.name} raised")
    # Other tenants of the machine slow calls down for tens of seconds at a
    # time and never speed them up, so the fastest call is the steadiest
    # estimate of what a call costs; the median is printed beside it.
    call_s = min(call_times)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "call_s": (call_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"set-up runs: {len(setup_times)}, timed calls: {len(call_times)} "
          f"(median {statistics.median(call_times):.4f} s, max {max(call_times):.4f} s), warm-up calls: 1")
    # other views of the same run, printed for reading but not gated
    extra = {}
    if workload.images:
        extra["images_per_s"] = (workload.images / call_s, "images/s")
    if workload.name == "gradcheck":
        extra["gradcheck_s"] = (call_s, "s")
    if workload.name == "train_smoke" and runner.reference:
        extra["loss_final"] = (runner.reference[-1][3], "nats")
    extra["error_rate"] = (runner.failed / runner.attempted, "failed/attempted")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<14} {value:>14.6f} {unit}")
    return runner, metrics


def run_traced(workload, seed: int, seconds: float, work_dir: str) -> tuple[Runner, dict]:
    import workloads
    from layers import METRICS
    from tracing import Tracer, layer_metrics, self_time_by_layer

    tracer = Tracer()
    tracer.install()
    try:
        state = workload.setup(seed, work_dir)
    finally:
        tracer.uninstall()
    if workload.name.startswith("eval"):
        tracer.labels = workloads.image_labels(state)
    runner = Runner(workload, state)
    runner.call()  # warm-up, untraced
    plain: list[float] = []
    traced: list[float] = []
    pairs: list[float] = []
    start = time.perf_counter()
    while time_left(start, seconds, pairs) and runner.raised <= 3:
        t = time.perf_counter()
        elapsed = runner.call()
        if elapsed is not None:
            plain.append(elapsed)
        tracer.call = len(traced) + 1
        elapsed = runner.call(tracer)
        if elapsed is not None:
            traced.append(elapsed)
        pairs.append(time.perf_counter() - t)
    if not traced or not plain:
        raise SystemExit(f"perfbench: every traced or untraced call of {workload.name} raised")
    overhead = statistics.median(traced) / statistics.median(plain)
    tot = tracer.totals(n_calls=len(traced), n_setups=1)
    values = layer_metrics(tot, overhead)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.json.gz"
    tracer.write(str(spans_path), {"workload": workload.name, "seed": seed, "machine": machine(),
                                   "traced_calls": len(traced)})
    print(f"traced calls: {len(traced)}, untraced calls: {len(plain)}, threads seen: {tracer.threads()}")
    print("per-layer values are per call (set-up layers: per set-up). Milliseconds are busy time")
    print("summed over every thread, so with the eval thread pool they can exceed wall time.")
    for name, unit, *_ in METRICS:
        print(f"  {name:<34} {values[name]:>14.4f} {unit}")
    print("self time by layer, ms per call:")
    for layer, ms in sorted(self_time_by_layer(tot).items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<12} {ms:>12.3f}")
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    return runner, {name: (values[name], unit) for name, unit, *_ in METRICS}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import_ivit()
    import workloads

    info = machine()
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"workload {name}, seed {seed}, {seconds:g} s, trace {int(trace)}")
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = str(OUT_DIR / f"work-{os.getpid()}")
    try:
        run = run_traced if trace else run_end_to_end
        runner, metrics = run(workloads.WORKLOADS[name], seed, seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in a fresh process of its own, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
