"""secmin benchmark: four seeded workloads, end-to-end metrics, and a traced mode.

Run from the root of a checkout (secmin is imported from ./src):

    python3 bench/run.py --workload pascal-rows --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload cli-cold --seed 1 --smoke

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a traced pass.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import calib
import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MODULES = ["arith", "bands", "secant", "bounds", "lattice"]
INITIAL_SETUPS = 30


def import_secmin() -> SimpleNamespace:
    """Import secmin afresh: drop every loaded secmin module, then import again."""
    for key in [k for k in sys.modules if k == "secmin" or k.startswith("secmin.")]:
        del sys.modules[key]
    importlib.import_module("secmin")
    return SimpleNamespace(**{m: importlib.import_module(f"secmin.{m}") for m in MODULES})


def digest(out) -> int:
    """A fingerprint of an item's output; only these are kept between passes.

    The built-in string hash, not hashlib: importing hashlib maps OpenSSL,
    about 3.6 MB of the resident memory that peak_rss_mb reads.
    """
    return hash(repr(out))


def run_pass(wl, mods, state, verified: dict, cal_before: float, tracer=None) -> dict:
    """Run every item once; times[i] is item i's latency at reference speed, None when it failed.

    An in-process item runs between two runs of the calibration kernel
    (`cal_before` is the one that ended just before the pass) and is scaled
    by them; cli-cold's children calibrate themselves.  An output equal to
    one already checked in this run (same digest) is not checked again.
    """
    times, failed, wrong = [None] * len(wl.items), 0, 0
    self_calibrated = getattr(wl, "self_calibrated", False)
    gc.collect()
    for i in range(len(wl.items)):
        if tracer is not None:
            tracer.item_id = i
        try:
            dt, out = wl.run(mods, state, i)
        except Exception:  # one item's failure is a failed operation, not a failed run
            failed += 1
            sys.stderr.write(f"item {i} raised:\n{traceback.format_exc()}")
            dt = None
        if not self_calibrated:
            cal_after = calib.calibrate()
            if dt is not None:
                dt *= calib.scale(cal_before, cal_after)
            cal_before = cal_after
        if dt is None:
            continue
        fingerprint = digest(out)
        err = None if verified.get(i) == fingerprint else wl.check(i, out)
        if err:
            failed += 1
            wrong += 1
            sys.stderr.write(f"item {i} wrong: {err}\n")
            continue
        verified[i] = fingerprint
        times[i] = dt
    return {"times": times, "attempted": len(wl.items), "failed": failed, "wrong": wrong}


def prepare(wl, setup: list[float]):
    """Import secmin and make the workload's program-side state; the scaled time goes to setup.

    Returns the modules, the state and the last calibration time, which the
    pass that follows uses as its first.
    """
    gc.collect()
    before = calib.calibrate()
    t0 = time.perf_counter()
    mods = import_secmin()
    state = wl.prepare(mods)
    dt = time.perf_counter() - t0
    after = calib.calibrate()
    setup.append(dt * calib.scale(before, after))
    return mods, state, after


def run_passes(wl, setup: list[float], verified: dict, seconds: float, min_passes: int):
    """Whole passes until `seconds` have gone and at least `min_passes` ran.

    Set-up is repeated before every pass, so its samples spread over the run
    like the items do; each pass uses the state prepared just before it.
    """
    passes = []
    t0 = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - t0 < seconds:
        mods, state, cal = prepare(wl, setup)
        passes.append(run_pass(wl, mods, state, verified, cal))
    return passes, mods


def item_medians(passes: list[dict]) -> list[float]:
    """Each item's median latency over its successful runs in the run's passes."""
    per_item = zip(*(p["times"] for p in passes))
    return [statistics.median(ts) for ts in ([t for t in col if t is not None] for col in per_item) if ts]


def percentile(xs: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks, position pct/100 * (len - 1)."""
    xs = sorted(xs)
    pos = pct / 100 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def interpreter_start_s(reps: int = 7) -> float:
    """The fastest of `reps` bare interpreter starts."""
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        samples.append(time.perf_counter() - t0)
    return min(samples)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny item lists, one pass, all checks on")
    args = ap.parse_args(argv)

    if not (SRC / "secmin" / "__init__.py").is_file():
        sys.stderr.write(f"secmin sources not found under {SRC}; run from the root of a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, OUT)
    seconds = 0.0 if args.smoke else args.seconds
    min_passes = 1 if args.smoke else wl.min_passes

    # bytecode as an installed package has it; without it every process would compile the sources
    compileall.compile_dir(SRC / "secmin", quiet=1)
    # the benchmark's own share of peak_rss_mb: interpreter, item lists, reference tables
    bench_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    import_secmin()  # warm-up: loads the standard library modules secmin uses
    if not Path(sys.modules["secmin"].__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"imported secmin from {sys.modules['secmin'].__file__}, not {SRC}\n")
        return 2
    setup: list[float] = []
    for _ in range(INITIAL_SETUPS):
        prepare(wl, setup)

    verified: dict = {}
    if args.trace:
        passes, mods = run_passes(wl, setup, verified, seconds / 2, 1)
        tracer = spans.Tracer()
        cli_cold = wl.name == "cli-cold"
        if cli_cold:
            wl.trace_dir = OUT / f"children-{args.seed}"
            shutil.rmtree(wl.trace_dir, ignore_errors=True)
            wl.trace_dir.mkdir()
        cal = calib.calibrate()
        tracer.install()
        try:
            state = wl.prepare(mods)  # traced once, so set-up kernels such as the sieve get spans
            traced = run_pass(wl, mods, state, verified, cal, tracer)
        finally:
            tracer.uninstall()
        if cli_cold:
            shutil.rmtree(wl.trace_dir)
            for i, child in wl.child_traces:
                tracer.merge(child, i)
        spans.write_trace(tracer, OUT / f"trace-{wl.name}-{args.seed}.json.gz")
        metrics = spans.layer_metrics(tracer)
        untraced = statistics.median(sum(t for t in p["times"] if t is not None) for p in passes)
        metrics["trace.overhead_ratio"] = sum(t for t in traced["times"] if t is not None) / untraced
        metrics["cli.interpreter_start_s"] = interpreter_start_s() if cli_cold else 0.0
        metrics["cli.import_s"] = min(wl.import_samples) if cli_cold else 0.0
        passes.append(traced)
        units = {k: ("count" if k.endswith(("_calls", "_per_row", "_per_valuation", "_per_call"))
                     else "ratio" if k.endswith("_ratio") else "ms" if k.endswith("_ms") else "s")
                 for k in metrics}
    else:
        passes, _ = run_passes(wl, setup, verified, seconds, min_passes)
        medians = item_medians(passes)
        times = [t for p in passes for t in p["times"] if t is not None]
        if wl.name == "cli-cold":
            setup = wl.import_samples  # each process pays the import
            # not RUSAGE_CHILDREN: a child's ru_maxrss includes this process's
            # peak, which the child's memory carries up to its exec
            rss_kb = max(wl.rss_samples_kb, default=0)
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": statistics.median(setup) if setup else 0.0,
            "items_per_s": len(medians) / sum(medians) if medians else 0.0,
            "item_p50_ms": 1000 * statistics.median(times) if times else 0.0,
            "item_tail_ms": 1000 * percentile(times, wl.tail_pct) if times else 0.0,
            "peak_rss_mb": rss_kb / 1024,
        }
        units = {"setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms", "item_tail_ms": "ms", "peak_rss_mb": "MB"}

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    wrong = sum(p["wrong"] for p in passes)
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    sys.stderr.write(f"{wl.name} seed={args.seed} passes={len(passes)} items={attempted} "
                     f"tail=p{wl.tail_pct:g}\n")
    line = json.dumps(result)
    detail = {**result, "passes": len(passes), "item_median_s": None if args.trace else item_medians(passes),
              "setup_samples_s": setup, "bench_rss_before_import_mb": bench_rss_kb / 1024}
    (OUT / f"result-{wl.name}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
