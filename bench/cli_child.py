"""Run one secmin CLI call as the console script does, timing the package import.

Usage: PYTHONPATH=src python3 bench/cli_child.py <secmin arguments>

Runs the calibration kernel (calib.py) before the import and again after
the command, so that the parent can scale this process's latency by the
speed of the CPU it ran on.  Writes `bench.import_s=<seconds>` to stderr
before the command runs, and `bench.peak_rss_kb=<kB>` (VmHWM, the peak
resident memory since exec) and `bench.cal_s=<before>,<after>` when it
ends.  When
SECMIN_BENCH_TRACE names a file, the call is traced and its spans are
written there as JSON when the process exits.
"""

import sys
import time

import calib

cal_before = calib.calibrate()
t0 = time.perf_counter()
from secmin import cli  # noqa: E402  (the import is what is being timed)

import_s = time.perf_counter() - t0
sys.stderr.write(f"bench.import_s={import_s!r}\n")


def peak_rss_kb() -> int:
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def main() -> None:
    import os

    trace_out = os.environ.get("SECMIN_BENCH_TRACE")
    tracer = None
    if trace_out:
        import json

        import spans

        tracer = spans.Tracer()
        tracer.install()
    sys.argv = ["secmin", *sys.argv[1:]]
    try:
        cli.console_main()
    finally:
        cal_after = calib.calibrate()
        sys.stderr.write(f"bench.peak_rss_kb={peak_rss_kb()}\nbench.cal_s={cal_before!r},{cal_after!r}\n")
        if tracer is not None:
            tracer.uninstall()
            with open(trace_out, "w") as fh:
                json.dump(tracer.dump(), fh)


main()
