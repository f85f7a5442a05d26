"""Tests of the benchmark itself; they finish in seconds.

Run from the root of a checkout:  python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from run import import_secmin  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--smoke", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "pascal-rows", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def one_item(workload, index=0):
    wl = workloads.WORKLOADS[workload](7, True, HERE / "out")
    mods = import_secmin()
    state = wl.prepare(mods)
    _, out = wl.run(mods, state, index)
    assert wl.check(index, out) is None
    return wl, out


def test_checks_catch_a_wrong_band():
    wl, out = one_item("pascal-rows")
    assert wl.check(0, (out[0], out[1], out[2] + 1, *out[3:])) is not None
    bad_vals = list(out[4])
    bad_vals[-1] += 1
    assert wl.check(0, (*out[:4], bad_vals, *out[5:])) is not None
    for delta in (-1, 1):
        bad_bands = list(out[3])
        bad_bands[0] += delta
        assert wl.check(0, (*out[:3], bad_bands, *out[4:])) is not None


def test_checks_catch_a_wrong_minimum():
    wl, out = one_item("lattice-lab", 2)
    sq = list(out[0])
    sq[-1] += 1
    assert wl.check(2, (tuple(sq), *out[1:])) is not None


def test_checks_catch_a_wrong_degree():
    wl, out = one_item("secant-sweep", 1)
    assert wl.check(1, (out[0] + 1, *out[1:])) is not None
    values = list(out[2])
    values[2] *= 1 + 1e-9
    assert wl.check(1, (out[0], out[1], values, out[3])) is not None


def test_tracer_skips_missing_targets(monkeypatch):
    import_secmin()
    monkeypatch.setattr(spans, "SPAN_TARGETS", spans.SPAN_TARGETS + [
        ("secmin.secant", "segre_series_removed", "secant.gone"),
        ("secmin.secant", "NoSuchClass.inverse", "secant.gone_too"),
    ])
    tracer = spans.Tracer()
    tracer.install()
    try:
        sys.modules["secmin.bands"].min_band(10)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer)
    assert metrics["bands.band_gcd_per_row"] == 2.0  # min_band(10) = 1 scans b = 0 and b = 1
    assert "secant.gone" not in tracer.names
