"""Acceptance gate: every criterion at its stated scale and tolerance.

Run with `pytest tests/test_acceptance.py -v` (or `-s` for the printed
pass/fail lines); `secmin verify-all` reproduces the same checks from the
command line.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from secmin import arith, suite

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parent.parent / "src"


@pytest.fixture(scope="module")
def big_sieve():
    return arith.build_sieve(10**6)


def announce(number: int, name: str, detail: str, elapsed: float, limit: float | None) -> None:
    print(f"criterion {number:2d} ({name}): PASS [{elapsed:.1f}s] {detail}")
    if limit is not None:
        assert elapsed < limit, f"criterion {number} took {elapsed:.1f}s, limit {limit}s"


def test_c01_band_gap_identity_to_3000():
    t0 = time.perf_counter()
    detail = suite.check_band_gap_identity(3000)
    announce(1, "band equals gap", detail, time.perf_counter() - t0, 60)


def test_c02_prime_power_band_vanishes_to_3000():
    t0 = time.perf_counter()
    detail = suite.check_prime_power_vanishing(3000)
    announce(2, "prime-power vanishing", detail, time.perf_counter() - t0, None)


def test_c03_quarter_bound_to_one_million(big_sieve):
    t0 = time.perf_counter()
    detail = suite.check_quarter_bound(10**6, big_sieve)
    announce(3, "quarter bound", detail, time.perf_counter() - t0, 10)


def test_c04_valuation_two_oracle_to_500():
    t0 = time.perf_counter()
    detail = suite.check_kummer_legendre(500)
    announce(4, "valuation two-oracle", detail, time.perf_counter() - t0, None)


def test_c05_prime_band_identity_to_2000():
    t0 = time.perf_counter()
    detail = suite.check_prime_band_identity(2000)
    announce(5, "per-prime band identity", detail, time.perf_counter() - t0, None)


def test_c06_secant_two_oracle_full_sweep():
    t0 = time.perf_counter()
    detail = suite.check_secant_two_oracle(6, 6, 40)
    announce(6, "secant degree two-oracle", detail, time.perf_counter() - t0, 300)


def test_c07_curve_degree_identity():
    t0 = time.perf_counter()
    detail = suite.check_curve_degree(10, 50)
    announce(7, "curve degree identity", detail, time.perf_counter() - t0, None)


def test_c08_transference_500_random():
    t0 = time.perf_counter()
    detail = suite.check_transference(500)
    announce(8, "transference", detail, time.perf_counter() - t0, 120)


def test_c09_avoidance_200_random():
    t0 = time.perf_counter()
    detail = suite.check_avoidance(200)
    announce(9, "hypersurface avoidance", detail, time.perf_counter() - t0, None)


def test_c10_bound_evaluator_consistency():
    t0 = time.perf_counter()
    detail = suite.check_bound_consistency()
    announce(10, "bound consistency", detail, time.perf_counter() - t0, None)


def test_c11_asymptotic_reference_log(big_sieve):
    t0 = time.perf_counter()
    lines = suite.asymptotic_lines(10**6, big_sieve)
    reference = (DATA / "asymptotic_reference.txt").read_text().splitlines()
    assert lines == reference, "regenerated ratios differ from the committed reference log"
    announce(11, "asymptotic report", "; ".join(lines), time.perf_counter() - t0, None)


# Streams the prime-power table to 10^8 in a fresh process: the ones up to 10^7 and
# 10^8, the first run of 219 zeros and whether one of 220 occurs (a run of w zeros
# after p is the gap p -> p + w + 1), then the growth report to 10^8, and VmHWM.
STREAM_TO_1E8 = """
from secmin import arith, bands
ones, ones_1e7, run219, run220, tail, lo = 0, None, None, False, b"", 0
for seg in arith.prime_power_segments(10**8):
    if ones_1e7 is None and lo + len(seg) > 10**7:
        ones_1e7 = ones + seg.count(1, 0, 10**7 + 1 - lo)
    ones += seg.count(1)
    buf = tail + seg  # buf[0] is entry lo - len(tail)
    j = buf.find(bytes(219))
    if run219 is None and j >= 0:
        run219 = lo - len(tail) + j - 1
    run220 = run220 or buf.find(bytes(220)) >= 0
    tail, lo = bytes(buf[-220:]), lo + len(seg)
bands.asymptotic_reports(10**8, bands.GROWTH_EXPONENTS)
with open("/proc/self/status") as fh:
    hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(ones_1e7, ones, run219, run220, hwm_kb)
"""


def higher_prime_powers(n: int) -> int:
    """The number of p^k <= n with k >= 2, from primes found by trial division."""
    count = 0
    for p in range(2, int(n**0.5) + 2):
        if all(p % d for d in range(2, int(p**0.5) + 1)):
            q = p * p
            while q <= n:
                count += 1
                q *= p
    return count


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_c12_streamed_table_to_1e8_in_bounded_memory():
    t0 = time.perf_counter()
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", STREAM_TO_1E8], env=env, capture_output=True, text=True, check=True)
    ones_1e7, ones, run219, run220, hwm_kb = out.stdout.split()
    # pi(10^7) and pi(10^8); the maximal gap 220 after 47,326,693 (Young and Potler, 1989)
    assert int(ones_1e7) - higher_prime_powers(10**7) == 664_579
    assert int(ones) - higher_prime_powers(10**8) == 5_761_455
    assert (int(run219), run220) == (47_326_693, "False")
    assert int(hwm_kb) <= 32 * 1024, f"streaming to 10^8 peaked at {int(hwm_kb) / 1024:.1f} MB"
    detail = f"pi(1e8)=5761455, gap 220 after 47326693, peak {int(hwm_kb) / 1024:.1f} MB"
    announce(12, "streamed table to 1e8", detail, time.perf_counter() - t0, None)
