"""Common divisors along the middle of a row of Pascal's triangle.

For a row n, the band function min_band(n) is the smallest b such that all
C(n, m) with b < m < n - b share a nontrivial divisor.  It coincides with the
prime-power gap: n minus the largest prime power <= n.  The identity, the
quarter bound gap(n) <= n/4 (n >= 30), and the per-prime band identity are
verified over ranges here; partial-sum growth is reported, never asserted.

By Kummer's theorem a prime p divides the whole band of width b exactly when
prime_band(n, p) <= b, so min_band(n) is the least prime band over p <= n.
With P the largest power of p that is <= n, that band is n - P when P > n//2
(the leading-digit rule) and at least (n//2 + 1)/2 otherwise, more than the
largest prime <= n leaves (Nagura).  So min_band(n) is the prime-power gap,
found from that prime and the powers of the primes <= sqrt(n) with no table
up to n.
prime_divides_band reads the band's definition through a p-adic walk on small
integers; the tests hold min_band and the walk to an exact bignum GCD scan.

Range verifications read the prime-power byte table in order, one window of
at most WINDOW bytes at a time, with C-level bytes.find/rfind/split; across a
window edge they carry the last prime power and the zero run since it.  The
windows come from a PrimePowerSieve's table or, without one, from the segments
of arith.prime_power_segments, so a scan to N holds one segment, not N bytes.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import accumulate, compress, islice
from operator import sub

from .arith import (
    PrimePowerSieve, build_sieve, is_prime, largest_undivided, prime_power_segments, primes_covering, require_prime,
)
from .errors import ParameterError, VerificationError
from .records import Record

# Bytes per window of the range scans; each window is split into its zero runs on its own.
WINDOW = 1 << 12


class BandGapRecord(Record, fields="n gap witness_prime_power"):
    """The prime-power gap c(n) = n - witness_prime_power, the largest prime power <= n."""

    __slots__ = ()


class GapSumReport(Record, fields="n partial_sum exponent ratio max_ratio argmax"):
    """Observed growth of the gap function up to n, scaled by the float n^exponent.

    ratio = (the integer partial_sum of gaps for 2 <= j <= n) / n^exponent;
    max_ratio is the largest pointwise gap(j)/j^exponent with argmax the first
    j attaining it.  Report-only data: the comparison constants are not pinned
    by theory.
    """

    __slots__ = ()

    def record(self) -> dict:
        """The fields as the CLI and the reference log print them, n named max."""
        return {"max": self.n, "exponent": self.exponent, "partial_sum": self.partial_sum,
                "ratio": self.ratio, "max_ratio": self.max_ratio, "argmax": self.argmax}


def prime_divides_band(n: int, b: int, p: int) -> bool:
    """True iff the prime p divides every C(n, m) with b < m < n - b; an empty band counts.

    A p-adic walk on small integers, v_p(C(n, m + 1)) = v_p(C(n, m)) + v_p(n - m) - v_p(m + 1)
    from m = 0 to n//2 (the band is symmetric): no carries or digits, so prime_band is not read.
    """
    if n < 2 or b < 0:
        raise ParameterError(f"prime_divides_band needs n >= 2 and b >= 0, got n={n}, b={b}")
    require_prime(p)
    val = [0] * (n + 1)  # val[x] = v_p(x) for 1 <= x <= n
    q = p
    while q <= n:
        val[q::q] = [v + 1 for v in val[q::q]]
        q *= p
    half = n // 2
    walk = accumulate(map(sub, val[n : n - half : -1], val[1 : half + 1]))  # v_p(C(n, m)), m = 1..half
    return min(islice(walk, b, None), default=1) > 0


def min_band(n: int) -> int:
    """Smallest b >= 0 whose band of binomials has a common divisor > 1: the prime-power gap.

    A prime p divides every C(n, m) with b < m < n - b exactly when
    prime_band(n, p) <= b (Kummer), so the band is the least prime band over
    primes p <= n.  Let cap = n//2 and P the
    largest power of p that is <= n.  When P > cap, n's top base-p digit is 1
    and prime_band(n, p) = n - P (the leading-digit rule).  When P <= cap,
    m = P and the numbers a*P + (n mod P), a up to n's top digit, are
    digit-dominated by n (Lucas); the latter are P apart from n mod P <= cap,
    so prime_band(n, p) >= max(P, cap + 1 - P) >= (cap + 1)/2 (the lemma).  By
    Nagura there is a prime in [x, 6x/5] for x >= 25; with x = 5n/6 the
    largest prime q <= n has n - q <= n/6 < (cap + 1)/2 for n >= 30, and
    q > cap.  So no prime with P <= cap wins, and the band is n minus the
    largest prime power <= n.  The tests check rows n < 30 exhaustively, and
    rows up to 3000 against an exact bignum GCD scan.  Primality is read near
    n and below sqrt n only: the reads near n that the shared table does not
    reach go to trial division, so no row sieves a table up to n.
    """
    if n < 2:
        raise ParameterError(f"min_band needs n >= 2, got {n}")
    q = n
    while not is_prime(q):
        q -= 1
    if q == n:
        return 0
    root = math.isqrt(n)
    for p in compress(range(root + 1), primes_covering(root)[: root + 1]):
        pk = p * p
        while pk * p <= n:
            pk *= p
        if pk > q:
            q = pk
    return n - q


def prime_power_gap(n: int, sieve: PrimePowerSieve) -> BandGapRecord:
    """n minus the largest prime power <= n, with the witness prime power, read from a sieve."""
    if n < 2:
        raise ParameterError(f"prime_power_gap needs n >= 2, got {n}")
    witness = sieve.largest_prime_power(n)
    return BandGapRecord(n, n - witness, witness)


def prime_band(n: int, p: int) -> int:
    """Largest b <= n/2 such that p does not divide C(n, b).

    Digit-only computation: C(n, b) is prime to p exactly when every base-p
    digit of b is at most the matching digit of n (arith.largest_undivided).
    When p^2 > n, n and cap = n//2 have two digits at most and cap's top one is
    at most n's, so b is cap with its last digit lowered to n's if it exceeds it.
    """
    if n < 2:
        raise ParameterError(f"prime_band needs n >= 2, got {n}")
    require_prime(p)
    if p > n:
        raise ParameterError(f"prime_band needs p <= n, got p={p}, n={n}")
    cap = n // 2
    if p * p > n:
        return cap - cap % p + n % p if cap % p > n % p else cap
    return largest_undivided(n, cap, p)


def verify_band_gap_identity(range_hi: int) -> list[BandGapRecord]:
    """Check min_band(n) == gap(n) for every 2 <= n <= range_hi and return the records.

    Raises VerificationError on any mismatch, which would mean a bug here, not
    new mathematics.
    """
    if range_hi < 2:
        raise ParameterError(f"range_hi must be >= 2, got {range_hi}")
    sieve = build_sieve(range_hi)  # up to PRIME_TABLE_CAP, min_band reads its table too
    records = [prime_power_gap(n, sieve) for n in range(2, range_hi + 1)]
    for r in records:
        b = min_band(r.n)
        if b != r.gap:
            raise VerificationError(f"band/gap identity fails at n={r.n}: band={b}, gap={r.gap}")
    return records


def _segments(range_hi: int, sieve: PrimePowerSieve | None):
    """The prime-power table over [0, range_hi] in pieces: the sieve's table whole, or
    prime_power_segments(range_hi) when there is none.  A short sieve raises here."""
    if sieve is None:
        return prime_power_segments(range_hi)
    if sieve.limit < range_hi:
        raise ParameterError(f"sieve limit {sieve.limit} below range_hi {range_hi}")
    return (sieve.is_prime_power,)


def _windows(range_hi: int, segments):
    """(a, w) in order for the table over [2, range_hi]: w is the table over [a, a + len(w))
    as bytes, cut at the multiples of WINDOW, which segment edges are too."""
    lo = 0
    for segment in segments:
        view = memoryview(segment)
        for a in range(lo, min(lo + len(view), range_hi + 1), WINDOW):
            b = max(a, 2)
            yield b, bytes(view[b - lo : min(a + WINDOW, range_hi + 1) - lo])
        lo += len(view)


def verify_quarter_bound(range_hi: int, sieve: PrimePowerSieve | None = None) -> bool:
    """True iff gap(n) <= n/4 for all 30 <= n <= range_hi.

    gap(n)/n = 1 - P/n rises along each zero run after a prime power P, so the
    bound holds iff 4*(E - P) <= E at each run's last n, E.  Windows are read in
    order with the last prime power carried over, and the run a window opens
    with is tested at its end.  Past it, n in a block [lo, 2lo) breaks the bound
    only at the end of k + 1 zeros, k = lo//4: one bytes.find, skipped once k
    reaches the window's length, and a block where it finds them has each run
    end and its own end tested.
    """
    if range_hi < 30:
        raise ParameterError(f"quarter bound check needs range_hi >= 30, got {range_hi}")
    last = 2
    for a, w in _windows(range_hi, _segments(range_hi, sieve)):
        i = w.find(1)
        if i < 0:
            continue
        if 4 * (a + i - 1 - last) > a + i - 1 >= 30:
            return False
        lo, b = max(a + i, 30), a + len(w)
        while lo < b:  # the blocks [lo, 2lo) clipped to the window: one past the first window
            hi, k = min(2 * lo, b), lo // 4
            if k < len(w) and w.find(bytes(k + 1), max(lo - k - a, i), hi - a) >= 0:
                ends = [j - 1 for j in compress(range(lo - a + 1, hi - a), w[lo - a + 1 : hi - a])] + [hi - a - 1]
                if any(4 * (e - w.rfind(1, 0, e + 1)) > a + e for e in ends):
                    return False
            lo = hi
        last = a + w.rfind(1)
    return 4 * (range_hi - last) <= range_hi


GROWTH_EXPONENTS = (0.535, 23 / 18)  # of the reference log and `secmin bands asymptotic`


def asymptotic_report(range_hi: int, exponent: float, sieve: PrimePowerSieve | None = None) -> GapSumReport:
    """Partial sums and pointwise maxima of the gap function, scaled by n^exponent.

    |exponent|*ln(range_hi) <= 708 keeps every n**exponent a normal float, and a
    ratio that still overflows raises ParameterError as well.  A prime power P
    and the w zeros after it are the stretch [P, E = P + w], where gap(n) = n - P;
    the sum adds w(w+1)/2 per run, counted by run length at C speed.  Its ratios
    are at most w/x**exponent, x <= P (x >= E below 0); a stretch whose bound is
    below the running maximum M by a relative 1e-9, far above rounding, cannot
    reach M and is skipped: per block [lo, 2lo) of P, cut at window edges, by
    bytes.find (x = lo or range_hi, M at its start), then per run (x = P or E).
    The rest are scanned per n in order with strict >, so the report is
    bit-identical to a scan of every n.
    """
    return asymptotic_reports(range_hi, (exponent,), sieve)[0]


def _scan_run(best: list, exponent: float, p: int, lo: int, end: int) -> None:
    """Raise best = [M, argmax] over n in [lo, end], a run after the prime power p."""
    max_ratio = best[0]
    for n in range(lo, end + 1):
        r = (n - p) / n**exponent
        if r > max_ratio:
            max_ratio = r
            best[:] = r, n


def asymptotic_reports(range_hi: int, exponents, sieve: PrimePowerSieve | None = None) -> list[GapSumReport]:
    """asymptotic_report for each exponent in turn, from one pass over the windows; the first bad one raises.

    Each window is split into its zero runs on its own, so the pieces alive
    never hold more than WINDOW bytes; a run cut by window edges is counted as
    its pieces, and the sum gets back the cross terms, w(w+1)/2 for w = x + y
    being x(x+1)/2 + y(y+1)/2 + xy.
    """
    if range_hi < 2:
        raise ParameterError(f"range_hi must be >= 2, got {range_hi}")
    windows = _windows(range_hi, _segments(range_hi, sieve))
    scans, bad = [], None  # (e, [M, argmax]) from the scan of every n after n = 2, up to the first bad e
    for e in exponents:
        if not math.isfinite(e) or abs(e) * math.log(range_hi) > 708:
            bad = e
            break
        scans.append((e, [0.0, 2]))
    runs = Counter()  # zero-run length -> count, counting a run cut by a window edge as its pieces
    joined = pending = 0  # the cross terms; the zeros just before the window
    last = 2
    for a, w in windows:
        pieces = w.split(b"\x01")
        runs.update(map(len, pieces))
        i = len(pieces[0])  # the window opens with n in [a, a + i - 1], in the run after last
        joined += pending * i
        for e, best in scans:
            # a stretch whose ratios stay below M by 1e-9 relative is skipped
            if i and (a + i - 1 - last) / (last if e >= 0 else a + i - 1) ** e >= best[0] * (1 - 1e-9):
                _scan_run(best, e, last, a, a + i - 1)
            lo, b = a + i, a + len(w)
            while lo < b:  # the blocks [lo, 2lo) clipped to the window
                least = best[0] * (1 - 1e-9) * (lo if e >= 0 else range_hi) ** e
                if not least < len(w):  # M and lo only grow: no later block has a run this long
                    break
                zeros = bytes(max(math.ceil(least), 1))
                hi = min(2 * lo, b)
                stop = hi - a + len(zeros)
                j = w.find(zeros, lo - a + 1, stop)
                while j >= 0:
                    q = w.find(1, j)
                    p, end = a + w.rfind(1, 0, j), a + (q if q >= 0 else len(w)) - 1
                    if (end - p) / (p if e >= 0 else end) ** e >= best[0] * (1 - 1e-9):
                        _scan_run(best, e, p, p, end)
                    j = w.find(zeros, q + 1, stop) if q >= 0 else -1
                lo = hi
        if len(pieces) > 1:
            pending = len(pieces[-1])
            last = a + len(w) - 1 - pending
        else:
            pending += i
    total = sum(c * r * (r + 1) // 2 for r, c in runs.items()) + joined
    reports = []
    for e, (max_ratio, argmax) in scans:
        ratio = total / range_hi**e
        if not (math.isfinite(ratio) and math.isfinite(max_ratio)):
            raise ParameterError(f"exponent {e!r} sends the ratios past the float range up to n={range_hi}")
        reports.append(GapSumReport(range_hi, total, e, ratio, max_ratio, argmax))
    if bad is not None:
        raise ParameterError(f"exponent {bad!r} leaves n**exponent outside the float range up to n={range_hi}")
    return reports
