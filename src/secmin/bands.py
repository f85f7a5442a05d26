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

Range verifications read the sieve's prime-power byte table with C-level
bytes.find/rfind; they are deterministic and embarrassingly parallel over n.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import accumulate, compress, islice
from operator import sub

from .arith import PrimePowerSieve, build_sieve, is_prime, largest_undivided, primes_covering, require_prime
from .errors import ParameterError, VerificationError
from .records import Record


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


def _covering_table(range_hi: int, sieve: PrimePowerSieve) -> bytes:
    if sieve.limit < range_hi:
        raise ParameterError(f"sieve limit {sieve.limit} below range_hi {range_hi}")
    return sieve.is_prime_power


def verify_quarter_bound(range_hi: int, sieve: PrimePowerSieve) -> bool:
    """True iff gap(n) <= n/4 for all 30 <= n <= range_hi.

    Per block [lo, 2lo), k = lo//4: no run of k + 1 zeros in [lo - k, 2lo) (one
    bytes.find) puts a prime power in each window [n - k, n], so gap(n) <= k <= n/4.
    Where the search finds one, gap(n)/n = 1 - P/n rises along each stretch, so
    the bound holds iff 4*(E - P) <= E at each E before a P and at the block's end.
    """
    if range_hi < 30:
        raise ParameterError(f"quarter bound check needs range_hi >= 30, got {range_hi}")
    t = _covering_table(range_hi, sieve)
    for lo in (30 << j for j in range((range_hi // 30).bit_length())):
        hi, k = min(2 * lo, range_hi + 1), lo // 4
        if t.find(bytes(k + 1), lo - k, hi) >= 0:
            ends = [q - 1 for q in compress(range(lo + 1, hi), t[lo + 1 : hi])] + [hi - 1]
            if any(4 * (e - t.rfind(1, 0, e + 1)) > e for e in ends):
                return False
    return True


GROWTH_EXPONENTS = (0.535, 23 / 18)  # of the reference log and `secmin bands asymptotic`


def asymptotic_report(range_hi: int, exponent: float, sieve: PrimePowerSieve) -> GapSumReport:
    """Partial sums and pointwise maxima of the gap function, scaled by n^exponent.

    |exponent|*ln(range_hi) <= 708 keeps every n**exponent a normal float, and a
    ratio that still overflows raises ParameterError as well.  A prime power P
    and the w zeros after it are the stretch [P, E = P + w], where gap(n) = n - P;
    the sum adds w(w+1)/2 per run, counted by run length at C speed.  Its ratios
    are at most w/x**exponent, x <= P (x >= E below 0); a stretch whose bound is
    below the running maximum M by a relative 1e-9, far above rounding, cannot
    reach M and is skipped: per block [lo, 2lo) of P by bytes.find (x = lo or
    range_hi, M at its start), then per run (x = P or E).  The rest are scanned per n in
    order with strict >, so the report is bit-identical to a scan of every n.
    """
    return asymptotic_reports(range_hi, (exponent,), sieve)[0]


def asymptotic_reports(range_hi: int, exponents, sieve: PrimePowerSieve) -> list[GapSumReport]:
    """asymptotic_report for each exponent in turn, the partial sum computed once; the first bad one raises."""
    if range_hi < 2:
        raise ParameterError(f"range_hi must be >= 2, got {range_hi}")
    t = _covering_table(range_hi, sieve)
    total = sum(c * w * (w + 1) // 2 for w, c in Counter(map(len, t[2 : range_hi + 1].split(b"\x01"))).items())
    reports = []
    for exponent in exponents:
        if not math.isfinite(exponent) or abs(exponent) * math.log(range_hi) > 708:
            raise ParameterError(f"exponent {exponent!r} leaves n**exponent outside the float range up to n={range_hi}")
        max_ratio, argmax = 0.0, 2  # the scan of every n after n = 2
        for lo in (2 << j for j in range((range_hi // 2).bit_length())):
            least = max_ratio * (1 - 1e-9) * (lo if exponent >= 0 else range_hi) ** exponent
            if least > range_hi:  # before ceil: an inf M ends the loop and raises below
                break  # M and lo only grow, so no later block has a run this long
            zeros = bytes(max(math.ceil(least), 1))
            stop = min(2 * lo + len(zeros), range_hi + 1)
            i = t.find(zeros, lo + 1, stop)
            while i >= 0:
                p = t.rfind(1, 0, i)  # below lo for a run from the block before: seen again, to no effect
                q = t.find(1, i, range_hi + 1)
                end = q - 1 if q >= 0 else range_hi
                if (end - p) / (p if exponent >= 0 else end) ** exponent >= max_ratio * (1 - 1e-9):
                    for n in range(p, end + 1):
                        r = (n - p) / n**exponent
                        if r > max_ratio:
                            max_ratio, argmax = r, n
                i = t.find(zeros, end + 2, stop)
        ratio = total / range_hi**exponent
        if not (math.isfinite(ratio) and math.isfinite(max_ratio)):
            raise ParameterError(f"exponent {exponent!r} sends the ratios past the float range up to n={range_hi}")
        reports.append(GapSumReport(range_hi, total, exponent, ratio, max_ratio, argmax))
    return reports
