"""Band-function tests: the digit route against brute-force GCD oracles, per-prime
identities, reports."""

import math
import tracemalloc
from bisect import bisect_right
from itertools import accumulate, compress

import pytest
from hypothesis import example, given, settings, strategies as st

from secmin import arith, bands, suite
from secmin.arith import (
    PRIME_TABLE_CAP,
    PrimePowerSieve,
    build_sieve,
    is_prime,
    kummer_valuation,
    largest_undivided,
    primes_covering,
)
from secmin.bands import (
    GROWTH_EXPONENTS,
    WINDOW,
    BandGapRecord,
    GapSumReport,
    asymptotic_report,
    asymptotic_reports,
    min_band,
    prime_band,
    prime_divides_band,
    prime_power_gap,
    verify_band_gap_identity,
    verify_quarter_bound,
)
from secmin.errors import ParameterError, ResourceLimitError, VerificationError


def gcd_of_row_band(n: int, b: int) -> int:
    """Test oracle: math.gcd over the explicitly materialized band."""
    values = [math.comb(n, m) for m in range(b + 1, n - b)]
    return math.gcd(*values) if values else 0


def band_gcd(n: int, b: int) -> int:
    """Exact GCD of the binomials C(n, m) over the open band b < m < n - b.

    Scans only up to the middle (the band is symmetric) and stops early once
    the running GCD reaches 1.  An empty band yields gcd 0.  This bignum scan
    is the exact oracle for min_band and prime_divides_band.
    """
    if n < 2:
        raise ParameterError(f"band_gcd needs n >= 2, got {n}")
    if b < 0:
        raise ParameterError(f"band start must be >= 0, got {b}")
    g = 0
    c = math.comb(n, b + 1)
    gcd = math.gcd
    for m in range(b + 1, n // 2 + 1):  # empty exactly when the band is
        g = gcd(g, c)
        if g == 1:
            break
        c = c * (n - m) // (m + 1)
    return g


def brute_prime_band(n: int, p: int) -> int:
    """Test oracle: scan b = n//2 downward for the first undivided binomial."""
    for b in range(n // 2, -1, -1):
        if kummer_valuation(n, b, p) == 0:
            return b
    raise AssertionError("C(n,0) = 1 is never divisible")


def all_primes_min_band(n: int) -> int:
    """Test oracle, the former min_band: the digit kernel on every prime <= n."""
    cap = n // 2
    best = cap
    for p in compress(range(n, 1, -1), primes_covering(n)[n:1:-1]):
        b = largest_undivided(n, cap, p)
        if b < best:
            if b == 0:
                return 0
            best = b
    return best


def largest_power(n: int, p: int) -> int:
    """The largest power of p that is <= n, for 2 <= p <= n."""
    q = p
    while q * p <= n:
        q *= p
    return q


def brute_largest_prime_power(n: int) -> int:
    for q in range(n, 1, -1):
        divisors = [p for p in range(2, q + 1) if is_prime(p) and q % p == 0]
        if len(divisors) == 1:
            r = q
            while r % divisors[0] == 0:
                r //= divisors[0]
            if r == 1:
                return q
    raise AssertionError(f"no prime power below {n}")


def listed_prime_powers(sieve: PrimePowerSieve) -> list[int]:
    """The sieve's prime powers as the former sorted list."""
    return list(compress(range(sieve.limit + 1), sieve.is_prime_power))


def power_table(limit: int, points) -> bytes:
    """A prime-power table over [0, limit] with exactly the given points set."""
    points = set(points)
    return bytes(n in points for n in range(limit + 1))


def largest_listed(pp: list[int], n: int) -> int:
    """The former largest_prime_power: a binary search in the sorted list."""
    i = bisect_right(pp, n)
    return pp[i - 1] if i else 0


def scan_quarter_bound(range_hi: int, pp: list[int]) -> int | None:
    """Test oracle, the former scan of every n: the first n >= 30 with gap(n) > n/4."""
    for n in range(30, range_hi + 1):
        if 4 * (n - largest_listed(pp, n)) > n:
            return n
    return None


def scan_asymptotic_report(range_hi: int, exponent: float, pp: list[int]) -> GapSumReport:
    """Test oracle, the former scan of every n for asymptotic_report."""
    total = 0
    max_ratio = -1.0
    argmax = 2
    for n in range(2, range_hi + 1):
        c = n - largest_listed(pp, n)
        total += c
        r = c / n**exponent
        if r > max_ratio:
            max_ratio = r
            argmax = n
    return GapSumReport(range_hi, total, exponent, total / range_hi**exponent, max_ratio, argmax)


def stretches(range_hi: int, lo: int, pp: list[int]):
    """The former stretch walk: (P, E) for the stretches of [lo, range_hi] from the one
    holding lo, P a prime power and E the last n before the next one or range_hi."""
    first = bisect_right(pp, lo) - 1
    last = bisect_right(pp, range_hi)
    return zip(pp[first:last], [q - 1 for q in pp[first + 1 : last]] + [range_hi])


def stretch_quarter_bound(range_hi: int, pp: list[int]) -> bool:
    """Test oracle, the former per-stretch test: 4*(E - P) <= E at every stretch's end."""
    return all(4 * (end - p) <= end for p, end in stretches(range_hi, 30, pp))


def stretch_asymptotic_report(range_hi: int, exponent: float, pp: list[int]) -> GapSumReport:
    """Test oracle, the former asymptotic_report: every stretch through the skip test."""
    total = 0
    max_ratio = -1.0
    argmax = 2
    for p, end in stretches(range_hi, 2, pp):
        w = end - p
        total += w * (w + 1) // 2
        if w / (p if exponent >= 0 else end) ** exponent < max_ratio * (1 - 1e-9):
            continue
        for n in range(p, end + 1):
            r = (n - p) / n**exponent
            if r > max_ratio:
                max_ratio = r
                argmax = n
    return GapSumReport(range_hi, total, exponent, total / range_hi**exponent, max_ratio, argmax)


def assert_quarter_bound_matches_scans(range_hi: int, sieve: PrimePowerSieve) -> int | None:
    """verify_quarter_bound against both oracles; returns the scan's first failing n."""
    pp = listed_prime_powers(sieve)
    first_bad = scan_quarter_bound(range_hi, pp)
    assert verify_quarter_bound(range_hi, sieve) == stretch_quarter_bound(range_hi, pp) == (first_bad is None)
    return first_bad


def bits(report: GapSumReport) -> tuple:
    """A report's fields with floats as exact bit patterns (0.0 != -0.0)."""
    return tuple(v.hex() if isinstance(v, float) else v for v in report._asdict().values())


def assert_report_matches_scan(range_hi: int, exponent: float, sieve: PrimePowerSieve) -> None:
    """Equal reports from the table, the stretch walk and the scan of every n,
    floats compared as exact bit patterns."""
    pp = listed_prime_powers(sieve)
    got = bits(asymptotic_report(range_hi, exponent, sieve))
    assert got == bits(stretch_asymptotic_report(range_hi, exponent, pp))
    assert got == bits(scan_asymptotic_report(range_hi, exponent, pp))


REPORT_EXPONENTS = [0.535, 23 / 18, 0.0, -0.5, 0.999, 1.0, 3.0, 40.0]


class TestBandGcd:
    def test_examples(self):
        assert band_gcd(6, 0) == 1
        assert band_gcd(6, 1) == 5
        for p, k in [(2, 2), (3, 1), (5, 1), (2, 4)]:
            assert band_gcd(p**k, 0) % p == 0

    def test_against_materialized_band(self):
        for n in range(2, 81):
            for b in range(0, n // 2 + 2):
                assert band_gcd(n, b) == gcd_of_row_band(n, b)

    def test_gcd_divides_every_member(self):
        for n in (12, 35, 64, 97):
            g = band_gcd(n, 1)
            for m in range(2, n - 1):
                assert math.comb(n, m) % g == 0

    def test_empty_band(self):
        assert band_gcd(5, 2) == 0


SMALL_PRIMES = [p for p in range(2, 500) if is_prime(p)]


class TestPrimeDividesBand:
    def test_every_prime_power_to_3000_against_band_gcd(self):
        count = 0
        for p in build_sieve(3000).primes():
            q = p
            while q <= 3000:
                assert prime_divides_band(q, 0, p)
                assert band_gcd(q, 0) % p == 0
                count += 1
                q *= p
        assert count == 466

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=2, max_value=400), st.integers(min_value=0, max_value=201), st.sampled_from(SMALL_PRIMES))
    @example(10, 0, 2)  # C(10, 2) = 45 is odd
    @example(27, 0, 3)
    @example(28, 0, 3)  # C(28, 1) = 28
    @example(9, 4, 5)  # empty band: band_gcd 0, which every prime divides
    def test_against_band_gcd(self, n, b, p):
        b %= n // 2 + 2  # every band of row n, the empty one included
        assert prime_divides_band(n, b, p) == (band_gcd(n, b) % p == 0)

    def test_validation(self):
        for n, b, p in [(1, 0, 2), (5, -1, 2), (8, 0, 4), (8, 0, 1)]:
            with pytest.raises(ParameterError):
                prime_divides_band(n, b, p)


class TestMinBand:
    def test_examples(self):
        assert min_band(8) == 0
        assert min_band(6) == 1
        assert min_band(10) == 1

    def test_minimality(self):
        # the exact bignum scan is the oracle over the acceptance range
        for n in range(2, 3001):
            b = min_band(n)
            assert band_gcd(n, b) > 1
            if b >= 1:
                assert band_gcd(n, b - 1) == 1

    def test_large_rows_match_sieve_gaps(self):
        # rows above PRIME_TABLE_CAP = 2^20 take a fresh table, not the shared one
        sieve = build_sieve(2**20 + 2)
        for n in (10030, 50894, 199999, 200000, 10**6, 2**20, 2**20 + 1, 2**20 + 2):
            assert min_band(n) == n - sieve.largest_prime_power(n), n
        assert sieve.largest_prime_power(10**6) == 10**6 - 17

    def test_forms_no_binomial(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("min_band took the bignum route")

        monkeypatch.setattr(math, "comb", forbidden)
        monkeypatch.setattr(math, "gcd", forbidden)
        assert min_band(50894) == 1

    def test_rejects_small_row(self):
        with pytest.raises(ParameterError):
            min_band(1)

    def test_matches_all_primes_scan(self):
        for n in range(2, 5001):
            assert min_band(n) == all_primes_min_band(n), n

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=2 * 10**5))
    @example(2 * 10**5)
    @example(155921 + 85)  # inside the largest prime gap below 2*10^5
    @example(65536)
    @example(2 * 3**10)  # P = 3^10 is n//2 exactly
    def test_matches_all_primes_scan_random(self, n):
        assert min_band(n) == all_primes_min_band(n)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=2 * 10**5))
    @example(2)
    @example(8)
    @example(155921 + 85)
    @example(10**5)
    def test_makes_no_kernel_call(self, n):
        # the gap comes from the largest prime and the prime powers alone:
        # by Nagura no prime with P <= n//2 can lower it
        def forbidden(*args):
            raise AssertionError("min_band called the digit kernel")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bands, "largest_undivided", forbidden)
            min_band(n)

    def test_above_table_cap_sieves_no_table_to_n(self, monkeypatch):
        rows = [PRIME_TABLE_CAP + k for k in (1, 2, 12, 30)]
        sieve = build_sieve(rows[-1])
        prime_table = arith.prime_table
        limits = []

        def counting(limit):
            limits.append(limit)
            return prime_table(limit)

        monkeypatch.setattr(arith, "_table", bytearray())
        monkeypatch.setattr(arith, "prime_table", counting)
        for n in rows:
            assert min_band(n) == n - sieve.largest_prime_power(n), n
        # primality is read near n by trial division, and below sqrt(n) from
        # the shared table, which the first row grew once
        assert len(limits) == 1 and limits[0] < rows[0], limits

    def test_below_table_cap_sieves_no_table_to_n(self, monkeypatch):
        prime_table = arith.prime_table

        def refusing(limit):
            if limit >= 10**6:
                raise AssertionError(f"min_band sieved a table to {limit}")
            return prime_table(limit)

        monkeypatch.setattr(arith, "_table", bytearray())
        monkeypatch.setattr(arith, "prime_table", refusing)
        assert min_band(10**6) == 17

    def test_equals_min_of_prime_bands(self):
        sieve = build_sieve(500)
        primes = sieve.primes()
        for n in range(2, 501):
            expected = min(prime_band(n, p) for p in primes if p <= n)
            assert min_band(n) == expected


class TestPrimePowerGap:
    def test_examples(self):
        sieve = build_sieve(100)
        assert prime_power_gap(10, sieve).gap == 1
        assert prime_power_gap(10, sieve).witness_prime_power == 9
        assert prime_power_gap(7, sieve).gap == 0
        assert prime_power_gap(30, sieve).witness_prime_power == 29

    def test_against_brute_witness(self):
        sieve = build_sieve(400)
        for n in range(2, 401):
            assert prime_power_gap(n, sieve).witness_prime_power == brute_largest_prime_power(n)

    def test_beyond_sieve_rejected(self):
        sieve = build_sieve(50)
        with pytest.raises(ParameterError):
            prime_power_gap(51, sieve)


class TestPrimeBand:
    def test_against_brute(self):
        sieve = build_sieve(200)
        primes = sieve.primes()
        for n in range(2, 201):
            for p in primes:
                if p > n:
                    break
                assert prime_band(n, p) == brute_prime_band(n, p)

    def test_double_prime(self):
        for p in (3, 5, 7, 11, 13):
            assert prime_band(2 * p, p) == p

    def test_leading_digit_one_identity(self):
        # p^k <= n < 2 p^k: the band is exactly n - p^k
        for n, p in [(12, 11), (100, 97), (17, 2), (1000, 31), (45, 23)]:
            q = p
            while q * p <= n:
                q *= p
            assert n < 2 * q
            assert prime_band(n, p) == n - q

    def test_big_leading_digit_quarter(self):
        # leading base-p digit >= 2 forces the band above n/4
        sieve = build_sieve(1000)
        primes = sieve.primes()
        cases = 0
        for n in range(8, 1001):
            for p in primes:
                if p > n:
                    break
                q = p
                while q * p <= n:
                    q *= p
                if n // q >= 2:
                    assert 4 * prime_band(n, p) > n, (n, p)
                    cases += 1
        assert cases > 1000

    def test_rejects(self):
        with pytest.raises(ParameterError):
            prime_band(10, 11)
        for base in (4, 9, 1, 0, -3):
            with pytest.raises(ParameterError):
                prime_band(10, base)
        with pytest.raises(ParameterError):
            prime_band(1, 2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=2 * 10**5))
    @example(2)
    @example(3)
    @example(4)
    @example(31 * 31 - 1)
    @example(31 * 31)
    @example(31 * 31 + 1)
    @example(2 * 10**5)
    def test_lemma_and_leading_digit_rule(self, n):
        # min_band's proof rests on these two, for every prime p <= n;
        # the general digit kernel is the oracle for prime_band's p^2 > n shortcut
        cap = n // 2
        for p in compress(range(n + 1), primes_covering(n)[: n + 1]):
            b = prime_band(n, p)
            assert b == largest_undivided(n, cap, p), (n, p)
            q = largest_power(n, p)
            assert b >= cap + 1 - q, (n, p)
            if q > cap:
                assert b == n - q, (n, p)

    def test_validates_once(self, monkeypatch):
        calls = []

        def counting(p):
            calls.append(p)
            return is_prime(p)

        monkeypatch.setattr(arith, "is_prime", counting)
        monkeypatch.setattr(bands, "is_prime", counting)
        # a p on the shared table is read from it inline, as kummer_valuation does
        monkeypatch.setattr(arith, "_table", arith.prime_table(100))
        assert prime_band(50, 7) == 1
        assert calls == []
        # off the table, is_prime is asked once
        monkeypatch.setattr(arith, "_table", bytearray())
        assert prime_band(50, 7) == 1
        assert calls == [7]

    @settings(deadline=None)
    @given(
        st.one_of(
            st.sampled_from([-7, -1, 0, 1, 4, 9, 49, 101, 1048583]),
            st.integers(min_value=-300, max_value=300),
        ),
        st.sampled_from([0, 2, 64, 200]),
    )
    @example(-62, 64)  # unguarded, would read entry 65 - 62 = 3 of the table
    @example(101, 64)  # a prime past the table's end
    @example(99, 64)  # a composite past the table's end
    def test_validation_as_is_prime(self, p, table_limit):
        # rejects p exactly when is_prime does, with the same message, whatever
        # the length of the shared table
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arith, "_table", arith.prime_table(table_limit) if table_limit else bytearray())
            n = max(abs(p), 2)
            if is_prime(p):
                assert prime_band(n, p) == largest_undivided(n, n // 2, p)
            else:
                with pytest.raises(ParameterError, match=rf"^p must be prime, got {p}$"):
                    prime_band(n, p)


def identity_oracle(range_hi: int) -> BandGapRecord:
    """Test oracle, the former per-n records: the record of the first n <= range_hi with the
    largest gap, read from a full sieve."""
    sieve = build_sieve(range_hi)
    return max((prime_power_gap(n, sieve) for n in range(2, range_hi + 1)), key=lambda r: r.gap)


class TestVerifiers:
    def test_identity_range_100(self):
        assert verify_band_gap_identity(100) == BandGapRecord(96, 7, 89) == identity_oracle(100)

    def test_identity_range_2(self):
        assert verify_band_gap_identity(2) == BandGapRecord(2, 0, 2)

    def test_identity_sieves_once(self, monkeypatch):
        # the identity fills the shared table first, so min_band's reads need no second sieve
        prime_table = arith.prime_table
        limits = []

        def counting(limit):
            limits.append(limit)
            return prime_table(limit)

        monkeypatch.setattr(arith, "_table", bytearray())
        monkeypatch.setattr(arith, "prime_table", counting)
        verify_band_gap_identity(3000)
        assert limits == [3000]

    def test_small_range_explicit(self):
        verify_band_gap_identity(30)
        sieve = build_sieve(30)
        for n in range(2, 31):
            assert prime_power_gap(n, sieve).gap <= max(n // 4, 1)

    @pytest.mark.parametrize("range_hi", [2, 3, *(k * 16 + d for k in (1, 2, 4, 8, 13, 16) for d in (-1, 0, 1)), 1000])
    def test_identity_over_small_windows_and_segments(self, monkeypatch, range_hi):
        # WINDOW = 16 and SEGMENT = 4 * WINDOW: ranges either side of window and segment edges,
        # and 13 * 16 = 208 inside the run 200..210 of the largest gap up to 256
        monkeypatch.setattr(bands, "WINDOW", 16)
        monkeypatch.setattr(arith, "SEGMENT", 64)
        assert verify_band_gap_identity(range_hi) == identity_oracle(range_hi)

    @pytest.mark.parametrize("dropped", [2, 16, 61, 64, 127, 128, 199, 211])
    def test_a_dropped_prime_power_is_named(self, monkeypatch, dropped):
        # a segment that misses the prime power q gives gap(q) > 0 = min_band(q)
        segments = arith.prime_power_segments

        def damaged(limit):
            lo = 0
            for seg in segments(limit):
                if lo <= dropped < lo + len(seg):
                    seg[dropped - lo] = 0
                lo += len(seg)
                yield seg

        monkeypatch.setattr(bands, "WINDOW", 16)
        monkeypatch.setattr(arith, "SEGMENT", 64)
        monkeypatch.setattr(bands, "prime_power_segments", damaged)
        with pytest.raises(VerificationError, match=rf"^band/gap identity fails at n={dropped}: band=0, gap=[1-9]"):
            verify_band_gap_identity(300)

    def test_identity_and_suite_build_no_full_table(self, monkeypatch):
        want = identity_oracle(3000)

        def forbidden(limit):
            raise AssertionError(f"built a full table to {limit}")

        monkeypatch.setattr(arith, "build_sieve", forbidden)
        assert verify_band_gap_identity(3000) == want
        assert all(r.ok for r in suite.run_all(quick=True))

    def test_identity_memory_is_bounded(self):
        # one segment and one record: the former list of 3 * 10^4 records peaked above 4 MB
        tracemalloc.start()
        try:
            verify_band_gap_identity(3 * 10**4)
            assert tracemalloc.get_traced_memory()[1] < 1 << 19
        finally:
            tracemalloc.stop()

    def test_identity_beyond_the_table_cap_is_refused_before_any_work(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("work done past the cap")

        for name in ("primes_covering", "prime_power_segments", "min_band"):
            monkeypatch.setattr(bands, name, forbidden)
        with pytest.raises(ResourceLimitError, match=rf"^a sieve table to {arith.TABLE_CAP} needs "):
            verify_band_gap_identity(arith.TABLE_CAP)
        with pytest.raises(ParameterError):
            verify_band_gap_identity(1)

    def test_quarter_bound_small(self):
        sieve = build_sieve(2000)
        assert verify_quarter_bound(2000, sieve)
        assert sieve.largest_prime_power(32) == 32

    def test_prime_power_in_upper_quarter(self):
        # a prime power exists in [3n/4, n] for every 8 <= n <= 10^5; the
        # prime-only version fails exactly at n = 10, where 9 = 3^2 steps in
        sieve = build_sieve(10**5)
        for n in range(8, sieve.limit + 1):
            assert 4 * sieve.largest_prime_power(n) >= 3 * n, n
        count = [0] * (sieve.limit + 1)
        running = 0
        for n in range(sieve.limit + 1):
            if is_prime(n):
                running += 1
            count[n] = running
        prime_failures = [
            n
            for n in range(8, sieve.limit + 1)
            if count[n] - count[(3 * n + 3) // 4 - 1] < 1
        ]
        assert prime_failures == [10]

    def test_prime_power_vanishing_reads_the_definition(self, monkeypatch):
        # a walk that leaves the band at one prime power must fail the check, whatever min_band says
        walk_exact = bands.prime_divides_band

        def undivided_at_27(n, b, p):
            return False if n == 27 else walk_exact(n, b, p)

        monkeypatch.setattr(bands, "prime_divides_band", undivided_at_27)
        with pytest.raises(VerificationError, match=r"C\(27, m\) for 0 < m < 27 have gcd 1"):
            suite.check_prime_power_vanishing(300)
        assert suite.check_prime_power_vanishing(26) == "14 prime powers <= 26, all with band 0"


class TestStretchScans:
    """The block scans of the prime-power table against the former stretch walk
    over the sorted list and the former scans of every n."""

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=30, max_value=2 * 10**4))
    @example(30)
    @example(31)
    @example(2 * 10**4)
    def test_quarter_bound_matches_scan(self, range_hi):
        assert_quarter_bound_matches_scans(range_hi, build_sieve(range_hi))

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=2, max_value=2 * 10**4),
        st.one_of(st.sampled_from(REPORT_EXPONENTS), st.floats(min_value=-3, max_value=3)),
    )
    @example(2, 0.535)
    @example(3, -0.5)
    @example(2 * 10**4, 40.0)
    @example(2 * 10**4, -3.0)
    @example(10**4, 5e-324)
    # the largest exponents accepted at 10^5: the block threshold's x**exponent
    # nears the float range's ends, and past the first blocks no run reaches it
    @example(10**5, 61.0)
    @example(10**5, -60.0)
    @example(10**5, 40.0)
    @example(10**5, 5e-324)
    def test_asymptotic_report_matches_scan(self, range_hi, exponent):
        sieve = build_sieve(range_hi)
        assert_report_matches_scan(range_hi, exponent, sieve)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=60))
    @example(193, 56)  # drops 1009..1381, the fixed case below: first failure at n = 1330
    def test_dropped_prime_powers_fail_at_the_same_place(self, start, count):
        # a table missing prime powers (keeping 2): all scans read the same wrong gaps
        full = build_sieve(3000)
        pp = listed_prime_powers(full)
        damaged = PrimePowerSieve(3000, full._is_prime, power_table(3000, pp[:start] + pp[start + count :]))
        first_bad = assert_quarter_bound_matches_scans(3000, damaged)
        if first_bad is not None:
            assert not verify_quarter_bound(first_bad, damaged)
            assert first_bad == 30 or verify_quarter_bound(first_bad - 1, damaged)
        for exponent in (0.535, -0.5):
            assert_report_matches_scan(3000, exponent, damaged)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sets(st.integers(min_value=3, max_value=400)),
        st.one_of(st.sampled_from(REPORT_EXPONENTS), st.floats(min_value=-3, max_value=3)),
    )
    @example({11, 258, 261}, -3.0)  # fails if the skip bound divides by the larger power
    # the stretch [60, 69] starts in block [32, 64) and its zero run reaches over 64
    @example({3, 4, 5, 7, 60, 70}, 0.535)
    @example({3, 4, 5, 7, 60, 70}, -0.5)
    # runs over the quarter bound's block edges 60, 120 and 240
    @example({3, 4, 5, 7, 50, 58, 100, 130, 200, 250}, 1.0)
    # two longest runs, [40, 50] and [200, 210]: the later one beats the first
    # by about 1.4e-7 relative, so a skip margin above 1 would keep argmax at 50
    @example(set(range(3, 401)) - set(range(41, 51)) - set(range(201, 211)), -1e-7)
    def test_any_staircase_matches_scan(self, points, exponent):
        # the skip bound and both block tests hold for any table with 2 set,
        # not only the prime powers' short stretches
        sieve = PrimePowerSieve(400, bytearray(401), power_table(400, points | {2}))
        assert_report_matches_scan(400, exponent, sieve)
        first_bad = assert_quarter_bound_matches_scans(400, sieve)
        if first_bad is not None:
            assert not verify_quarter_bound(first_bad, sieve)
            assert first_bad == 30 or verify_quarter_bound(first_bad - 1, sieve)

    def test_dropped_prime_powers_fixed_case(self):
        # without the prime powers in (1000, 1400), n on [997, 1408] reads P = 997
        # and 4*(n - 997) > n first at n = 1330
        full = build_sieve(3000)
        kept = [q for q in listed_prime_powers(full) if not 1000 < q < 1400]
        damaged = PrimePowerSieve(3000, full._is_prime, power_table(3000, kept))
        assert scan_quarter_bound(3000, kept) == 1330
        assert verify_quarter_bound(1329, damaged)
        assert not verify_quarter_bound(1330, damaged)
        assert damaged.largest_prime_power(1408) == 997


def assert_windowed_scans_match(range_hi: int, exponents, sieve: PrimePowerSieve, scan: bool = True) -> None:
    """Both windowed scans, streamed and from the sieve, against the stretch oracles
    and, with scan, the scans of every n; floats as exact bit patterns."""
    pp = listed_prime_powers(sieve)
    want = [bits(stretch_asymptotic_report(range_hi, e, pp)) for e in exponents]
    if scan:
        assert want == [bits(scan_asymptotic_report(range_hi, e, pp)) for e in exponents]
    assert [bits(r) for r in asymptotic_reports(range_hi, exponents, sieve)] == want
    assert [bits(r) for r in asymptotic_reports(range_hi, exponents)] == want
    if range_hi >= 30:
        holds = stretch_quarter_bound(range_hi, pp)
        assert not scan or holds == (scan_quarter_bound(range_hi, pp) is None)
        assert verify_quarter_bound(range_hi, sieve) == verify_quarter_bound(range_hi) == holds


WINDOW_EDGES = [k * WINDOW + d for k in (1, 2, 3) for d in (-1, 0, 1)]


class TestWindowedScans:
    """The scans read the table a window at a time, carrying the last prime power and
    the zero run since it over each edge; ranges that end at, before and after an edge."""

    @pytest.mark.parametrize("range_hi", WINDOW_EDGES)
    def test_window_edges(self, range_hi):
        assert_windowed_scans_match(range_hi, [0.535, 23 / 18, 0.0, -0.5, 3.0, -3.0], build_sieve(range_hi))

    def test_segment_edges(self):
        # the streamed table has one segment below 2^20 and two from 2^20 on, the
        # second holding 2^20 alone at first; the scans of every n run at 2^20 only
        sieve = build_sieve(2**20 + 1)
        for range_hi in (2**20 - 1, 2**20, 2**20 + 1):
            assert_windowed_scans_match(range_hi, [0.535, -0.5], sieve, scan=range_hi == 2**20)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=WINDOW - 2, max_value=6 * WINDOW + 2),
        st.lists(st.one_of(st.sampled_from(REPORT_EXPONENTS), st.floats(min_value=-3, max_value=3)),
                 min_size=1, max_size=3),
    )
    def test_ranges_over_several_windows(self, range_hi, exponents):
        assert_windowed_scans_match(range_hi, exponents, build_sieve(range_hi))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.one_of(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=2 * WINDOW)),
                 max_size=60),
        st.integers(min_value=30, max_value=4 * WINDOW + 1),
        st.one_of(st.sampled_from(REPORT_EXPONENTS), st.floats(min_value=-3, max_value=3)),
    )
    @example([WINDOW // 2, 2 * WINDOW], 4 * WINDOW, 0.535)  # a run over a whole window, then to range_hi
    @example([WINDOW // 2, 2 * WINDOW], 4 * WINDOW, -0.5)
    @example([1] * 27 + [WINDOW - 31, 1500], 2 * WINDOW, 1.0)  # a run from WINDOW - 2 over the edge
    @example(list(range(1, 40)), 3 * WINDOW, 0.535)  # zeros from 783 on: the quarter bound fails at 1043
    def test_staircases_over_windows(self, gaps, range_hi, exponent):
        # tables with 2 set and any zero runs, up to runs longer than a window
        points = set(accumulate([2, *gaps]))
        sieve = PrimePowerSieve(range_hi, bytearray(range_hi + 1), power_table(range_hi, points))
        assert_report_matches_scan(range_hi, exponent, sieve)
        first_bad = assert_quarter_bound_matches_scans(range_hi, sieve)
        if first_bad is not None:
            assert not verify_quarter_bound(first_bad, sieve)
            assert first_bad == 30 or verify_quarter_bound(first_bad - 1, sieve)

    @pytest.mark.parametrize("p, first_bad", [(3071, 4095), (3072, 4097), (3907, 5210)])
    def test_quarter_bound_fails_next_to_a_window_edge(self, p, first_bad):
        # the prime powers up to p, then p and no more: n - p > n/4 first at first_bad,
        # the last n of the first window, the second n of the next, or past its start
        pp = sorted({*listed_prime_powers(build_sieve(p)), p})
        sieve = PrimePowerSieve(2 * WINDOW, bytearray(2 * WINDOW + 1), power_table(2 * WINDOW, pp))
        assert scan_quarter_bound(2 * WINDOW, pp) == first_bad
        assert verify_quarter_bound(first_bad - 1, sieve)
        for range_hi in (first_bad, 2 * WINDOW):
            assert not verify_quarter_bound(range_hi, sieve)

    @pytest.mark.parametrize("kept, first_bad", [
        # 8 = k + 1 zeros, k = 30//4, end at the first n of the block [30, 60)
        (lambda pp: [*range(2, 23), *range(31, 2 * WINDOW)], 30),
        # a run that ends at the last n of the block [60, 120): 4*(119 - 89) > 119
        (lambda pp: [*range(2, 90), *range(120, 2 * WINDOW)], 119),
        # 3072 in place of the prime powers in (3067, 4200): the run from 3073 breaks
        # the bound only past the window edge, in the run the second window opens with
        (lambda pp: sorted({3072, *(q for q in pp if not 3067 < q < 4200)}), 4097),
    ])
    def test_quarter_bound_fails_where_one_test_sees_it(self, kept, first_bad):
        pp = kept(listed_prime_powers(build_sieve(2 * WINDOW)))
        sieve = PrimePowerSieve(2 * WINDOW, bytearray(2 * WINDOW + 1), power_table(2 * WINDOW, pp))
        assert assert_quarter_bound_matches_scans(2 * WINDOW, sieve) == first_bad
        assert not verify_quarter_bound(first_bad, sieve)
        assert first_bad == 30 or verify_quarter_bound(first_bad - 1, sieve)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=700), st.integers(min_value=1, max_value=200))
    def test_dropped_prime_powers_over_windows(self, start, count):
        # the prime powers to 4 windows less a stretch of them: the scans fail at the same n
        full = build_sieve(4 * WINDOW)
        pp = listed_prime_powers(full)
        damaged = PrimePowerSieve(4 * WINDOW, full._is_prime, power_table(4 * WINDOW, pp[:start] + pp[start + count :]))
        first_bad = assert_quarter_bound_matches_scans(4 * WINDOW, damaged)
        if first_bad is not None:
            assert not verify_quarter_bound(first_bad, damaged)
            assert first_bad == 30 or verify_quarter_bound(first_bad - 1, damaged)
        for exponent in (0.535, -0.5):
            assert_report_matches_scan(4 * WINDOW, exponent, damaged)

    def test_a_run_over_a_window_edge_beats_the_maximum_by_a_hair(self):
        # two runs of 10 zeros, after 40 and after 4090 (over the edge at 4096): at
        # exponent -1e-7 the later one beats the first by 4.4e-7 relative, in the
        # part that the second window opens with
        points = set(range(2, 2 * WINDOW + 1)) - set(range(41, 51)) - set(range(4091, 4101))
        sieve = PrimePowerSieve(2 * WINDOW, bytearray(2 * WINDOW + 1), power_table(2 * WINDOW, points))
        assert_report_matches_scan(2 * WINDOW, -1e-7, sieve)
        assert asymptotic_report(2 * WINDOW, -1e-7, sieve).argmax == 4100

    @pytest.mark.parametrize("range_hi", [2, 3, 29, 30, *WINDOW_EDGES, 2**20 + 5])
    def test_windows_tile_the_range(self, range_hi):
        # at most WINDOW bytes, cut at multiples of WINDOW, from 2 to range_hi, the same from either source
        table = build_sieve(range_hi).is_prime_power
        for segments in (bands._segments(range_hi, None), bands._segments(range_hi, build_sieve(range_hi))):
            windows = list(bands._windows(range_hi, segments))
            starts = [a for a, _ in windows]
            assert starts == [2, *range(WINDOW, range_hi + 1, WINDOW)]
            assert all(type(w) is bytes and 0 < len(w) <= WINDOW for _, w in windows)
            assert b"".join(w for _, w in windows) == table[2:]

    def test_streamed_scans_build_no_full_table(self, monkeypatch):
        want = asymptotic_reports(3 * 2**20, GROWTH_EXPONENTS, build_sieve(3 * 2**20))

        def forbidden(limit):
            raise AssertionError(f"a scan built a full table to {limit}")

        prime_table = arith.prime_table

        def small_only(limit):
            if limit > 2**11:
                raise AssertionError(f"a scan sieved a table to {limit}")
            return prime_table(limit)

        monkeypatch.setattr(arith, "build_sieve", forbidden)
        monkeypatch.setattr(arith, "_table", bytearray())
        monkeypatch.setattr(arith, "prime_table", small_only)
        assert [bits(r) for r in asymptotic_reports(3 * 2**20, GROWTH_EXPONENTS)] == [bits(r) for r in want]
        assert verify_quarter_bound(3 * 2**20)


class TestAsymptoticReport:
    def test_partial_sum_matches_brute(self):
        sieve = build_sieve(300)
        report = asymptotic_report(300, 1.0, sieve)
        brute = sum(n - brute_largest_prime_power(n) for n in range(2, 301))
        assert report.partial_sum == brute
        assert report.ratio == report.partial_sum / 300.0

    def test_quarter_bound_controls_max_ratio(self):
        report = asymptotic_report(100, 1.0, build_sieve(100))
        assert report.max_ratio <= 0.25

    def test_short_sieve_is_rejected(self):
        # as verify_quarter_bound: a sieve short of range_hi is an error, not rebuilt
        with pytest.raises(ParameterError, match="sieve limit 99 below range_hi 100"):
            asymptotic_report(100, 1.0, build_sieve(99))

    def test_finite_at_reference_exponents(self):
        sieve = build_sieve(10**4)
        for e in (0.535, 23 / 18):
            r = asymptotic_report(10**4, e, sieve)
            assert math.isfinite(r.ratio) and math.isfinite(r.max_ratio)

    def test_rejects_exponents_outside_the_float_range(self):
        for hi, e in [(1000, -200.0), (10**5, 80.0), (10, math.inf), (10, -math.inf), (10, math.nan)]:
            with pytest.raises(ParameterError, match="exponent"):
                asymptotic_report(hi, e, build_sieve(hi))
        # exponents inside that range whose partial-sum ratio still overflows; at
        # 2048 max_ratio itself overflows, in the block before the last
        for hi, e in [(1000, -102.0), (10**5, -61.0), (2048, -92.85)]:
            with pytest.raises(ParameterError, match=f"exponent {e!r}"):
                asymptotic_report(hi, e, build_sieve(hi))
        # the largest exponents at 10^5 that are accepted keep every ratio finite
        sieve = build_sieve(10**5)
        for e in (61.0, -60.0):
            r = asymptotic_report(10**5, e, sieve)
            assert math.isfinite(r.ratio) and math.isfinite(r.max_ratio) and r.max_ratio > 0


    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=2 * 10**4),
        st.lists(st.one_of(st.sampled_from(REPORT_EXPONENTS), st.floats(min_value=-3, max_value=3)), max_size=4),
    )
    @example(10**5, [0.535, 23 / 18])
    def test_shared_sum_matches_one_report_per_exponent(self, range_hi, exponents):
        sieve = build_sieve(range_hi)
        pp = listed_prime_powers(sieve)
        got = [bits(r) for r in asymptotic_reports(range_hi, exponents, sieve)]
        assert got == [bits(asymptotic_report(range_hi, e, sieve)) for e in exponents]
        assert got == [bits(stretch_asymptotic_report(range_hi, e, pp)) for e in exponents]

    def test_first_bad_exponent_raises(self):
        sieve = build_sieve(1000)
        with pytest.raises(ParameterError, match=r"^exponent -200\.0 leaves"):
            asymptotic_reports(1000, [0.5, -200.0, -102.0], sieve)
        with pytest.raises(ParameterError, match=r"^exponent -102\.0 sends"):
            asymptotic_reports(1000, [0.5, -102.0, -200.0], sieve)


class TestCoprimalityBand:
    def test_rejects_bad_range(self):
        with pytest.raises(ParameterError):
            band_gcd(1, 0)
        with pytest.raises(ParameterError):
            band_gcd(5, -1)
