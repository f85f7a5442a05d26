"""Substrate tests: binomials, digit kernels, valuations, sieve tables."""

import math
import struct
import sys
import threading
import tracemalloc
from fractions import Fraction
from itertools import compress

import pytest
from hypothesis import example, given, settings, strategies as st

from secmin import arith, bands, suite
from secmin.arith import (
    PRIME_TABLE_CAP,
    SEGMENT,
    TABLE_CAP,
    binomial,
    build_sieve,
    carry_row,
    is_prime,
    kummer_valuation,
    largest_undivided,
    prime_power_segments,
    prime_table,
    primes_covering,
)
from secmin.errors import ParameterError, ResourceLimitError, VerificationError

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23]
# 1048573 and 1048583 are the primes either side of PRIME_TABLE_CAP = 2^20
VALUATION_PRIMES = SMALL_PRIMES + [1009, 65537, 1048573, 1048583, 10**12 + 39]


def prime_by_trial_division(n: int) -> bool:
    """Test oracle: no divisor in [2, sqrt(n)]."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def valuation_by_factoring(n: int, m: int, p: int) -> int:
    """Test oracle: divide the binomial by p until it stops being divisible."""
    value = math.comb(n, m)
    v = 0
    while value % p == 0:
        value //= p
        v += 1
    return v


def digit_exceeds(n: int, m: int, p: int) -> bool:
    """Test oracle (Lucas): some base-p digit of m exceeds the matching digit of n."""
    while m:
        if m % p > n % p:
            return True
        m //= p
        n //= p
    return False


def old_largest_prime_power_table(limit: int) -> list[int]:
    """Test oracle, the former per-n sieve table: mark every prime power, then prefix-max."""
    table = prime_table(limit)
    lpp = [0] * (limit + 1)
    for p in range(2, limit + 1):
        if table[p]:
            q = p
            while q <= limit:
                lpp[q] = q
                q *= p
    for n in range(3, limit + 1):
        lpp[n] = max(lpp[n], lpp[n - 1])
    return lpp


def old_prime_powers(limit: int) -> list[int]:
    """Test oracle, the former sorted prime-power list: the primes, then the higher powers of those <= sqrt."""
    powers = list(compress(range(limit + 1), prime_table(limit)))
    for p in [p for p in powers if p * p <= limit]:
        q = p * p
        while q <= limit:
            powers.append(q)
            q *= p
    return sorted(powers)


def lanes(row: int, n: int) -> list[int]:
    """The n + 1 16-bit little-endian lanes of a packed carry_row, as a list."""
    return list(struct.unpack(f"<{n + 1}H", row.to_bytes(2 * n + 2, "little")))


def with_examples(cases):
    """Apply hypothesis.example once per argument tuple in cases."""

    def apply(test):
        for case in cases:
            test = example(*case)(test)
        return test

    return apply


# rows n = p^2 - 1, p^2, p^2 + 1 either side of kummer_valuation's one-digit
# path (p^2 > n), at m = 1 and m = p: C(p^2, 1) has two carries, C(p^2, p) one
# from digit 1, which a last-digit comparison alone would miss
FAST_PATH_EDGES = [(p * p + d, m, p) for p in (2, 3, 31, 1009, 1048583) for d in (-1, 0, 1) for m in (1, p)]


def legendre_valuation(n: int, m: int, p: int) -> int:
    """Test oracle: sum of floor(n/p^i) - floor(m/p^i) - floor((n-m)/p^i)."""
    total = 0
    q = p
    while q <= n:
        total += n // q - m // q - (n - m) // q
        q *= p
    return total


class TestBinomial:
    def test_small(self):
        assert binomial(6, 3) == 20

    def test_out_of_range_is_zero(self):
        assert binomial(5, 7) == 0
        assert binomial(5, -1) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ParameterError):
            binomial(-1, 0)

    def test_huge_valuation_matches_carries(self):
        # v_2(C(3000, 1500)) equals the carries of 1500 + 1500 in base 2
        assert valuation_by_factoring(3000, 1500, 2) == kummer_valuation(3000, 1500, 2)

    def test_pascal_recurrence(self):
        for n in range(2, 201):
            for m in range(1, n):
                assert binomial(n, m) == binomial(n - 1, m) + binomial(n - 1, m - 1)


class TestKummerValuation:
    def test_examples(self):
        assert kummer_valuation(4, 2, 2) == 1  # C(4,2) = 6 = 2*3
        assert kummer_valuation(9, 3, 3) == 1  # C(9,3) = 84 = 4*3*7
        for n in (1, 13, 90):
            for p in (2, 5):
                assert kummer_valuation(n, 0, p) == 0

    def test_against_factoring(self):
        for n in range(1, 120):
            for p in SMALL_PRIMES:
                if p > n:
                    break
                for m in range(n + 1):
                    assert kummer_valuation(n, m, p) == valuation_by_factoring(n, m, p)

    def test_against_legendre(self):
        for n in range(1, 200):
            for p in SMALL_PRIMES:
                if p > n:
                    break
                for m in range(n + 1):
                    assert kummer_valuation(n, m, p) == legendre_valuation(n, m, p)

    @given(
        st.integers(min_value=0, max_value=10**13),
        st.integers(min_value=0, max_value=10**13),
        st.sampled_from(VALUATION_PRIMES),
    )
    @example(10, 3, 11)
    @example(3 * 1048583**2 + 5, 1048583**2 + 1048582, 1048583)
    @with_examples(FAST_PATH_EDGES)
    def test_against_legendre_random(self, a, b, p):
        # includes p > n (valuation 0) and primes above PRIME_TABLE_CAP
        n, m = max(a, b), min(a, b)
        assert kummer_valuation(n, m, p) == legendre_valuation(n, m, p)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ParameterError):
            kummer_valuation(5, 6, 2)
        with pytest.raises(ParameterError):
            kummer_valuation(5, -1, 2)
        # composite or non-positive bases, below and above PRIME_TABLE_CAP
        for base in (4, 1, 0, -3, PRIME_TABLE_CAP + 1):
            with pytest.raises(ParameterError):
                kummer_valuation(5, 2, base)

    @settings(deadline=None)
    @given(
        st.one_of(
            st.sampled_from([-7, -1, 0, 1]),
            st.integers(min_value=-3000, max_value=3000),
            st.integers(min_value=PRIME_TABLE_CAP - 100, max_value=PRIME_TABLE_CAP + 100),
            st.sampled_from([65537, 1048573, 1048583, 1048583 * 1048573, 10**12 + 37, 10**12 + 39]),
        ),
        st.sampled_from([0, 2, 64, 2000]),
        st.integers(min_value=0, max_value=10**7),
        st.integers(min_value=-3, max_value=10**7),
    )
    @example(-7, 64, 10, 3)
    @example(-1, 64, 10, 3)
    @example(-62, 64, 10, 3)  # unguarded, would read entry 65 - 62 = 3 of the table
    @example(101, 64, 200, 3)  # a prime past the table's end
    @example(99, 64, 200, 3)  # a composite past the table's end
    @example(1048583, 2000, 10**7, 3)  # a prime past PRIME_TABLE_CAP
    @example(5, 64, 10, -1)
    @example(5, 64, 3, 4)
    def test_validation_as_is_prime(self, p, table_limit, n, m):
        # raises exactly when is_prime rejects p or m is outside 0..n, whatever
        # the length of the shared table when the call is made
        valid = is_prime(p) and 0 <= m <= n
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arith, "_table", prime_table(table_limit) if table_limit else bytearray())
            if valid:
                assert kummer_valuation(n, m, p) == legendre_valuation(n, m, p)
            else:
                with pytest.raises(ParameterError):
                    kummer_valuation(n, m, p)


class TestDividesBinomial:
    def test_prime_power_row(self):
        for p, k in [(2, 3), (3, 2), (5, 1), (7, 2)]:
            q = p**k
            for m in range(1, q):
                assert kummer_valuation(q, m, p) > 0

    def test_edges_and_oracle(self):
        assert kummer_valuation(10, 0, 3) == 0
        assert kummer_valuation(10, 5, 3) > 0  # C(10,5) = 252 = 4*9*7
        for n in range(1, 80):
            for p in SMALL_PRIMES:
                for m in range(n + 1):
                    expected = valuation_by_factoring(n, m, p) > 0
                    assert (kummer_valuation(n, m, p) > 0) == expected

    def test_agrees_with_valuation(self):
        # Lucas's digit test and Kummer's carry count decide divisibility alike
        for n in range(1, 150):
            for p in (2, 3, 7):
                for m in range(n + 1):
                    assert digit_exceeds(n, m, p) == (kummer_valuation(n, m, p) > 0)


class TestLargestUndivided:
    def test_round_trip(self):
        # n's own digits rebuild n; any cap lands on the largest m <= cap
        # whose digits n dominates
        for n in [0, 1, 7, 100, 3**8, 12345]:
            for p in (2, 3, 5, 13):
                assert largest_undivided(n, n, p) == n
                for cap in range(0, n + 1, max(1, n // 40)):
                    m = largest_undivided(n, cap, p)
                    assert 0 <= m <= cap and kummer_valuation(n, m, p) == 0
                    assert all(kummer_valuation(n, k, p) > 0 for k in range(m + 1, cap + 1))

    @given(st.integers(min_value=0, max_value=10**9), st.sampled_from(SMALL_PRIMES), st.data())
    def test_round_trip_random(self, n, p, data):
        assert largest_undivided(n, n, p) == n
        cap = data.draw(st.integers(min_value=0, max_value=n))
        m = largest_undivided(n, cap, p)
        assert m <= cap and kummer_valuation(n, m, p) == 0
        assert largest_undivided(n, m, p) == m


class TestDigitExpansion:
    def test_validation(self):
        # the checked carry count rejects a composite base and an m whose
        # digits cannot sit under n's
        for base in (4, 9, 1, 0):
            with pytest.raises(ParameterError):
                kummer_valuation(5, 3, base)
        with pytest.raises(ParameterError):
            kummer_valuation(3, 4, 3)
        with pytest.raises(ParameterError):
            kummer_valuation(3, -1, 3)


class TestCarryRow:
    # the per-entry oracle validates p once per row, so the prime that needs
    # trial division up to 10^6 costs one such division per example
    @given(st.integers(min_value=0, max_value=2000), st.sampled_from(VALUATION_PRIMES))
    @example(0, 2)
    @example(1, 2)
    @example(2000, 2)
    @example(1024, 2)
    @example(729, 3)
    @example(30, 31)
    def test_matches_kummer_valuation(self, n, p):
        # includes p = 2, p > n (a zero row) and n = 0
        row = carry_row(n, p)
        assert row >> 16 * (n + 1) == 0
        assert lanes(row, n) == [kummer_valuation(n, m, p) for m in range(n + 1)]

    def test_against_legendre(self):
        for n in range(0, 200):
            for p in SMALL_PRIMES:
                assert lanes(carry_row(n, p), n) == [legendre_valuation(n, m, p) for m in range(n + 1)]

    @pytest.mark.parametrize("n, m, p", [(5, 0, 2), (37, 18, 3), (120, 120, 7), (113, 60, 113)])
    def test_bumped_entry_is_named_by_the_check(self, monkeypatch, n, m, p):
        def bumped(row_n, row_p):
            row = carry_row(row_n, row_p)
            if (row_n, row_p) == (n, p):
                # lane n too, so that the check must name the lowest bad lane
                row += 1 << (16 * m) | 1 << (16 * n)
            return row

        monkeypatch.setattr(arith, "carry_row", bumped)
        with pytest.raises(VerificationError, match=f"^valuation mismatch at n={n}, m={m}, p={p}$"):
            suite.check_kummer_legendre(120)

    def test_check_refuses_rows_past_16_bit_lanes(self, monkeypatch):
        # a lane holds v_p(n!) <= n - 1 only while n < 2^16
        monkeypatch.setattr(arith, "build_sieve", None)  # refused before any work
        with pytest.raises(ParameterError, match="65536"):
            suite.check_kummer_legendre(1 << 16)

    def test_rejects_bad_arguments(self):
        for base in (4, 9, 1, 0, -3, PRIME_TABLE_CAP + 1):
            with pytest.raises(ParameterError):
                carry_row(5, base)
        for n in (-1, -10):
            with pytest.raises(ParameterError):
                carry_row(n, 2)


# p for the memo tests: primes, composites, negatives, 0 and 1, on and past a
# 2000-entry table, either side of PRIME_TABLE_CAP and far above it
MEMO_PS = st.one_of(
    st.sampled_from([2, 3, 7, 9, 49, 97, 101, 1999, 2003, 2001, 2009, 1048573, 1048583, 1048575,
                     PRIME_TABLE_CAP + 1, 1048583 * 3, 1048583 * 1009, -7, -2, -1, 0, 1]),
    st.integers(min_value=-40, max_value=2100),
)
MEMO_CALLS = st.tuples(
    st.sampled_from(["kummer_valuation", "carry_row", "prime_band"]),  # MEMO_KERNELS
    MEMO_PS,
    st.sampled_from([0, 2, 64, 2000]),  # the shared table installed before the call
    st.integers(min_value=-2, max_value=300),  # n
    st.integers(min_value=-2, max_value=300),  # m
)

# kernel: (whether n, m and a prime p are in its range, the call, its oracle)
MEMO_KERNELS = {
    "kummer_valuation": (lambda n, m, p: 0 <= m <= n, kummer_valuation, legendre_valuation),
    "carry_row": (
        lambda n, m, p: n >= 0,
        lambda n, m, p: lanes(carry_row(n, p), n),
        lambda n, m, p: [legendre_valuation(n, j, p) for j in range(n + 1)],
    ),
    "prime_band": (
        lambda n, m, p: 2 <= n and p <= n,
        lambda n, m, p: bands.prime_band(n, p),
        lambda n, m, p: max(b for b in range(n // 2 + 1) if legendre_valuation(n, b, p) == 0),
    ),
}


class TestKnownPrime:
    """The per-entry kernels skip require_prime while p is arith._known_prime."""

    @settings(deadline=None, max_examples=300)
    @given(st.lists(MEMO_CALLS, min_size=1, max_size=12), st.sampled_from([2, 5, 1048583]))
    @example([("kummer_valuation", 9, 64, 20, 3), ("kummer_valuation", 9, 64, 20, 3)], 2)
    @example([("carry_row", 7, 0, 20, 0), ("kummer_valuation", 7, 64, 20, 30)], 2)
    @example([("prime_band", 4, 2000, 1, 0), ("carry_row", 4, 0, 20, 0)], 2)
    def test_call_sequences_raise_as_is_prime(self, calls, start):
        # whatever came before, a call raises exactly when is_prime rejects p or
        # its other argument is out of range, and the memo only holds primes
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arith, "_known_prime", start)
            for kernel, p, table_limit, n, m in calls:
                mp.setattr(arith, "_table", prime_table(table_limit) if table_limit else bytearray())
                in_range, call, oracle = MEMO_KERNELS[kernel]
                if is_prime(p) and in_range(n, m, p):
                    assert call(n, m, p) == oracle(n, m, p)
                else:
                    with pytest.raises(ParameterError):
                        call(n, m, p)
                assert is_prime(arith._known_prime)

    def test_threads_interleave_primes_and_composites(self):
        # runs of equal p, composites right after their neighbouring primes, and a
        # thread that swaps the shared table: every composite call must raise
        # (0 and 1 stay out: a kernel let through with either would never return)
        stream = [7, 7, 7, 9, 9, 7, 11, 121, 121, 11, 2, 4, 4, 2, 1048583, 1048583 * 3, 1048583, -7, -7, 13, 15]
        wrong, finished = [], []

        def worker(k):
            for i in range(3000):
                p = stream[(i * (k + 1) + k) % len(stream)]
                try:
                    kummer_valuation(40, 5, p) if i % 3 else carry_row(40, p)
                except ParameterError:
                    raised = True
                else:
                    raised = False
                if raised == is_prime(p):
                    wrong.append((k, i, p))
            finished.append(k)

        def swapper():
            for i in range(3000):
                arith._table = (bytearray(), prime_table(64), prime_table(2000))[i % 3]

        old_interval, old_table = sys.getswitchinterval(), arith._table
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,), daemon=True) for k in range(5)]
            threads.append(threading.Thread(target=swapper, daemon=True))
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old_interval)
            arith._table = old_table
        assert not any(t.is_alive() for t in threads)
        assert wrong == [] and sorted(finished) == list(range(5))
        assert is_prime(arith._known_prime)

    def test_validates_once_per_run_of_equal_p(self, monkeypatch):
        # shaped as the pascal-rows workload: row n = 1000, every prime, eight
        # positions, after the whole row; p changes pi(1000) = 168 times, and
        # only those calls may reach the validator
        n = 1000
        primes = [p for p in range(n + 1) if prime_by_trial_division(p)]
        positions = [(n // 2) * i // 7 for i in range(8)]
        validate, calls = arith.require_prime, []

        def counting(p):
            calls.append(p)
            validate(p)

        monkeypatch.setattr(arith, "require_prime", counting)
        monkeypatch.setattr(arith, "_known_prime", 1009)  # a prime off the row: p = 2 is a change
        for p in primes:
            row = lanes(carry_row(n, p), n)
            vals = [kummer_valuation(n, m, p) for m in positions]
            assert vals == [row[m] for m in positions] == [legendre_valuation(n, m, p) for m in positions]
        assert len(primes) == 168 and calls == primes

    @pytest.mark.parametrize(
        "table_limit, known",
        [(0, 2), (64, 3), (64, 5)],
        ids=["empty-table", "memo-holds-3", "table-covers-3-memo-holds-5"],
    )
    @pytest.mark.parametrize("kernel", sorted(MEMO_KERNELS))
    def test_float_p_raises_whatever_the_table_and_memo_hold(self, monkeypatch, kernel, table_limit, known):
        # 3.0 == 3, but only an int is a prime: trial division would accept the float, an equal
        # memo would skip the check, and a table lookup would raise TypeError
        monkeypatch.setattr(arith, "_table", prime_table(table_limit) if table_limit else bytearray())
        monkeypatch.setattr(arith, "_known_prime", known)
        with pytest.raises(ParameterError, match=r"p must be prime, got 3\.0"):
            MEMO_KERNELS[kernel][1](10, 3, 3.0)
        assert arith._known_prime == known


class TestIsPrime:
    def test_edges_and_cap_window(self, monkeypatch):
        monkeypatch.setattr(arith, "_table", bytearray())
        window = [-(10**6), -7, -2, -1, 0, 1, *range(PRIME_TABLE_CAP - 64, PRIME_TABLE_CAP + 65)]
        for n in window:
            assert is_prime(n) == prime_by_trial_division(n), n
        assert len(arith._table) == 0  # queries never grow the table
        # the widest table stored ends at the cap; the window's top reads past it
        primes_covering(PRIME_TABLE_CAP)
        assert len(arith._table) == PRIME_TABLE_CAP + 1
        for n in [*window, *range(-3, 3000)]:
            assert is_prime(n) == prime_by_trial_division(n), n

    @given(st.integers(min_value=-1000, max_value=10**7))
    def test_against_trial_division(self, n):
        assert is_prime(n) == prime_by_trial_division(n)

    def test_large_n_takes_trial_division(self, monkeypatch):
        monkeypatch.setattr(arith, "_table", bytearray())
        assert is_prime(10**12 + 39)
        assert not is_prime(10**12 + 37)
        assert not is_prime(1048583 * 1048573)
        assert len(arith._table) == 0  # nothing sieved above the cap

    def test_without_growth_reads_past_table_by_trial_division(self, monkeypatch):
        def refusing(limit):
            raise AssertionError(f"is_prime sieved a table to {limit}")

        table = arith.prime_table(100)
        monkeypatch.setattr(arith, "_table", table)
        monkeypatch.setattr(arith, "prime_table", refusing)
        for n in [-7, -1, 0, 1, *range(2, 3000), *range(PRIME_TABLE_CAP - 64, PRIME_TABLE_CAP + 65)]:
            assert is_prime(n) == prime_by_trial_division(n), n
        assert arith._table is table

    def test_table_grows_by_rebinding(self, monkeypatch):
        monkeypatch.setattr(arith, "_table", bytearray())
        old = primes_covering(101)
        assert arith._table is old and len(old) == 102  # sieved exactly to n
        assert primes_covering(50) is old
        snapshot = bytes(old)
        new = primes_covering(1009)
        assert arith._table is new and len(new) == 1010
        assert bytes(old) == snapshot  # replaced whole, not edited in place
        assert new == prime_table(1009)
        last = primes_covering(1010)
        assert len(last) == 1011  # one past the end: sieved to it, no doubling
        above = primes_covering(PRIME_TABLE_CAP + 1)
        assert len(above) == PRIME_TABLE_CAP + 2 and arith._table is last  # nothing above the cap stored

    def test_threads_share_growing_table(self, monkeypatch):
        monkeypatch.setattr(arith, "_table", bytearray())
        hi = 1 << 16
        expected = prime_table(hi)
        wrong = []

        def worker(k):
            # thread k climbs in strides of 131(k + 1), so tables of mixed sizes
            # replace each other while the other threads read them
            for n in range(k + 2, hi, 131 * (k + 1)):
                if primes_covering(n)[: n + 1] != expected[: n + 1]:
                    wrong.append(n)
                m = hi - n
                if is_prime(m) != bool(expected[m]):
                    wrong.append(m)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(7)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert arith._table == expected[: len(arith._table)]


class TestSieve:
    def test_small_table(self):
        s = build_sieve(10)
        assert [s.largest_prime_power(n) for n in range(1, 11)] == [0, 2, 3, 4, 5, 5, 7, 8, 9, 9]
        assert list(compress(range(11), s.is_prime_power)) == [2, 3, 4, 5, 7, 8, 9]
        assert type(s.is_prime_power) is bytes and len(s.is_prime_power) == 11
        assert s.is_prime_power is s.is_prime_power  # no copy per access

    def test_limit_two(self):
        s = build_sieve(2)
        assert s.primes() == [2] and s.is_prime_power == b"\x00\x00\x01"

    def test_primality_agrees_with_trial_division(self):
        s = build_sieve(2000)
        primes = set(s.primes())
        table = prime_table(2000)
        for n in range(2, 2001):
            assert (n in primes) == is_prime(n) == bool(table[n])
        assert prime_table(1) == bytearray(2)

    def test_prime_power_structure(self):
        s = build_sieve(500)
        for n in range(2, 501):
            q = s.largest_prime_power(n)
            assert 2 <= q <= n
            # q must be p^k: a single prime divides it
            divisors = [p for p in range(2, q + 1) if is_prime(p) and q % p == 0]
            assert len(divisors) == 1
            p = divisors[0]
            while q % p == 0:
                q //= p
            assert q == 1

    def test_entry_equals_n_iff_prime_power(self):
        s = build_sieve(300)
        for n in range(2, 301):
            is_pp = False
            for p in range(2, n + 1):
                if is_prime(p):
                    q = p
                    while q < n:
                        q *= p
                    if q == n:
                        is_pp = True
                        break
            assert (s.largest_prime_power(n) == n) == is_pp
            assert (s.is_prime_power[n] == 1) == is_pp

    @given(st.integers(min_value=2, max_value=5000))
    @example(2)
    @example(5000)
    def test_matches_old_table(self, limit):
        s = build_sieve(limit)
        assert [0, *map(s.largest_prime_power, range(1, limit + 1))] == old_largest_prime_power_table(limit)
        assert list(compress(range(limit + 1), s.is_prime_power)) == old_prime_powers(limit)

    def test_matches_old_table_above_prime_table_cap(self):
        shared = arith._table
        limit = PRIME_TABLE_CAP + 2
        s = build_sieve(limit)
        assert arith._table is shared  # a table past the cap is the sieve's own
        assert [0, *map(s.largest_prime_power, range(1, limit + 1))] == old_largest_prime_power_table(limit)
        tail = range(1048572, limit + 1)  # 1048571 is the prime before
        assert list(compress(tail, s.is_prime_power[tail.start :])) == [1048573, PRIME_TABLE_CAP]

    def test_shares_the_table_up_to_the_cap(self, monkeypatch):
        monkeypatch.setattr(arith, "_table", bytearray())
        s = build_sieve(5000)
        assert arith._table is s._is_prime and len(s._is_prime) == 5001
        # the prime powers are marked in a copy: the shared table still says 4 = 2^2 is not prime
        assert s.is_prime_power[4] == 1 and arith._table[4] == 0 and not is_prime(4)
        assert build_sieve(3000)._is_prime is s._is_prime  # a covered limit sieves nothing

    def test_rejects_small_limit(self):
        with pytest.raises(ParameterError):
            build_sieve(1)

    def test_memory_exhaustion_is_distinct_error(self):
        with pytest.raises(ResourceLimitError):
            build_sieve(2**62)
        with pytest.raises(ResourceLimitError):
            prime_table(2**62)

    def test_full_table_above_the_cap_is_refused_before_allocating(self):
        # the cap, not MemoryError or the OOM killer, stops a table too large to hold
        message = (f"^a sieve table to {TABLE_CAP} needs {TABLE_CAP + 1} bytes, "
                   f"above the {TABLE_CAP}-byte cap; lower --max$")
        tracemalloc.start()
        try:
            for make in (prime_table, build_sieve, primes_covering):
                with pytest.raises(ResourceLimitError, match=message):
                    make(TABLE_CAP)
            with pytest.raises(ResourceLimitError, match="10000000000"):
                build_sieve(10**10)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()

    def test_range_checks(self):
        s = build_sieve(50)
        with pytest.raises(ParameterError):
            s.largest_prime_power(51)
        with pytest.raises(ParameterError):
            s.largest_prime_power(0)
        assert s.largest_prime_power(1) == 0


class TestPrimePowerSegments:
    @pytest.mark.parametrize("limit", [2, 3, 10, 4096, SEGMENT - 1, SEGMENT, SEGMENT + 1, 3 * SEGMENT + 5])
    def test_segments_join_to_the_full_table(self, limit):
        segments = list(prime_power_segments(limit))
        assert b"".join(segments) == build_sieve(limit).is_prime_power
        assert [len(seg) for seg in segments[:-1]] == [SEGMENT] * (len(segments) - 1)
        assert 0 < len(segments[-1]) <= SEGMENT

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=5000))
    def test_matches_old_prime_powers(self, limit):
        assert list(compress(range(limit + 1), b"".join(prime_power_segments(limit)))) == old_prime_powers(limit)

    def test_sieves_only_to_the_root(self, monkeypatch):
        # the base primes come from a table to sqrt(limit); each segment is sieved on its own
        calls = []
        prime_table_ = arith.prime_table

        def counting(limit):
            calls.append(limit)
            return prime_table_(limit)

        monkeypatch.setattr(arith, "_table", bytearray())
        monkeypatch.setattr(arith, "prime_table", counting)
        segments = prime_power_segments(2 * SEGMENT + 7)
        assert calls == []  # a generator: nothing is sieved before the first segment is asked for
        assert sum(seg.count(1) for seg in segments) == len(old_prime_powers(2 * SEGMENT + 7))
        assert calls == [math.isqrt(2 * SEGMENT + 7)]

    def test_rejects_small_limit(self):
        with pytest.raises(ParameterError):
            next(prime_power_segments(1))


class TestRational:
    @given(
        st.fractions(min_value=-100, max_value=100, max_denominator=10**4),
        st.fractions(min_value=-100, max_value=100, max_denominator=10**4),
        st.fractions(min_value=-100, max_value=100, max_denominator=10**4),
    )
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(st.fractions(min_value=-100, max_value=100, max_denominator=10**4))
    def test_inverse(self, a):
        if a != 0:
            assert a * (1 / a) == 1

    @given(st.fractions(min_value=-100, max_value=100, max_denominator=10**4))
    def test_lowest_terms_positive_denominator(self, a):
        f = Fraction(a)
        assert f.denominator > 0
        assert math.gcd(f.numerator, f.denominator) == 1
