"""Exact integer substrate: binomial coefficients, base-p digit tests, carry-count
p-adic valuations (one entry or a whole row), and a prime-power byte table.

Primality has one table, the shared Eratosthenes table _table, and only a
sieve extends it: primes_covering(n), which build_sieve calls, sieves exactly
to n when the table is short and rebinds the module name to the new table.  A
table is replaced whole, never edited in place, so a thread that still holds
the old one reads a complete table; nothing is sieved at import, and no table
above PRIME_TABLE_CAP is stored.  is_prime only reads the table: a query past
its end goes to trial division.  A PrimePowerSieve holds bytes, immutable once
built and safe to share across threads.

Range scans read the prime-power table in order: prime_power_segments(N) sieves
[0, N] one SEGMENT at a time with the base primes <= sqrt(N) (the segmented
sieve of Bays and Hudson), so a scan holds one segment, never a table up to N.
build_sieve keeps the full tables that point lookups need; a table above
TABLE_CAP bytes raises ResourceLimitError before it is allocated.

require_prime, the one prime validator, accepts only an int p that is prime and
records the accepted object in _known_prime; kummer_valuation and carry_row skip
it only when p is that object.  Only an accepted p is stored, in one assignment,
and a prime is prime under any table, so a call raises exactly when p is not a
prime int, in any order or thread: an equal float is never the stored object.
"""

from __future__ import annotations

import math
from itertools import compress, pairwise

from .errors import ParameterError, ResourceLimitError

# Largest n whose table primes_covering stores as the shared one (a 1 MiB bytearray).
PRIME_TABLE_CAP = 1 << 20

# Bytes per segment of a range scan's prime-power table.
SEGMENT = 1 << 20

# Largest full table, in bytes, that prime_table allocates; build_sieve holds two.
TABLE_CAP = 1 << 27

# The shared table: entry i is 1 iff i is prime.  Replaced whole, never edited.
_table = bytearray()

_known_prime = 2  # the last p that require_prime accepted: always a prime


def binomial(n: int, m: int) -> int:
    """C(n, m) for n >= 0, with the convention C(n, m) = 0 when m < 0 or m > n.

    The out-of-range zero lets degree formulas sum vanishing terms without
    guarding every index.
    """
    if n < 0:
        raise ParameterError(f"binomial needs n >= 0, got n={n}")
    if m < 0 or m > n:
        return 0
    return math.comb(n, m)


def is_prime(n: int) -> bool:
    """Primality: a lookup in the shared table, trial division past its end."""
    if n < 2:
        return False
    t = _table  # one read: the length check and the lookup see the same table
    if n < len(t):
        return t[n] == 1
    if n % 2 == 0:
        return n == 2
    if n % 3 == 0:
        return n == 3
    f = 5
    r = math.isqrt(n)
    while f <= r:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def require_prime(p: int) -> None:
    """ParameterError unless p is a prime int (read from the shared table, is_prime off it); then
    p is _known_prime."""
    global _known_prime
    t = _table
    if not isinstance(p, int) or not (0 <= p < len(t) and t[p] or is_prime(p)):
        raise ParameterError(f"p must be prime, got {p}")
    _known_prime = p


def kummer_valuation(n: int, m: int, p: int) -> int:
    """v_p(C(n, m)) as the number of carries when adding m and n-m in base p.

    Adding m and n-m carries out of digit k-1 exactly when m mod p^k exceeds
    n mod p^k, so this counts those k >= 1; none qualifies once p^k > n, so for
    p^2 > n it is one last-digit comparison.  O(log_p n).  The suite uses
    carry_row; this stays because the bench's pascal-rows workload and the tests
    ask for single entries (a row costs O(n)), and the tests hold carry_row to it.
    require_prime runs unless p is the last prime object it accepted.
    """
    if p is not _known_prime:
        require_prime(p)
    if m < 0 or m > n:
        raise ParameterError(f"need 0 <= m <= n, got n={n}, m={m}")
    if p * p > n:
        return 1 if m % p > n % p else 0
    carries = 0
    q = p
    while q <= n:
        carries += m % q > n % q
        q *= p
    return carries


def carry_row(n: int, p: int) -> int:
    """[v_p(C(n, m)) for m = 0..n] in 16-bit little-endian lanes: lane m of the
    returned integer (bits 16m..16m+15) holds kummer_valuation(n, m, p).

    For each q = p^k <= n the carry indicator [m mod q > n mod q] is periodic in
    m: one period (n mod q + 1 zeros, then ones) tiled along the row.  Summing
    them carries no lane into the next, since an entry is at most log_p n.
    """
    if p is not _known_prime:
        require_prime(p)
    if n < 0:
        raise ParameterError(f"need n >= 0, got n={n}")
    total = 0
    q = p
    while q <= n:
        r = n % q
        period = bytes(2 * r + 2) + b"\x01\x00" * (q - r - 1)
        total += int.from_bytes((period * (n // q + 1))[: 2 * n + 2], "little")
        q *= p
    return total


def largest_undivided(n: int, cap: int, p: int) -> int:
    """Largest m <= cap such that p does not divide C(n, m); needs 0 <= cap <= n.

    Unchecked digit kernel: p must be prime, callers validate.  By Lucas, p is
    prime to C(n, m) exactly when every base-p digit of m is at most the matching
    digit of n.  Find the highest position where cap's digit exceeds n's; the
    answer keeps cap's digits above it and takes n's digits from it down.  With
    no such position, cap itself qualifies.
    """
    a, c, pk, q = n, cap, 1, 1
    while c:
        pk *= p
        if c % p > a % p:
            q = pk
        a //= p
        c //= p
    return cap - cap % q + n % q


class PrimePowerSieve:
    """The primality table and is_prime_power, limit + 1 bytes: entry n is 1 iff
    n = p^k, p prime, k >= 1.  The largest prime power <= n is the last 1 at or
    before n, one C-level bytes.rfind; range scans read it a window at a time.
    Immutable: bytes, and the primality table is never edited.
    """

    __slots__ = ("limit", "_is_prime", "is_prime_power")

    def __init__(self, limit: int, is_prime_table: bytearray, is_prime_power: bytes):
        self.limit = limit
        self._is_prime = is_prime_table
        self.is_prime_power = is_prime_power

    def largest_prime_power(self, n: int) -> int:
        """Largest p^k <= n, or 0 for n = 1."""
        if n < 1 or n > self.limit:
            raise ParameterError(f"n={n} outside sieve range [1, {self.limit}]")
        return max(self.is_prime_power.rfind(1, 0, n + 1), 0)

    def primes(self) -> list[int]:
        return list(compress(range(self.limit + 1), self._is_prime))


def prime_table(limit: int) -> bytearray:
    """Sieve of Eratosthenes over [0, limit], limit >= 1: entry i is 1 iff i is prime.

    ResourceLimitError, before allocating, when the table would pass TABLE_CAP bytes.
    """
    if limit >= TABLE_CAP:
        raise ResourceLimitError(
            f"a sieve table to {limit} needs {limit + 1} bytes, above the {TABLE_CAP}-byte cap; lower --max"
        )
    table = bytearray([1]) * (limit + 1)
    table[0] = table[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if table[p]:
            start = p * p
            table[start :: p] = bytearray(len(range(start, limit + 1, p)))
    return table


def primes_covering(n: int) -> bytearray:
    """An Eratosthenes table (as prime_table) with an entry for n >= 0.

    The shared table when it reaches n.  Otherwise a fresh prime_table(n),
    which replaces the shared one when n <= PRIME_TABLE_CAP.  Callers must not
    modify it.
    """
    global _table
    t = _table
    if n < len(t):
        return t
    t = prime_table(max(n, 1))
    if n <= PRIME_TABLE_CAP:
        _table = t
    return t


def _higher_powers(limit: int, primes) -> list[int]:
    """The p^k <= limit with k >= 2 for the given primes, ascending."""
    powers = []
    for p in primes:
        q = p * p
        while q <= limit:
            powers.append(q)
            q *= p
    return sorted(powers)


def build_sieve(limit: int) -> PrimePowerSieve:
    """Build a PrimePowerSieve covering [1, limit]; limit >= 2.

    Its primality table is primes_covering(limit), so up to PRIME_TABLE_CAP
    the sieve and is_prime read the same table, which may run past limit.  The
    prime-power table is its first limit + 1 bytes with a 1 joined in at each
    p^k, k >= 2: one copy, the table read through views.
    """
    if limit < 2:
        raise ParameterError(f"sieve limit must be >= 2, got {limit}")
    table = primes_covering(limit)
    view = memoryview(table)
    cuts = [-1, *_higher_powers(limit, compress(range(math.isqrt(limit) + 1), table)), limit + 1]
    return PrimePowerSieve(limit, table, b"\x01".join(view[a + 1 : b] for a, b in pairwise(cuts)))


def prime_power_segments(limit: int):
    """build_sieve(limit).is_prime_power, in order, as bytearrays of at most SEGMENT bytes.

    Each segment [lo, hi) starts all ones; each base prime p <= sqrt(limit) clears
    its multiples from max(p^2, lo) on, one slice assignment, and the p^k with
    k >= 2 inside it are set again.  Memory is one segment and the base primes.
    """
    if limit < 2:
        raise ParameterError(f"sieve limit must be >= 2, got {limit}")
    root = math.isqrt(limit)
    base = list(compress(range(root + 1), primes_covering(root)))
    powers = _higher_powers(limit, base)
    j = 0
    for lo in range(0, limit + 1, SEGMENT):
        hi = min(lo + SEGMENT, limit + 1)
        seg = bytearray([1]) * (hi - lo)
        for p in base:
            if p * p >= hi:
                break
            start = max(p * p, -(-lo // p) * p) - lo
            if start < hi - lo:
                seg[start::p] = bytearray((hi - lo - start - 1) // p + 1)
        if lo == 0:
            seg[0] = seg[1] = 0
        while j < len(powers) and powers[j] < hi:
            seg[powers[j] - lo] = 1
            j += 1
        yield seg
