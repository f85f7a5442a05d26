"""Computations made apart from secmin, used to check its outputs.

Nothing here imports secmin: every expected value is derived by a different
route from the one the program takes (trial division instead of the sieve,
Legendre's formula instead of carry counting, explicit binomial sums instead
of Chow-ring series, integer determinants instead of Fraction elimination).
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction


# ---------------------------------------------------------------- Pascal rows


def smallest_factor(q: int) -> int:
    """Smallest prime factor of q >= 2, by trial division."""
    if q % 2 == 0:
        return 2
    f = 3
    while f * f <= q:
        if q % f == 0:
            return f
        f += 2
    return q


def is_prime_power(q: int) -> bool:
    if q < 2:
        return False
    p = smallest_factor(q)
    while q % p == 0:
        q //= p
    return q == 1


def largest_prime_power(n: int) -> int:
    """Largest prime power <= n (n >= 2), by a downward scan."""
    q = n
    while not is_prime_power(q):
        q -= 1
    return q


def primes_upto(n: int) -> list[int]:
    return [q for q in range(2, n + 1) if smallest_factor(q) == q]


class GapTable:
    """gap(j) = j - largest prime power <= j for 2 <= j <= limit, with prefix sums.

    Built by a forward pass over trial-division prime-power tests, so it
    shares no code with the program's sieve.  Arrays, not lists, keep the
    benchmark's own share of peak_rss_mb small.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.gap = array("l", bytes(8 * (limit + 1)))
        self.prefix = array("q", bytes(8 * (limit + 1)))
        self.first_bad = 0  # smallest n >= 30 with 4*gap(n) > n, or 0 if none up to limit
        best = 0
        for j in range(2, limit + 1):
            if is_prime_power(j):
                best = j
            self.gap[j] = j - best
            self.prefix[j] = self.prefix[j - 1] + self.gap[j]
            if not self.first_bad and j >= 30 and 4 * self.gap[j] > j:
                self.first_bad = j

    def gap_sum(self, n: int) -> int:
        """Sum of gap(j) for 2 <= j <= n."""
        return self.prefix[n]

    def quarter_holds(self, n: int) -> bool:
        """Whether gap(j) <= j/4 for every 30 <= j <= n."""
        return not self.first_bad or self.first_bad > n


def legendre_binomial_valuation(n: int, m: int, p: int) -> int:
    """v_p(C(n, m)) as v_p(n!) - v_p(m!) - v_p((n-m)!), each by Legendre's formula."""

    def fact_val(x: int) -> int:
        total = 0
        q = p
        while q <= x:
            total += x // q
            q *= p
        return total

    return fact_val(n) - fact_val(m) - fact_val(n - m)


def binomial_row(n: int) -> list[int]:
    """C(n, k) for 0 <= k <= n // 2, each from the one before: C(n, k + 1) = C(n, k) (n - k) / (k + 1)."""
    row = [1]
    for k in range(n // 2):
        row.append(row[-1] * (n - k) // (k + 1))
    return row


# ---------------------------------------------------------------- lattices


def int_det(rows: list[list[int]]) -> int:
    """Exact determinant by cofactor expansion along the first row (rank <= 4)."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * int_det(minor)
    return total


def positive_definite(gram: list[list[int]]) -> bool:
    """Sylvester's criterion on the leading principal minors."""
    return all(int_det([r[:k] for r in gram[:k]]) > 0 for k in range(1, len(gram) + 1))


def quad(gram, v) -> int:
    n = len(gram)
    return sum(v[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))


def log_unit_ball(n: int) -> float:
    """log of the volume of the euclidean unit ball in R^n."""
    return (n / 2) * math.log(math.pi) - math.lgamma(n / 2 + 1)


def minkowski_factor(n: int) -> float:
    """(2^n / B_n)^2, the second-theorem factor bounding prod(lambda_i^2) / det."""
    return math.exp(2 * (n * math.log(2) - log_unit_ball(n)))


def matmul_is_identity(gram: list[list[int]], inverse: list[list[Fraction]]) -> bool:
    n = len(gram)
    for i in range(n):
        for j in range(n):
            s = sum(gram[i][k] * inverse[k][j] for k in range(n))
            if s != (1 if i == j else 0):
                return False
    return True


def eval_form(terms: dict[tuple[int, ...], int], v) -> int:
    total = 0
    for exps, coeff in terms.items():
        t = coeff
        for x, e in zip(v, exps):
            t *= x**e
        total += t
    return total


def check_minima(gram, sq_minima, witnesses) -> str | None:
    """Properties every successive-minima answer has; None when all hold."""
    n = len(gram)
    if len(sq_minima) != n or len(witnesses) != n:
        return f"expected {n} minima and witnesses"
    norms = [quad(gram, w) for w in witnesses]
    if list(norms) != list(sq_minima):
        return f"witness norms {norms} != sq_minima {list(sq_minima)}"
    if any(a > b for a, b in zip(norms, norms[1:])):
        return f"minima not nondecreasing: {norms}"
    if int_det([list(w) for w in witnesses]) == 0:
        return "witnesses are dependent"
    det = int_det(gram)
    prod = math.prod(sq_minima)
    if prod < det:
        return f"prod lambda^2 = {prod} below det {det}"
    if prod > minkowski_factor(n) * det * (1 + 1e-9):
        return f"prod lambda^2 = {prod} above the Minkowski bound for det {det}"
    return None


# ---------------------------------------------------------------- secant degrees and bounds


def comb0(top: int, k: int) -> int:
    """C(top, k), zero outside 0 <= k <= top."""
    if top < 0 or k < 0 or k > top:
        return 0
    return math.comb(top, k)


def secant_degree(g: int, m: int, d: int) -> int:
    """sum_a C(m+g-1-d-a, d-a) C(g, a): the closed form, written out with math.comb."""
    return sum(comb0(m + g - 1 - d - a, d - a) * comb0(g, a) for a in range(0, d + 1))


def log_degree_term(g: int, m: int, j: int) -> float:
    """log(max(D(g, m, j), 1) * (m + g)), with D(g, m, 0) = 1."""
    dj = 1 if j == 0 else secant_degree(g, m, j)
    return math.log(max(dj, 1) * (m + g))


def height_floor(g: int, m: int, l2: float, lw: float, w2: float) -> float:
    return g * l2 / (2 * m) - lw / 2 + m * w2 / (8 * g)


def lambda_floor(g, m, k, l2, lw, w2, deg) -> float:
    """[k(l2 - 2m e) + m^2 e - log(D(g,m,k-1)(m+g)) deg] / (m^2 deg) - 1, e the height floor."""
    e = height_floor(g, m, l2, lw, w2)
    bracket = k * (l2 - 2 * m * e) + m * m * e - log_degree_term(g, m, k - 1) * deg
    return bracket / (m * m * deg) - 1


def omega_lambda_floor(g, n, k, w2, deg) -> float:
    """(k+n)/(4g(g-1)) * w2/deg - log(D(g, m, k-1)(m+g)) / m^2 with m = 2(g-1)n."""
    m = 2 * (g - 1) * n
    return (k + n) / (4 * g * (g - 1)) * (w2 / deg) - log_degree_term(g, m, k - 1) / (m * m)


def transference_constant(n: int, r1: int, r2: int, log_disc: float) -> float:
    """(N+1)(r1+r2) log 2 + (N+1) log|disc|/2 - r1 log B_N - r2 log B_{2N+2}."""
    return (
        (n + 1) * (r1 + r2) * math.log(2)
        + (n + 1) * log_disc / 2
        - r1 * log_unit_ball(n)
        - r2 * log_unit_ball(2 * n + 2)
    )


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
