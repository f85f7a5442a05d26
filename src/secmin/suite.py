"""Pinned desk-scale verification suite.

Each check re-derives its expected values through a route independent of the
implementation it exercises (factorial-valuation tables, reduced closed forms,
random matrices from fixed seeds) and returns a CheckResult; the CLI command
verify-all runs them all and prints one line per check.
"""

from __future__ import annotations

import math
import random
import struct
import time
from itertools import product

from . import arith, bands, bounds, lattice, secant
from .errors import ParameterError, VerificationError
from .records import Record

SEED_GRAM = 987001
SEED_FORMS = 987002

# each check's range or count: (full run, --quick)
RANGES = {
    "identity_hi": (3000, 300),
    "prime_power_hi": (3000, 300),
    "quarter_hi": (10**6, 10**5),
    "kummer_hi": (500, 120),
    "prime_band_hi": (2000, 300),
    "secant_g": (6, 3),
    "secant_d": (6, 4),
    "secant_m": (40, 16),
    "curve_g": (10, 5),
    "curve_m": (50, 20),
    "transference_count": (500, 40),
    "avoidance_count": (200, 40),
    "asymptotic_hi": (10**6, 10**5),
}


class CheckResult(Record, fields="name ok detail elapsed_ms"):
    """One check's name, verdict, detail line and wall time in whole milliseconds."""
    __slots__ = ()


def _timed(name, fn) -> CheckResult:
    t0 = time.perf_counter()
    try:
        detail = fn()
        ok = True
    except VerificationError as exc:
        detail = str(exc)
        ok = False
    dt = int(1000 * (time.perf_counter() - t0))
    return CheckResult(name=name, ok=ok, detail=detail, elapsed_ms=dt)


def check_band_gap_identity(hi: int) -> str:
    records = bands.verify_band_gap_identity(hi)
    worst = max(records, key=lambda r: r.gap)
    return f"n=2..{hi} all band==gap; largest gap {worst.gap} at n={worst.n}"


def check_prime_power_vanishing(hi: int) -> str:
    """The definition at each prime power q = p^k: the binomials C(q, m), 0 < m < q, share a divisor.
    p divides them all (a p-adic walk); if it did not, their gcd would be 1, as C(q, 1) = q."""
    count = 0
    for p in arith.build_sieve(hi).primes():
        q = p
        while q <= hi:
            if not bands.prime_divides_band(q, 0, p):
                raise VerificationError(f"C({q}, m) for 0 < m < {q} have gcd 1, expected band 0")
            count += 1
            q *= p
    return f"{count} prime powers <= {hi}, all with band 0"


def check_quarter_bound(hi: int, sieve: arith.PrimePowerSieve | None = None) -> str:
    if not bands.verify_quarter_bound(hi, sieve):
        raise VerificationError(f"gap(n) > n/4 somewhere in [30, {hi}]")
    return f"gap(n) <= n/4 for 30 <= n <= {hi}"


def check_kummer_legendre(hi: int) -> str:
    """Carry-count valuations against factorial-valuation (Legendre) tables, a row at a time.

    Rows are compared as integers of 16-bit lanes, lane m for C(n, m) (arith.carry_row).
    With f[k] = v_p(k!) packed once per prime ascending (up) and descending (down), lane m
    of the oracle row is f[n] - f[m] - f[n-m] >= 0, so no lane borrows; f[n] <= n - 1 keeps
    it in its lane for n < 2^16, and a larger hi raises ParameterError.
    """
    if hi >= 1 << 16:
        raise ParameterError(f"valuation check packs 16-bit lanes, needs hi < 65536, got {hi}")
    sieve = arith.build_sieve(hi)
    ones = int.from_bytes(b"\x01\x00" * (hi + 1), "little")
    checked = 0
    for p in sieve.primes():
        fact_val = [0] * (hi + 1)  # fact_val[n] = v_p(n!) = sum of n // p^i over i >= 1
        q = p
        while q <= hi:
            fact_val = [f + n // q for n, f in enumerate(fact_val)]
            q *= p
        up = int.from_bytes(struct.pack(f"<{hi + 1}H", *fact_val), "little")
        down = int.from_bytes(struct.pack(f"<{hi + 1}H", *reversed(fact_val)), "little")
        for n in range(p, hi + 1):
            mask = (1 << 16 * (n + 1)) - 1
            expected = fact_val[n] * (ones & mask) - (up & mask) - (down >> 16 * (hi - n) & mask)
            row = arith.carry_row(n, p)
            if row != expected:
                diff = row ^ expected
                m = ((diff & -diff).bit_length() - 1) // 16
                raise VerificationError(f"valuation mismatch at n={n}, m={m}, p={p}")
            checked += n + 1
    return f"{checked} valuations agree for n <= {hi}"


def check_prime_band_identity(hi: int) -> str:
    """prime_band(n, p) == n - q for each prime power q = p^k and q <= n < 2q (leading digit 1)."""
    checked = 0
    for p in arith.build_sieve(hi).primes():
        q = p
        while q <= hi:
            top = min(2 * q - 1, hi)
            for n in range(q, top + 1):
                if bands.prime_band(n, p) != n - q:
                    raise VerificationError(f"prime band at n={n}, p={p} is not n - p^k")
            checked += top + 1 - q
            q *= p
    return f"{checked} leading-digit-1 cases match n - p^k for n <= {hi}"


def check_secant_two_oracle(g_hi: int, d_hi: int, m_hi: int) -> str:
    cases = 0
    for g in range(0, g_hi + 1):
        for d in range(1, d_hi + 1):
            for m in range(3, m_hi + 1):
                if 2 * d > m + g - 1:
                    continue
                closed = secant.degree_formula(g, m, d)
                oracle = secant.degree_oracle(secant.SecantParams(g, m, d))
                if closed != oracle:
                    raise VerificationError(f"degree mismatch at (g={g}, m={m}, d={d})")
                if closed < 1:
                    raise VerificationError(f"degree {closed} < 1 at (g={g}, m={m}, d={d})")
                cases += 1
    return f"{cases} parameter triples, closed form == series oracle"


def check_curve_degree(g_hi: int, m_hi: int) -> str:
    cases = 0
    for g in range(0, g_hi + 1):
        for m in range(3, m_hi + 1):
            expected = m + 2 * g - 2
            if secant.degree_formula(g, m, 1) != expected:
                raise VerificationError(f"curve degree mismatch at (g={g}, m={m})")
            cases += 1
    return f"{cases} curve degrees equal m + 2g - 2"


def random_gram(rng: random.Random, rank: int, spread: int = 2) -> lattice.GramLattice:
    """Random positive-definite integer Gram A^T A with entries bounded by rank*spread^2.

    A^T A is positive definite exactly when A is nonsingular, so a singular A is redrawn.
    """
    while True:
        a = [[rng.randint(-spread, spread) for _ in range(rank)] for _ in range(rank)]
        if lattice._minors(a, rank)[0]:
            g = [[sum(a[r][i] * a[r][j] for r in range(rank)) for j in range(rank)] for i in range(rank)]
            return lattice.GramLattice.from_rows(g)


NAMED_GRAMS = {
    "identity2": [[1, 0], [0, 1]],
    "hexagonal": [[2, 1], [1, 2]],
    "diag14": [[1, 0], [0, 4]],
}


def check_transference(count: int) -> str:
    printed_holds = 0
    for rows in NAMED_GRAMS.values():
        report = lattice.verify_transference(lattice.GramLattice.from_rows(rows))
        if not report.printed_ok:
            raise VerificationError(f"named example {rows} misses the det-free upper bound")
        printed_holds += 1
    rng = random.Random(SEED_GRAM)
    for i in range(count):
        rank = 2 + (i % 2)  # alternate ranks 2 and 3
        printed_holds += lattice.verify_transference(random_gram(rng, rank)).printed_ok
    return (
        f"{count} random Gram matrices plus named examples satisfy both inequalities"
        f" (det-free upper form additionally holds for {printed_holds} of {count + 3})"
    )


def random_form(rng: random.Random, num_vars: int, degree: int) -> lattice.HomogeneousForm:
    # exponent vectors of the given degree in lexicographic order, the order the RNG draws follow
    monomials = [e for e in product(range(degree + 1), repeat=num_vars) if sum(e) == degree]
    while True:
        terms = {e: rng.randint(-5, 5) for e in monomials if rng.random() < 0.5}
        terms = {e: c for e, c in terms.items() if c}
        if terms:
            return lattice.HomogeneousForm.from_terms(num_vars, terms)


def check_avoidance(count: int) -> str:
    rng = random.Random(SEED_FORMS)
    for i in range(count):
        rank = 2 + (i % 2)
        degree = 1 + (i % 3)
        form = random_form(rng, rank, degree)
        gram = random_gram(rng, rank)
        minima = lattice.successive_minima(gram)
        result = lattice.avoid_hypersurface(form, minima)
        if result.value == 0 or not result.within_bound:
            raise VerificationError(f"avoidance failed for form {form.terms} on {gram.gram}")
    return f"{count} random forms avoided within the norm bound"


def check_bound_consistency() -> str:
    """Extremal-height reduction of the lambda bound, and the discriminant
    coefficient of the dual-height bound for dualizing-sheaf powers."""
    surfaces = [
        bounds.SurfaceData(2, 12, 7.3, 2.1, 1.9, bounds.RATIONAL_FIELD),
        bounds.SurfaceData(3, 20, 11.0, 3.0, 0.5, bounds.NumberFieldData(2, 0, 1, math.log(3))),
        bounds.SurfaceData(4, 18, 5.5, 0.0, 0.0, bounds.NumberFieldData(2, 2, 0, math.log(5))),
    ]
    for s in surfaces:
        m, g, deg = s.degree, s.genus, s.field.degree
        extremal = s.l2 / (2 * m)
        for k in range(2, (m - 1) // 2 + 1):
            got = bounds.lambda_floor(s, k, e_val=extremal)
            dterm = max(secant.degree_formula(g, m, k - 1), 1)
            reduced = s.l2 / (2 * m * deg) - math.log(dterm * (m + g)) / (m * m) - 1
            if not math.isclose(got, reduced, rel_tol=1e-9, abs_tol=1e-12):
                raise VerificationError(f"extremal lambda mismatch at k={k}: {got} vs {reduced}")
    for g, n, k in [(2, 3, 2), (3, 2, 1), (4, 2, 3)]:
        m = 2 * (g - 1) * n
        if (m + g - 1) != (2 * n + 1) * (g - 1):
            raise VerificationError("index identity m+g-1 == (2n+1)(g-1) fails")
        d1, d2 = math.log(3), math.log(11)
        f1 = bounds.NumberFieldData(2, 0, 1, d1)
        f2 = bounds.NumberFieldData(2, 0, 1, d2)
        diff = bounds.omega_mu_floor(g, n, k, 1.25, f1) - bounds.omega_mu_floor(g, n, k, 1.25, f2)
        expected = -(2 * n + 1) * (g - 1) / 2 * (d1 - d2)
        if not math.isclose(diff, expected, rel_tol=1e-9, abs_tol=1e-12):
            raise VerificationError(f"disc coefficient mismatch: {diff} vs {expected}")
    return "extremal-height reduction and disc coefficient identities hold to 1e-9"


def asymptotic_lines(hi: int, sieve: arith.PrimePowerSieve | None = None) -> list[str]:
    """The committed reference format: one line per exponent, repr-formatted floats."""
    reports = bands.asymptotic_reports(hi, bands.GROWTH_EXPONENTS, sieve)
    return [" ".join(f"{key}={v!r}" for key, v in r.record().items()) for r in reports]


def run_all(quick: bool = False) -> list[CheckResult]:
    """Every check in order; quarter-bound and asymptotic-report stream their sieves."""
    p = {name: pair[quick] for name, pair in RANGES.items()}
    return [
        _timed("band-gap-identity", lambda: check_band_gap_identity(p["identity_hi"])),
        _timed("prime-power-vanishing", lambda: check_prime_power_vanishing(p["prime_power_hi"])),
        _timed("quarter-bound", lambda: check_quarter_bound(p["quarter_hi"])),
        _timed("valuation-two-oracle", lambda: check_kummer_legendre(p["kummer_hi"])),
        _timed("prime-band-identity", lambda: check_prime_band_identity(p["prime_band_hi"])),
        _timed("secant-two-oracle", lambda: check_secant_two_oracle(p["secant_g"], p["secant_d"], p["secant_m"])),
        _timed("curve-degree", lambda: check_curve_degree(p["curve_g"], p["curve_m"])),
        _timed("transference", lambda: check_transference(p["transference_count"])),
        _timed("avoidance", lambda: check_avoidance(p["avoidance_count"])),
        _timed("bound-consistency", check_bound_consistency),
        _timed("asymptotic-report", lambda: "; ".join(asymptotic_lines(p["asymptotic_hi"]))),
    ]
