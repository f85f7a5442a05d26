"""Explicit numeric lower bounds for successive minima of extension lattices
over an arithmetic surface.

All integer and rational sub-expressions (secant degrees, binomials) are
exact; only logarithms and the user-supplied arithmetic intersection numbers
are floating point.  Intersection numbers themselves are inputs, never
computed here.  Evaluators are pure, deterministic, and replayable from the
inputs echoed in their reports.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .errors import ParameterError
from .secant import degree_formula


class _FieldFields(NamedTuple):
    degree: int
    real_places: int
    complex_places: int
    log_disc: float


class NumberFieldData(_FieldFields):
    """Degree, signature, and discriminant size of a number field."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.degree < 1 or self.real_places < 0 or self.complex_places < 0:
            raise ParameterError("field degree must be >= 1 and places nonnegative")
        if self.real_places + 2 * self.complex_places != self.degree:
            raise ParameterError(
                f"signature mismatch: r1 + 2*r2 = {self.real_places + 2 * self.complex_places}"
                f" but degree = {self.degree}"
            )
        if self.log_disc < 0:
            raise ParameterError(f"log|disc| must be >= 0, got {self.log_disc}")
        if not math.isfinite(self.log_disc):
            raise ParameterError(f"log|disc| must be finite, got {self.log_disc}")
        if self.log_disc == 0 and self.degree > 1:
            raise ParameterError("only the rationals have trivial discriminant")
        return self


RATIONAL_FIELD = NumberFieldData(degree=1, real_places=1, complex_places=0, log_disc=0.0)


class _SurfaceFields(NamedTuple):
    genus: int
    degree: int
    l2: float
    l_omega: float
    omega2: float
    field: NumberFieldData


class SurfaceData(_SurfaceFields):
    """Arithmetic-surface inputs: genus, fiber degree m of the line bundle, and
    the intersection numbers l2 = L.L, l_omega = L.omega, omega2 = omega.omega."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.genus < 2:
            raise ParameterError(f"genus must be >= 2, got {self.genus}")
        if self.degree < 1:
            raise ParameterError(f"fiber degree must be >= 1, got {self.degree}")
        if not all(map(math.isfinite, (self.l2, self.l_omega, self.omega2))):
            raise ParameterError(
                f"intersection numbers must be finite, got l2={self.l2}, l_omega={self.l_omega}, omega2={self.omega2}"
            )
        if self.omega2 < 0:
            raise ParameterError(f"omega2 must be >= 0, got {self.omega2}")
        return self


def ball_volume_log(n: int) -> float:
    """log of the euclidean volume of the unit ball in R^n."""
    if n < 0:
        raise ParameterError(f"dimension must be >= 0, got {n}")
    return (n / 2) * math.log(math.pi) - math.lgamma(n / 2 + 1)


def transference_constant(n: int, field: NumberFieldData, *, rank_shift: bool = False) -> float:
    """The additive gap constant comparing minima sums with dual sublattice heights.

    (N+1)(r1+r2) log 2 + (N+1) log|disc|/2 - r1 log B_N - r2 log B_{2N+2},
    following the printed form; rank_shift=True substitutes B_{N+1} for B_N
    (the ball dimension a rank-(N+1) volume argument would suggest).
    """
    if n < 0:
        raise ParameterError(f"N must be >= 0, got {n}")
    real_ball = ball_volume_log(n + 1 if rank_shift else n)
    return (
        (n + 1) * (field.real_places + field.complex_places) * math.log(2)
        + (n + 1) * field.log_disc / 2
        - field.real_places * real_ball
        - field.complex_places * ball_volume_log(2 * n + 2)
    )


def height_floor(s: SurfaceData) -> float:
    """Lower bound for the infimum of normalized heights of algebraic points:
    g*l2/(2m) - l_omega/2 + m*omega2/(8g)."""
    g, m = s.genus, s.degree
    return g * s.l2 / (2 * m) - s.l_omega / 2 + m * s.omega2 / (8 * g)


def _degree_term(genus: int, m: int, d: int) -> int:
    """Secant degree for log terms, lifted to at least 1.

    The formula evaluates to 0 once the secant variety fills projective space;
    the degree of the full space is 1, and the log term needs a positive
    argument, so 0 is lifted to 1.
    """
    return max(degree_formula(genus, m, d), 1)


def lambda_floor(s: SurfaceData, k: int, e_val: float | None = None) -> float:
    """Lower bound for the k-th successive minimum of the extension lattice.

    [k(l2 - 2m e) + m^2 e - log(D(g,m,k-1)(m+g)) deg] / (m^2 deg) - 1, with e
    the height floor by default; callers with sharper height information pass
    their own e_val.  Requires k > 1 and m > 2k.
    """
    g, m, deg = s.genus, s.degree, s.field.degree
    if k <= 1:
        raise ParameterError(f"k must exceed 1, got {k}")
    if m <= 2 * k:
        raise ParameterError(f"need m > 2k, got m={m}, k={k}")
    if e_val is None:
        e_val = height_floor(s)
    dterm = _degree_term(g, m, k - 1)
    bracket = k * (s.l2 - 2 * m * e_val) + m * m * e_val - math.log(dterm * (m + g)) * deg
    return bracket / (m * m * deg) - 1


def _mu_bracket(s: SurfaceData, k: int, e_val: float) -> float:
    g, m, deg = s.genus, s.degree, s.field.degree
    log_sum = 0.0
    for j in range(1, k + 1):
        dterm = _degree_term(g, m, j - 1)
        log_sum += math.log(dterm * (m + g))
    return (
        (k * (k + 1) / 2) * (s.l2 - 2 * m * e_val)
        + k * m * m * e_val
        - log_sum * deg
    )


def mu_floor(s: SurfaceData, k: int, e_val: float | None = None) -> float:
    """Lower bound for the k-th dual sublattice height of the section lattice:
    -C(m+g-2, K) + [k(k+1)/2 (l2 - 2m e) + k m^2 e - sum_j log(D(g,m,j-1)(m+g)) deg] / m^2."""
    g, m = s.genus, s.degree
    if k <= 1:
        raise ParameterError(f"k must exceed 1, got {k}")
    if m <= 2 * k:
        raise ParameterError(f"need m > 2k, got m={m}, k={k}")
    if e_val is None:
        e_val = height_floor(s)
    return -transference_constant(m + g - 2, s.field) + _mu_bracket(s, k, e_val) / (m * m)


def top_lambda_floor(s: SurfaceData) -> tuple[int, float]:
    """Parity-selected high-index minimum bound.

    Returns (index, value) with index = m - g - 1 for odd m and m - g for even
    m, and value = [l2 - log(D(g,m,index-1)(m+g)) deg] / (2m deg) - 1.
    """
    g, m, deg = s.genus, s.degree, s.field.degree
    index = m - g - 1 if m % 2 == 1 else m - g
    if index < 1:
        raise ParameterError(f"index m-g-1 or m-g must be >= 1, got {index}")
    dterm = _degree_term(g, m, index - 1)
    value = (s.l2 - math.log(dterm * (m + g)) * deg) / (2 * m * deg) - 1
    return index, value


def omega_power_surface(genus: int, n: int, omega2: float, field: NumberFieldData) -> SurfaceData:
    """SurfaceData for the n-th power of the relative dualizing sheaf:
    m = 2(g-1)n, l2 = n^2 omega2, l_omega = n omega2."""
    if genus < 2:
        raise ParameterError(f"genus must be >= 2, got {genus}")
    if n < 1:
        raise ParameterError(f"power must be >= 1, got {n}")
    return SurfaceData(
        genus=genus,
        degree=2 * (genus - 1) * n,
        l2=n * n * omega2,
        l_omega=n * omega2,
        omega2=omega2,
        field=field,
    )


def omega_lambda_floor(genus: int, n: int, k: int, omega2: float, field: NumberFieldData) -> float:
    """Exact minimum bound for powers of the dualizing sheaf, no asymptotic constants:
    (k+n)/(4g(g-1)) * omega2/deg - log(D(g, 2n(g-1), k-1)(m+g)) / m^2, for 1 <= k < (g-1)n."""
    if genus < 2:
        raise ParameterError(f"genus must be >= 2, got {genus}")
    if n < 1:
        raise ParameterError(f"power must be >= 1, got {n}")
    if not 1 <= k < (genus - 1) * n:
        raise ParameterError(f"need 1 <= k < (g-1)n, got k={k}, (g-1)n={(genus - 1) * n}")
    if omega2 < 0:
        raise ParameterError(f"omega2 must be >= 0, got {omega2}")
    g, m = genus, 2 * (genus - 1) * n
    dterm = _degree_term(g, m, k - 1)
    return (k + n) / (4 * g * (g - 1)) * (omega2 / field.degree) - math.log(dterm * (m + g)) / (m * m)


def omega_mu_floor(genus: int, n: int, k: int, omega2: float, field: NumberFieldData) -> float:
    """Exact dual-height bound for powers of the dualizing sheaf: the mu bound
    with the height floor substituted, valid down to k = 1."""
    if not 1 <= k < (genus - 1) * n:
        raise ParameterError(f"need 1 <= k < (g-1)n, got k={k}, (g-1)n={(genus - 1) * n}")
    s = omega_power_surface(genus, n, omega2, field)
    e_val = height_floor(s)
    m, g = s.degree, s.genus
    return -transference_constant(m + g - 2, field) + _mu_bracket(s, k, e_val) / (m * m)


class BoundReport(NamedTuple):
    """An evaluator result with the exact inputs needed to replay it."""

    kind: str
    value: float
    inputs: tuple[tuple[str, object], ...]

    def replay(self) -> float:
        return evaluate(self.kind, dict(self.inputs))


def _field_from(inputs: dict) -> NumberFieldData:
    return NumberFieldData(
        degree=inputs["degK"],
        real_places=inputs["r1"],
        complex_places=inputs["r2"],
        log_disc=inputs["log_disc"],
    )


def surface_from(inputs: dict) -> SurfaceData:
    """The surface of a report's echoed inputs, its field built first."""
    return SurfaceData(
        genus=inputs["g"],
        degree=inputs["m"],
        l2=inputs["L2"],
        l_omega=inputs["Lw"],
        omega2=inputs["w2"],
        field=_field_from(inputs),
    )


def _top(d: dict, want_odd: bool) -> float:
    if (d["m"] % 2 == 1) != want_odd:
        raise ParameterError(f"m={d['m']} has the wrong parity for this bound kind")
    return top_lambda_floor(surface_from(d))[1]


EVALUATORS: dict[str, Callable[[dict], float]] = {
    "constant": lambda d: transference_constant(d["N"], _field_from(d), rank_shift=d.get("rank_shift", False)),
    "height": lambda d: height_floor(surface_from(d)),
    "lambda": lambda d: lambda_floor(surface_from(d), d["k"], d.get("e_val")),
    "mu": lambda d: mu_floor(surface_from(d), d["k"], d.get("e_val")),
    "top-odd": lambda d: _top(d, True),
    "top-even": lambda d: _top(d, False),
    "omega-lambda": lambda d: omega_lambda_floor(d["g"], d["n"], d["k"], d["w2"], _field_from(d)),
    "omega-mu": lambda d: omega_mu_floor(d["g"], d["n"], d["k"], d["w2"], _field_from(d)),
}


def evaluate(kind: str, inputs: dict) -> float:
    """Replay dispatcher: identical inputs give bit-identical values, always finite."""
    if kind not in EVALUATORS:
        raise ParameterError(f"unknown bound kind {kind!r}")
    value = EVALUATORS[kind](inputs)
    if not math.isfinite(value):
        raise ParameterError(f"bound {kind} evaluates to {value} on these inputs; it must be finite")
    return value


def make_report(kind: str, **inputs: object) -> BoundReport:
    items = tuple(sorted(inputs.items()))
    value = evaluate(kind, dict(items))
    return BoundReport(kind=kind, value=value, inputs=items)
