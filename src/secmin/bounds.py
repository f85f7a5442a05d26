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
import sys

from .errors import ParameterError
from .records import Record
from .secant import degree_formula


class NumberFieldData(Record, fields="degree real_places complex_places log_disc"):
    """Degree, signature (r1 real and r2 complex places), and the float log|disc| of a number field."""

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


class SurfaceData(Record, fields="genus degree l2 l_omega omega2 field"):
    """Arithmetic-surface inputs over a NumberFieldData field: genus, fiber degree m of the
    line bundle, and the float intersection numbers l2 = L.L, l_omega = L.omega, omega2 = omega.omega."""

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


def _log_degree_term(genus: int, m: int, d: int) -> float:
    """log(D(g,m,d)(m+g)), the secant degree lifted to at least 1.

    The formula is 0 only once 2d > m + g - 1, past the point where the secant
    variety fills projective space; the log term needs a positive argument,
    so 0 is lifted to 1.  At 2d = m + g - 1 the term reads the formula's
    value, the count of secant planes through a general point (SecantParams).
    """
    return math.log(max(degree_formula(genus, m, d), 1) * (m + genus))


def _height_for(s: SurfaceData, k: int, e_val: float | None) -> float:
    """The height e_val, the height floor by default, once k, m and e_val are checked."""
    if k <= 1:
        raise ParameterError(f"k must exceed 1, got {k}")
    if s.degree <= 2 * k:
        raise ParameterError(f"need m > 2k, got m={s.degree}, k={k}")
    if e_val is None:
        return height_floor(s)
    if not math.isfinite(e_val):
        raise ParameterError(f"e_val must be finite, got {e_val}")
    return e_val


def lambda_floor(s: SurfaceData, k: int, e_val: float | None = None) -> float:
    """Lower bound for the k-th successive minimum of the extension lattice.

    [k(l2 - 2m e) + m^2 e - log(D(g,m,k-1)(m+g)) deg] / (m^2 deg) - 1, with e
    the height floor by default; callers with sharper height information pass
    their own e_val.  Requires k > 1 and m > 2k.
    """
    m, deg = s.degree, s.field.degree
    e_val = _height_for(s, k, e_val)
    bracket = k * (s.l2 - 2 * m * e_val) + m * m * e_val - _log_degree_term(s.genus, m, k - 1) * deg
    return bracket / (m * m * deg) - 1


def _mu(s: SurfaceData, k: int, e_val: float) -> float:
    g, m = s.genus, s.degree
    log_sum = 0.0
    for j in range(1, k + 1):
        log_sum += _log_degree_term(g, m, j - 1)
    bracket = (k * (k + 1) / 2) * (s.l2 - 2 * m * e_val) + k * m * m * e_val - log_sum * s.field.degree
    return -transference_constant(m + g - 2, s.field) + bracket / (m * m)


def mu_floor(s: SurfaceData, k: int, e_val: float | None = None) -> float:
    """Lower bound for the k-th dual sublattice height of the section lattice:
    -C(m+g-2, K) + [k(k+1)/2 (l2 - 2m e) + k m^2 e - sum_j log(D(g,m,j-1)(m+g)) deg] / m^2."""
    return _mu(s, k, _height_for(s, k, e_val))


def top_lambda_floor(s: SurfaceData) -> tuple[int, float]:
    """Parity-selected high-index minimum bound.

    Returns (index, value) with index = m - g - 1 for odd m and m - g for even
    m, and value = [l2 - log(D(g,m,index-1)(m+g)) deg] / (2m deg) - 1.
    """
    g, m, deg = s.genus, s.degree, s.field.degree
    index = m - g - 1 if m % 2 == 1 else m - g
    if index < 1:
        raise ParameterError(f"index m-g-1 or m-g must be >= 1, got {index}")
    value = (s.l2 - _log_degree_term(g, m, index - 1) * deg) / (2 * m * deg) - 1
    return index, value


def omega_power_surface(genus: int, n: int, omega2: float, field: NumberFieldData) -> SurfaceData:
    """SurfaceData for the n-th power of the relative dualizing sheaf:
    m = 2(g-1)n, l2 = n^2 omega2, l_omega = n omega2."""
    if genus < 2:
        raise ParameterError(f"genus must be >= 2, got {genus}")
    if n < 1:
        raise ParameterError(f"power must be >= 1, got {n}")
    l2 = n * n * omega2
    if math.isinf(l2) and math.isfinite(omega2):
        raise ParameterError(f"intersection numbers must be finite, but l2 = n^2 * w2 overflows at n={n}, w2={omega2}")
    return SurfaceData(
        genus=genus,
        degree=2 * (genus - 1) * n,
        l2=l2,
        l_omega=n * omega2,
        omega2=omega2,
        field=field,
    )


def _omega_surface(genus: int, n: int, k: int, omega2: float, field: NumberFieldData) -> SurfaceData:
    """The omega-power surface, once k is checked against it."""
    s = omega_power_surface(genus, n, omega2, field)
    if not 1 <= k < (genus - 1) * n:
        raise ParameterError(f"need 1 <= k < (g-1)n, got k={k}, (g-1)n={(genus - 1) * n}")
    return s


def omega_lambda_floor(genus: int, n: int, k: int, omega2: float, field: NumberFieldData) -> float:
    """Exact minimum bound for powers of the dualizing sheaf, no asymptotic constants:
    (k+n)/(4g(g-1)) * omega2/deg - log(D(g, 2n(g-1), k-1)(m+g)) / m^2, for 1 <= k < (g-1)n."""
    g, m = genus, _omega_surface(genus, n, k, omega2, field).degree
    return (k + n) / (4 * g * (g - 1)) * (omega2 / field.degree) - _log_degree_term(g, m, k - 1) / (m * m)


def omega_mu_floor(genus: int, n: int, k: int, omega2: float, field: NumberFieldData) -> float:
    """Exact dual-height bound for powers of the dualizing sheaf: the mu bound
    with the height floor substituted, valid down to k = 1."""
    s = _omega_surface(genus, n, k, omega2, field)
    return _mu(s, k, height_floor(s))


# The inputs each kind reads besides the field's four, in the order the CLI
# names them.  A kind may leave out those in DEFAULTS and needs all the others.
FIELD_INPUTS = ("degK", "r1", "r2", "log_disc")
_SURFACE_INPUTS = ("g", "m", "L2", "Lw", "w2")
INPUTS = {
    "constant": ("N", "rank_shift"),
    "height": _SURFACE_INPUTS,
    "lambda": ("g", "m", "k", "L2", "Lw", "w2", "e_val"),
    "mu": ("g", "m", "k", "L2", "Lw", "w2", "e_val"),
    "top-odd": _SURFACE_INPUTS,
    "top-even": _SURFACE_INPUTS,
    "omega-lambda": ("g", "n", "k", "w2"),
    "omega-mu": ("g", "n", "k", "w2"),
}
DEFAULTS = {"rank_shift": False, "Lw": 0.0, "w2": 0.0, "e_val": None}


class BoundReport(Record, fields="kind value inputs"):
    """An evaluator result with the exact inputs needed to replay it, as sorted (name, value) pairs."""

    __slots__ = ()

    def replay(self) -> float:
        return evaluate(self.kind, dict(self.inputs))


def surface_from(inputs: dict) -> SurfaceData:
    """The surface of a report's echoed inputs, its field built first."""
    field = NumberFieldData(*(inputs[name] for name in FIELD_INPUTS))
    return SurfaceData(inputs["g"], inputs["m"], inputs["L2"], inputs["Lw"], inputs["w2"], field)


def _with_defaults(kind: str, inputs: dict) -> dict:
    """Every input kind reads, one left out or given as None taking its default;
    ParameterError names the inputs given that kind does not read, those it needs,
    or the first integer input larger than the largest float, since the formulas
    multiply the integers by floats."""
    if kind not in INPUTS:
        raise ParameterError(f"unknown bound kind {kind!r}")
    reads = INPUTS[kind] + FIELD_INPUTS
    unread = [name for name in inputs if name not in reads]
    if unread:
        raise ParameterError(f"bound {kind} does not read {', '.join(unread)}")
    d = {name: DEFAULTS.get(name) if inputs.get(name) is None else inputs[name] for name in reads}
    missing = [name for name, v in d.items() if v is None and name not in DEFAULTS]
    if missing:
        raise ParameterError(f"bound {kind} needs {', '.join(missing)}")
    for name, v in d.items():
        if isinstance(v, int) and v > sys.float_info.max:
            raise ParameterError(f"{name} is larger than the largest float")
    return d


def evaluate(kind: str, inputs: dict) -> float:
    """Replay dispatcher: identical inputs give bit-identical values, always finite."""
    d = _with_defaults(kind, inputs)
    try:
        if "m" not in d:  # the kinds that build no surface of their own
            field = NumberFieldData(*(d[name] for name in FIELD_INPUTS))
            if kind == "constant":
                value = transference_constant(d["N"], field, rank_shift=d["rank_shift"])
            else:
                floor = omega_lambda_floor if kind == "omega-lambda" else omega_mu_floor
                value = floor(d["g"], d["n"], d["k"], d["w2"], field)
        else:
            s = surface_from(d)
            if kind == "height":
                value = height_floor(s)
            elif kind in ("lambda", "mu"):
                value = (lambda_floor if kind == "lambda" else mu_floor)(s, d["k"], d["e_val"])
            elif (s.degree % 2 == 1) != (kind == "top-odd"):
                raise ParameterError(f"m={s.degree} has the wrong parity for this bound kind")
            else:
                value = top_lambda_floor(s)[1]
    except OverflowError as exc:  # a product of in-range inputs, or lgamma, past the largest float
        raise ParameterError(f"bound {kind} overflows a float on these inputs") from exc
    if not math.isfinite(value):
        raise ParameterError(f"bound {kind} evaluates to {value} on these inputs; it must be finite")
    return value


def make_report(kind: str, **inputs: object) -> BoundReport:
    """The value of kind on inputs, echoing them and the defaults it filled in
    but an e_val left to the height floor."""
    echoed = {name: v for name, v in _with_defaults(kind, inputs).items() if v is not None}
    return BoundReport(kind=kind, value=evaluate(kind, echoed), inputs=tuple(sorted(echoed.items())))
