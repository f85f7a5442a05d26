"""Degrees of secant varieties of an embedded smooth projective curve.

Two independent routes to the same integer: a closed binomial sum, and the
coefficient extraction of an inverse total Chern series (the Segre series)
in the Chow ring of the d-th symmetric product.  The ring is generated by the
point-divisor class x and the theta-restriction class theta, with
x^i theta^j = 0 once i + j exceeds the symmetric-product dimension d or j
exceeds the genus g.  It is held in the divided-power basis
theta^[j] = theta^j / j! (ACGH, Geometry of Algebraic Curves I, ch. VIII), in
which the Chern series has integer coefficients, products obey
theta^[a] theta^[b] = C(a+b, a) theta^[a+b], and the top-degree evaluation is
the integer push-forward x^(d-j) theta^[j] |-> C(g, j).

Give the t^n coefficient of a series the degree n (deg t = -1).  The Chern
series is then homogeneous, and so is its inverse, so the t^n coefficient has
i + j = n and the cut i + j <= d removes nothing from rows n <= d; only j <= g
shortens a row.  A series is therefore a list of graded integer rows: entry j
of row n is the coefficient of x^(n-j) theta^[j], for j <= min(n, g).
"""

from __future__ import annotations

from math import comb

from .arith import binomial
from .errors import ParameterError, VerificationError
from .records import Record


class SecantParams(Record, fields="genus bundle_degree index"):
    """Genus g, line-bundle degree m, and secant index d.

    The twist by the canonical bundle has degree e = m + 2g - 2 and m + g - 1
    sections, so the curve sits in P^N with N = m + g - 2.  require_valid asks
    for m > 2 and 2d <= m + g - 1.  For 2d < m + g - 1 the secant variety
    Sigma_d has dimension 2d - 1 < N, and both routes give its degree.  At
    2d = m + g - 1, Sigma_d fills P^N, so its degree is 1; the number both
    routes give there counts the d-secant (d - 1)-planes through a general
    point of P^N (at d = 2, the (e - 1)(e - 2)/2 - g apparent double points).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.genus < 0:
            raise ParameterError(f"genus must be >= 0, got {self.genus}")
        if self.bundle_degree < 1:
            raise ParameterError(f"bundle degree must be >= 1, got {self.bundle_degree}")
        if self.index < 1:
            raise ParameterError(f"secant index must be >= 1, got {self.index}")
        return self

    @property
    def sections(self) -> int:
        """Rank m + g - 1 of the space of sections cutting out the embedding."""
        return self.bundle_degree + self.genus - 1

    @property
    def series_exponent(self) -> int:
        """The exponent A = m + g - 1 - d appearing in the Chern series (1+xt)^-A."""
        return self.sections - self.index

    def require_valid(self) -> None:
        if self.bundle_degree <= 2:
            raise ParameterError(f"bundle degree must exceed 2, got {self.bundle_degree}")
        if 2 * self.index > self.sections:
            raise ParameterError(
                f"need 2d <= m+g-1: d={self.index}, m+g-1={self.sections}"
            )


def degree_formula(genus: int, bundle_degree: int, index: int) -> int:
    """The raw closed sum for the secant degree, with no dimension-range check.

    Vanishing binomials make the sum evaluate to 0 beyond the range where the
    secant variety has the expected dimension; index 0 gives 1.
    """
    g, m, d = genus, bundle_degree, index
    if g < 0 or d < 0:
        raise ParameterError(f"need genus >= 0 and index >= 0, got {g}, {d}")
    return sum(binomial(m + g - 1 - d - a, d - a) * binomial(g, a) for a in range(min(d, g) + 1))


def chern_series(p: SecantParams) -> list[list[int]]:
    """Total Chern series (1+xt)^(-A) exp(-t theta / (1+xt)) of the dual secant bundle.

    With theta^k / k! written as theta^[k] the exponential becomes
    sum_k (-1)^k t^k theta^[k] (1+xt)^(-k), so the series is
    sum_k (-1)^k t^k theta^[k] (1+xt)^(-(A+k)); expanding each binomial, row n
    (the t^n coefficient) holds (-1)^n C(A+n-1, n-j) on x^(n-j) theta^[j].
    """
    p.require_valid()
    a, g = p.series_exponent, p.genus
    return [
        [(-1) ** n * comb(a + n - 1, n - j) for j in range(min(n, g) + 1)]
        for n in range(p.index + 1)
    ]


def _times(u: list[int], v: list[int], genus: int) -> list[int]:
    """Product of two graded rows, with theta^[a] theta^[b] = C(a+b, a) theta^[a+b]."""
    out = [0] * min(len(u) + len(v) - 1, genus + 1)
    for a, cu in enumerate(u):
        if cu:
            for b, cv in enumerate(v[: genus + 1 - a]):
                out[a + b] += cu * cv * comb(a + b, a)
    return out


def series_inverse(series: list[list[int]], genus: int) -> list[list[int]]:
    """Inverse of a graded series whose row 0 is [1], term by term on integers."""
    if series[0] != [1]:
        raise ParameterError("series inverse needs unit constant term")
    inv = [[1]]
    for k in range(1, len(series)):
        acc = [0] * (min(k, genus) + 1)  # minus the t^k coefficient of (series - 1) * inv
        for j in range(1, k + 1):
            for b, c in enumerate(_times(series[j], inv[k - j], genus)):
                acc[b] -= c
        inv.append(acc)
    return inv


def pushforward_degree(row: list[int], p: SecantParams) -> int:
    """Evaluate a degree-d row on the d-th symmetric product: x^(d-j) theta^[j] |-> C(g, j)."""
    return sum(c * comb(p.genus, j) for j, c in enumerate(row))


def degree_oracle(p: SecantParams) -> int:
    """Secant-variety degree via the Segre series, independent of the closed sum.

    Inverts the Chern series term by term, takes row d and pushes it forward.
    A negative push-forward means the series arithmetic is broken.
    """
    p.require_valid()
    value = pushforward_degree(series_inverse(chern_series(p), p.genus)[p.index], p)
    if value < 0:
        raise VerificationError(f"push-forward of the top Segre class is negative: {value}")
    return value
