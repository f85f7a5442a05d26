"""Degrees of secant varieties of an embedded smooth projective curve.

Two independent routes to the same integer: a closed binomial sum, and the
coefficient extraction of an inverse total Chern series (the Segre series)
in a truncated Chow ring of the d-th symmetric product.  The ring is generated
by the point-divisor class x and the theta-restriction class theta, with
x^i theta^j = 0 once i + j exceeds the symmetric-product dimension or j
exceeds the genus.  It is held in the divided-power basis
theta^[j] = theta^j / j! (ACGH, Geometry of Algebraic Curves I, ch. VIII), in
which the Chern series has integer coefficients, products obey
theta^[a] theta^[b] = C(a+b, a) theta^[a+b], and the top-degree evaluation is
the integer push-forward x^(d-a) theta^[a] |-> C(g, a); all arithmetic is on
integers.

Everything here is pure and immutable; parameter sweeps parallelize trivially.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .arith import binomial
from .errors import ParameterError, VerificationError


class _SecantFields(NamedTuple):
    genus: int
    bundle_degree: int
    index: int


class SecantParams(_SecantFields):
    """Genus g, line-bundle degree m, and secant index d.

    The embedding uses the m + 2g - 2 sections of the twist by the canonical
    bundle, so the ambient projective space has dimension m + g - 2.  The
    closed degree formula applies when 2d <= m + g - 1 (the secant variety
    then has dimension 2d - 1) and m > 2.
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


class Truncation(NamedTuple):
    """Monomials x^i theta^j survive only when i + j <= total_degree and j <= theta_cap."""

    total_degree: int
    theta_cap: int


class ChowElement:
    """Integer polynomial in x and the divided powers theta^[j] modulo the truncation relations."""

    __slots__ = ("trunc", "coeffs")

    def __init__(self, trunc: Truncation, coeffs: dict[tuple[int, int], int] | None = None):
        self.trunc = trunc
        top, cap = trunc.total_degree, trunc.theta_cap
        self.coeffs = {
            (i, j): c for (i, j), c in (coeffs or {}).items() if c and j <= cap and i + j <= top
        }

    @classmethod
    def zero(cls, trunc: Truncation) -> "ChowElement":
        return cls(trunc)

    @classmethod
    def unit(cls, trunc: Truncation) -> "ChowElement":
        return cls(trunc, {(0, 0): 1})

    def coefficient(self, i: int, j: int) -> int:
        return self.coeffs.get((i, j), 0)

    @property
    def is_unit(self) -> bool:
        return self.coeffs == {(0, 0): 1}

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "ChowElement") -> "ChowElement":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return ChowElement(self.trunc, out)

    def __mul__(self, other: "ChowElement") -> "ChowElement":
        """Termwise product with theta^[a] theta^[b] = C(a+b, a) theta^[a+b]."""
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2 * comb(key[1], j1)
        return ChowElement(self.trunc, out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ChowElement) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for (i, j), c in sorted(self.coeffs.items()):
            mono = "".join(filter(None, [f"x^{i}" if i else "", f"th^[{j}]" if j else ""])) or "1"
            parts.append(f"{c}*{mono}")
        return " + ".join(parts)


class ChowSeries:
    """Power series in t with ChowElement coefficients, truncated after t^total_degree."""

    __slots__ = ("trunc", "terms")

    def __init__(self, trunc: Truncation, terms: list[ChowElement]):
        top = trunc.total_degree
        padded = list(terms[: top + 1])
        while len(padded) <= top:
            padded.append(ChowElement.zero(trunc))
        self.trunc = trunc
        self.terms = tuple(padded)

    @classmethod
    def unit(cls, trunc: Truncation) -> "ChowSeries":
        return cls(trunc, [ChowElement.unit(trunc)])

    def coefficient(self, k: int) -> ChowElement:
        return self.terms[k]

    def __mul__(self, other: "ChowSeries") -> "ChowSeries":
        top = self.trunc.total_degree
        out = [ChowElement.zero(self.trunc) for _ in range(top + 1)]
        for a, ca in enumerate(self.terms):
            if ca.is_zero:
                continue
            for b in range(top + 1 - a):
                cb = other.terms[b]
                if not cb.is_zero:
                    out[a + b] = out[a + b] + ca * cb
        return ChowSeries(self.trunc, out)

    def inverse(self) -> "ChowSeries":
        """Truncated multiplicative inverse; the constant term must be the ring unit."""
        if not self.terms[0].is_unit:
            raise ParameterError("series inverse needs unit constant term")
        top = self.trunc.total_degree
        inv = [ChowElement.unit(self.trunc)]
        for k in range(1, top + 1):
            acc: dict[tuple[int, int], int] = {}  # minus the t^k coefficient of (self - 1) * inv
            for j in range(1, k + 1):
                cj = self.terms[j]
                if not cj.is_zero:
                    for key, c in (cj * inv[k - j]).coeffs.items():
                        acc[key] = acc.get(key, 0) - c
            inv.append(ChowElement(self.trunc, acc))
        return ChowSeries(self.trunc, inv)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ChowSeries) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __repr__(self) -> str:
        return " , ".join(f"t^{k}: {e!r}" for k, e in enumerate(self.terms))


def degree_formula(genus: int, bundle_degree: int, index: int) -> int:
    """The raw closed sum for the secant degree, with no dimension-range check.

    Vanishing binomials make the sum evaluate to 0 beyond the range where the
    secant variety has the expected dimension; index 0 gives 1.
    """
    g, m, d = genus, bundle_degree, index
    if g < 0 or d < 0:
        raise ParameterError(f"need genus >= 0 and index >= 0, got {g}, {d}")
    return sum(binomial(m + g - 1 - d - a, d - a) * binomial(g, a) for a in range(min(d, g) + 1))


def chern_series(p: SecantParams, trunc: Truncation | None = None) -> ChowSeries:
    """Total Chern series (1+xt)^(-A) exp(-t theta / (1+xt)) of the dual secant bundle.

    With theta^k / k! written as theta^[k] the exponential becomes
    sum_k (-1)^k t^k theta^[k] (1+xt)^(-k), so the series is
    sum_k (-1)^k t^k theta^[k] (1+xt)^(-(A+k)); expanding each binomial, the
    t^n coefficient is (-1)^n C(A+n-1, i) on x^i theta^[n-i], an integer.
    """
    p.require_valid()
    if trunc is None:
        trunc = Truncation(p.index, p.genus)
    a = p.series_exponent
    terms = [
        ChowElement(trunc, {(n - k, k): (-1) ** n * comb(a + n - 1, n - k) for k in range(n + 1)})
        for n in range(trunc.total_degree + 1)
    ]
    return ChowSeries(trunc, terms)


def pushforward_degree(e: ChowElement, p: SecantParams) -> int:
    """Evaluate a Chow element on the d-th symmetric product.

    Monomials x^i theta^[j] with i + j = d contribute coeff * C(g, j);
    all others push forward to zero.
    """
    d, g = p.index, p.genus
    return sum(c * comb(g, j) for (i, j), c in e.coeffs.items() if i + j == d)


def degree_oracle(p: SecantParams, pad: int = 0) -> int:
    """Secant-variety degree via the Segre series, independent of the closed sum.

    Inverts the Chern series term by term, extracts the t^d coefficient, and
    pushes it forward; pad widens the truncation to exercise soundness.  A
    push-forward that is not a nonnegative integer means the series arithmetic
    is broken.
    """
    p.require_valid()
    if pad < 0:
        raise ParameterError(f"pad must be >= 0, got {pad}")
    trunc = Truncation(p.index + pad, p.genus)
    s = chern_series(p, trunc).inverse()
    value = pushforward_degree(s.coefficient(p.index), p)
    if not isinstance(value, int) or value < 0:
        raise VerificationError(
            f"push-forward of the top Segre class is not a nonnegative integer: {value}"
        )
    return value
