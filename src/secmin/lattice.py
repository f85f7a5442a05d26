"""Desk-scale laboratory for small integer lattices given by Gram matrices.

One Bareiss pass per Gram matrix validates it and gives its determinant and
the pivots of exact successive minima by bounded enumeration, whose per-level
windows are exact integer square roots.  One exterior-product kernel, v ^ omega,
gives every other minor: Plucker coordinates, compounds C_p(G), and the integer
adjugate, read off C_(n-1)(G), that is det times the exact dual Gram.  It also
answers both rank questions: a minima witness is independent of those before it
when its wedge with theirs is nonzero, and a compound vector is decomposable when
the wedge of its Plucker-chart contractions is proportional to it.  On top
sit minimal primitive covolumes as the shortest decomposable compound-lattice
vectors and the dual's by duality, a two-sided transference check of minima
against dual sublattice heights, and grid avoidance of hypersurfaces.

Everything is exact except the final logarithms: squared minima are integers,
squared covolumes are rationals, and comparisons in tests can therefore be
made on the exact squares.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations, product

from .errors import ParameterError, ResourceLimitError, VerificationError
from .records import Record

MAX_RANK = 6
DEFAULT_BUDGET = 2_000_000
LOG_TOLERANCE = 1e-9


@functools.cache
def _faces(n: int, p: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """For each (p + 1)-subset T of range(n), in combinations order, one (i, sign, k) per i in T:
    sign is (-1)^(place of i in T) and k the position of T - {i} among the p-subsets."""
    position = {cols: k for k, cols in enumerate(combinations(range(n), p))}
    return tuple(
        tuple((i, (-1) ** t, position[wider[:t] + wider[t + 1 :]]) for t, i in enumerate(wider))
        for wider in combinations(range(n), p + 1)
    )


def _wedge(v, omega, n: int, p: int) -> list[int]:
    """v ^ omega for v in Z^n; omega's coordinates follow combinations(range(n), p), the
    result's follow combinations(range(n), p + 1)."""
    out = []
    for face in _faces(n, p):
        total = 0
        for i, s, k in face:
            total += s * v[i] * omega[k]
        out.append(total)
    return out


def _minors(rows, n: int) -> list[int]:
    """The p x p minors of the p rows of length n, one per column subset in combinations
    order: the coordinates of rows[0] ^ ... ^ rows[p - 1].  No rows give [1]."""
    omega = [1]
    for p, v in enumerate(reversed(rows)):
        omega = _wedge(v, omega, n, p)
    return omega


def _compound(gram, p: int) -> list[list[int]]:
    """The p-th compound C_p(G): entry (S, T) is the minor of G on rows S and columns T."""
    n = len(gram)
    return [_minors([gram[i] for i in rows], n) for rows in combinations(range(n), p)]


def _echelon(gram) -> tuple[tuple[int, ...], ...]:
    """Fraction-free upper-triangular form of a symmetric G: one Bareiss pass, no row swaps.

    Entry (k, j), j >= k, is the minor on rows 0..k and columns 0..k-1, j (Sylvester), so
    pivot k is the leading principal minor D_(k+1) and the last is det G.  G is positive
    definite iff every pivot is positive; the pass raises ParameterError at the first that
    is not.  Each step keeps the trailing block symmetric, so only its upper triangle moves.
    """
    n = len(gram)
    rows = [list(r) for r in gram]
    prev = 1
    for k in range(n):
        top = rows[k]
        pivot = top[k]
        if pivot <= 0:
            raise ParameterError(f"leading principal minor {k + 1} is {pivot}, not positive")
        for i in range(k + 1, n):
            row, a = rows[i], top[i]
            for j in range(i, n):
                row[j] = (row[j] * pivot - a * top[j]) // prev
        prev = pivot
    return tuple((0,) * i + tuple(row[i:]) for i, row in enumerate(rows))


class GramLattice(Record, fields="gram echelon"):
    """Full-rank integer lattice described by its positive-definite Gram matrix, a tuple of
    integer rows; echelon, its _echelon, is computed once by the validation and read by every
    enumeration on it and by det."""

    __slots__ = ()

    def __new__(cls, gram):
        n = len(gram)
        if n < 1 or n > MAX_RANK:
            raise ParameterError(f"rank must be in [1, {MAX_RANK}], got {n}")
        for row in gram:
            if len(row) != n or any(not isinstance(x, int) for x in row):
                raise ParameterError("Gram matrix must be square with integer entries")
        if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(i)):
            raise ParameterError("Gram matrix must be symmetric")
        return super().__new__(cls, gram, _echelon(gram))

    def __getnewargs__(self):  # a pickle or copy rebuilds the echelon through __new__
        return (self.gram,)

    @classmethod
    def from_rows(cls, rows: list[list[int]]) -> "GramLattice":
        return cls(tuple(map(tuple, rows)))

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def det(self) -> int:
        return self.echelon[-1][-1]

    def norm2(self, v: tuple[int, ...]) -> int:
        g = self.gram
        return sum(v[i] * g[i][j] * v[j] for i in range(self.rank) for j in range(self.rank))


class RationalGram(Record, fields="entries"):
    """Exact rational Gram matrix, rows of Fractions, used for dual lattices."""

    __slots__ = ()


class MinimaProfile(Record, fields="lattice sq_minima log_minima witnesses"):
    """Successive minima of a GramLattice with independent witnesses, norms in ascending order.

    sq_minima are the exact integer squared norms; log_minima their float
    half-logs.  The witnesses, integer coordinate tuples, realize the minima
    and are linearly independent, with ties broken by lexicographic
    coordinate order.
    """

    __slots__ = ()


class SublatticeHeightTable(Record, fields="lattice covol2 log_heights"):
    """Minimal squared covolumes (Fractions) of primitive rank-p sublattices, p = 1..rank, and
    their float half-logs."""

    __slots__ = ()


class TransferenceRow(Record, fields="p lower minima_sum upper printed_upper"):
    """One rank p of the two-sided minima/dual-height comparison.

    upper = constant + lower + log det is the provable bound; printed_upper
    omits the log det shift and is reported because it is the form the
    two-sided statement is usually quoted in (it is exact for det = 1 and
    falsifiable otherwise, e.g. on diag(3, 3)).  Every side is a float log.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return (
            self.lower <= self.minima_sum + LOG_TOLERANCE
            and self.minima_sum <= self.upper + LOG_TOLERANCE
        )

    @property
    def printed_ok(self) -> bool:
        return self.minima_sum <= self.printed_upper + LOG_TOLERANCE


class TransferenceReport(Record, fields="lattice constant rows"):
    """The transference constant of a GramLattice and one TransferenceRow per rank p."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    @property
    def printed_ok(self) -> bool:
        return all(r.printed_ok for r in self.rows)


def short_vectors(lam, bound2: int, budget: int = DEFAULT_BUDGET) -> list[tuple[int, tuple[int, ...]]]:
    """All nonzero v with v.G.v <= bound2, one of each +-pair, sorted by (norm^2, coords),
    for the positive-definite G whose Bareiss entries are lam = _echelon(G).

    Depth-first descent on integer Bareiss pivots, shared by every radius tried on G.
    With D_k its leading principal minors and lam[i][j] the Bareiss entries
    of row i (lam[i][i] = D_(i+1)),
        v.G.v = sum_i (D_(i+1) v_i + N_i)^2 / (D_i D_(i+1)),  N_i = sum_(j>i) lam[i][j] v_j,
    so with S = lcm(D_i D_(i+1)) and w_i = S / (D_i D_(i+1)) every term of
    S v.G.v is an integer.  The window at each level,
    |D_(i+1) v_i + N_i| <= isqrt(rem // w_i) for the remaining scaled norm
    rem, is exact, and the descent uses integers only.  It keeps the last
    nonzero coordinate positive and reports each vector with its first
    nonzero coordinate positive.  Raises when the step budget is exceeded.
    """
    n = len(lam)
    if bound2 < 0:
        return []
    minors = [1] + [lam[k][k] for k in range(n)]
    scale = math.lcm(*(minors[i] * minors[i + 1] for i in range(n)))
    weight = [scale // (minors[i] * minors[i + 1]) for i in range(n)]
    out: list[tuple[int, tuple[int, ...]]] = []
    coords = [0] * n
    steps = 0

    def descend(level: int, rem: int, signed: bool) -> None:
        # signed: a coordinate above this level is nonzero, so x may take either sign
        nonlocal steps
        row = lam[level]
        c = 0
        for j in range(level + 1, n):
            if coords[j]:
                c += row[j] * coords[j]
        d, w = minors[level + 1], weight[level]
        r = math.isqrt(rem // w)
        lo = -((r + c) // d) if signed else int(level == 0)
        hi = (r - c) // d
        if hi < lo:
            return
        steps += hi - lo + 1
        if steps > budget:
            raise ResourceLimitError(f"enumeration budget {budget} exceeded at radius^2 = {bound2}")
        if level == 0:
            tail = tuple(coords[1:])
            neg = tuple(-t for t in tail)
            for x in range(lo, hi + 1):
                y = d * x + c
                # neg > tail exactly when the first nonzero entry of tail is negative
                v = (-x,) + neg if x < 0 or (x == 0 and neg > tail) else (x,) + tail
                out.append((bound2 - (rem - w * y * y) // scale, v))
            return
        for x in range(lo, hi + 1):
            y = d * x + c
            coords[level] = x
            descend(level - 1, rem - w * y * y, signed or x != 0)
        coords[level] = 0

    descend(n - 1, scale * bound2, False)
    out.sort()
    return out


def successive_minima(lat: GramLattice, budget: int = DEFAULT_BUDGET) -> MinimaProfile:
    """Exact successive minima by exhaustive enumeration plus greedy witness selection.

    Greedy selection of independent vectors in (norm, lex) order realizes
    every minimum exactly, and it picks the same vectors from any sorted
    prefix that holds rank-many independent ones.  A vector v is independent
    of the chosen ones when v ^ omega, omega the wedge of theirs, is nonzero;
    v ^ omega is then the next omega.  The radius^2 starts at the smallest
    Gram diagonal entry and doubles until such a prefix appears, capped at
    the largest diagonal entry, where the basis itself supplies them.
    """
    n = lat.rank
    diagonal = [lat.gram[i][i] for i in range(n)]
    bound2, cap = min(diagonal), max(diagonal)
    while True:
        chosen: list[tuple[int, tuple[int, ...]]] = []
        omega = [1]  # the wedge of the chosen witnesses
        for q2, v in short_vectors(lat.echelon, bound2, budget):
            wider = _wedge(v, omega, n, len(chosen))
            if any(wider):
                omega = wider
                chosen.append((q2, v))
                if len(chosen) == n:
                    break
        if len(chosen) == n or bound2 == cap:
            break
        bound2 = min(2 * bound2, cap)
    if len(chosen) < n:
        raise VerificationError(f"radius^2 {bound2} missed independent vectors, rank {n}")
    sq = tuple(q2 for q2, _ in chosen)
    return MinimaProfile(lat, sq, tuple(0.5 * math.log(q) for q in sq), tuple(v for _, v in chosen))


def _adjugate(rows: list[list[int]]) -> list[list[int]]:
    """Integer adjugate of G: adj[i][j] is the (j, i) cofactor, read off C_(n-1)(G), whose
    k-th row and column subsets omit n - 1 - k."""
    n = len(rows)
    c = _compound(rows, n - 1)
    return [[(-1) ** (i + j) * c[n - 1 - j][n - 1 - i] for j in range(n)] for i in range(n)]


def _adjugate_lattice(lat: GramLattice) -> GramLattice:
    """The dual rescaled by det: the integer adjugate Gram, with the dual's geometry.

    Checks G . adj(G) == det(G) . I exactly before returning it.
    """
    rows = [list(r) for r in lat.gram]
    adj = _adjugate(rows)
    n, det = lat.rank, lat.det
    for i in range(n):
        for j in range(n):
            if sum(rows[i][k] * adj[k][j] for k in range(n)) != (det if i == j else 0):
                raise VerificationError(f"G . adj(G) != det(G) . I for {rows}")
    return GramLattice.from_rows(adj)


def dual_lattice(lat: GramLattice) -> RationalGram:
    """Gram matrix of the metric dual in the dual basis: the exact inverse adj(G) / det(G)."""
    from fractions import Fraction  # loaded only by the commands that build one
    det = lat.det
    return RationalGram(tuple(tuple(Fraction(a, det) for a in row) for row in _adjugate_lattice(lat).gram))


def _decomposable(omega, n: int, p: int) -> bool:
    """Whether the nonzero omega, coordinates in combinations(range(n), p) order, is a wedge of
    p vectors, by the Plucker chart at its first nonzero coordinate omega_T.  The contractions
    of omega by T - {i}, i in T, are +-omega_T e_i on the columns T, so their wedge u has
    u_T = +-omega_T^p.  They lie in the span of any p vectors whose wedge is omega, and then
    u = +-omega_T^(p - 1) omega; conversely omega proportional to u is a multiple of a wedge."""
    faces = _faces(n, p - 1)
    t = next(t for t, x in enumerate(omega) if x)
    rows = {k: [0] * n for _, _, k in faces[t]}
    for face, x in zip(faces, omega):
        if x:
            for i, s, k in face:
                if k in rows:
                    rows[k][i] = s * x
    u = _minors(list(rows.values()), n)
    return all(a * omega[t] == x * u[t] for a, x in zip(u, omega))


def _min_primitive_covol2(lat: GramLattice, p: int, minima: MinimaProfile, budget: int) -> int:
    """Minimal squared covolume over primitive rank-p sublattices, by the compound lattice.

    A basis M of a rank-p sublattice has Plucker coordinates omega (its p x p
    minors), and det(M G M^T) = omega . C_p(G) . omega by Cauchy-Binet, with
    C_p(G) the p-th compound of G; the sublattice is saturated exactly when
    gcd(omega) = 1.  So the answer is the first decomposable vector in
    (norm, coords) order of the compound lattice, inside the squared norm U of
    the saturated span of the first p minima witnesses; _decomposable decides
    each by the Plucker chart, with the wedge kernel.  A decomposable k.omega
    with k > 1 comes after omega, so no gcd filter is needed.  For p = n - 1
    every nonzero vector is decomposable, so the first one is the answer.
    """
    n = lat.rank
    omega = _minors(minima.witnesses[:p], n)
    g = math.gcd(*omega)
    if g == 0:
        raise VerificationError(f"the first {p} minima witnesses of {lat.gram} are dependent")
    omega = [x // g for x in omega]
    compound = _compound(lat.gram, p)
    u = sum(a * c * b for a, row in zip(omega, compound) for c, b in zip(row, omega))
    for q2, w in short_vectors(_echelon(compound), u, budget):
        if p == n - 1 or _decomposable(w, n, p):
            return q2
    raise VerificationError(f"no decomposable vector of C_{p}({lat.gram}) within its witnesses' norm {u}")


def _min_covol2(minima: MinimaProfile, budget: int) -> list[int]:
    """The integer core of the heights: minimal squared covolumes of primitive rank-p sublattices
    of minima.lattice, p = 1..rank.  p = 1 is the shortest vector, p = rank the determinant;
    intermediate ranks take the shortest decomposable vector of the p-th compound lattice."""
    lat = minima.lattice
    n = lat.rank
    return [
        minima.sq_minima[0] if p == 1 else lat.det if p == n else _min_primitive_covol2(lat, p, minima, budget)
        for p in range(1, n + 1)
    ]


def _dual_covol2(minima: MinimaProfile, budget: int) -> tuple[list[tuple[int, int]], tuple[float, ...]]:
    """The dual's minimal squared covolumes as reduced (num, den) int pairs, and their half-logs.
    M -> M^perp maps primitive rank-(n - p) sublattices of L onto primitive rank-p ones of the
    dual with covol(M^perp) = covol(M) / covol(L) (Cassels, ch. VIII), so dual covol2_p is the
    primal core's covol2_(n - p) / det, with covol2_0 = 1."""
    det = minima.lattice.det
    pairs = []
    for c in reversed([1, *_min_covol2(minima, budget)[:-1]]):
        g = math.gcd(c, det)
        pairs.append((c // g, det // g))
    return pairs, tuple(0.5 * (math.log(a) - math.log(b)) for a, b in pairs)


def sublattice_heights(lat: GramLattice, budget: int = DEFAULT_BUDGET) -> SublatticeHeightTable:
    """Minimal log-covolumes of primitive sublattices of every rank p: the integer core,
    _min_covol2, as Fractions, and their half-logs."""
    covol2 = _min_covol2(successive_minima(lat, budget), budget)
    from fractions import Fraction
    return SublatticeHeightTable(lat, tuple(map(Fraction, covol2)), tuple(0.5 * math.log(c) for c in covol2))


def verify_transference(lat: GramLattice, budget: int = DEFAULT_BUDGET) -> TransferenceReport:
    """Two-sided comparison of minima partial sums with dual sublattice heights.

    For each p in [1, rank], checks
        ell_(rank-p)(dual) <= sum_(j<=p) lambda_j
                           <= C(rank-1, K) + ell_(rank-p)(dual) + log det,
    over the rationals, with the rank-0 dual height equal to 0.  Both sides are
    theorems for every GramLattice: the lower by covolume duality plus Hadamard
    on the minima witnesses.  For the upper, C(n-1, Q) = log(2^n / V_(n-1)),
    n = rank, V_k the unit k-ball's volume.  At p < n, Minkowski II on the
    primal primitive rank-p sublattice M orthogonal to the dual's minimizer
    (log covol M = dual height + log det / 2, lambda_j(L) <= lambda_j(M)), with
    2^p / V_p <= 2^n / V_(n-1) and det >= 1.  At p = n, Minkowski on L needs
    V_(n-1) / V_n <= sqrt(det): V_(n-1) <= V_n up to n = 5; V_5 / V_6 = 1.0186
    needs det >= 2, and det = 1 means Z^6, minima sum 0.  A violation raises,
    signalling an implementation bug.  The log-det-free printed form of the
    upper bound is reported per row but not enforced; it fails on lattices as
    small as diag(3, 3).  The minima are enumerated once, and the dual heights
    are half-logs of _dual_covol2's pairs, so the check builds no Fraction.
    """
    # imported here, so that the lattice commands that skip this check do not load bounds
    from .bounds import RATIONAL_FIELD, transference_constant
    n = lat.rank
    minima = successive_minima(lat, budget)
    _, d_heights = _dual_covol2(minima, budget)
    constant = transference_constant(n - 1, RATIONAL_FIELD)
    log_det = math.log(lat.det)
    rows = []
    minima_sum = 0.0
    for p in range(1, n + 1):
        minima_sum += minima.log_minima[p - 1]
        lower = 0.0 if p == n else d_heights[n - p - 1]
        rows.append(TransferenceRow(p, lower, minima_sum, constant + lower + log_det, constant + lower))
    report = TransferenceReport(lat, constant, tuple(rows))
    if not report.ok:
        bad = next(r for r in report.rows if not r.ok)
        raise VerificationError(
            f"transference inequality fails at p={bad.p}: "
            f"{bad.lower} <= {bad.minima_sum} <= {bad.upper}"
        )
    return report


class HomogeneousForm(Record, fields="num_vars degree terms"):
    """Integer homogeneous polynomial, stored as sorted (exponents, coeff) pairs."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if any(not isinstance(x, int) or x < 1 for x in (self.num_vars, self.degree)):
            raise ParameterError("need at least one variable and degree >= 1, both integers")
        if not self.terms:
            raise ParameterError("a form needs at least one nonzero coefficient")
        for exps, coeff in self.terms:
            if len(exps) != self.num_vars or any(not isinstance(e, int) or e < 0 for e in exps):
                raise ParameterError(f"bad exponent vector {exps}")
            if sum(exps) != self.degree:
                raise ParameterError(f"term {exps} has degree {sum(exps)}, form has {self.degree}")
            if not isinstance(coeff, int) or coeff == 0:
                raise ParameterError(f"coefficient {coeff!r} is not a nonzero integer")
        return self

    @classmethod
    def from_terms(cls, num_vars: int, terms: dict[tuple[int, ...], int]) -> "HomogeneousForm":
        cleaned = {tuple(e): c for e, c in terms.items() if c}
        if not cleaned:
            raise ParameterError("a form needs at least one nonzero coefficient")
        degree = sum(next(iter(cleaned)))
        return cls(num_vars, degree, tuple(sorted(cleaned.items())))


def evaluate_form(f: HomogeneousForm, v: tuple[int, ...] | list[int]) -> int:
    """Exact integer evaluation of the form at an integer point."""
    if len(v) != f.num_vars:
        raise ParameterError(f"point has {len(v)} coordinates, form has {f.num_vars} variables")
    total = 0
    for exps, coeff in f.terms:
        term = coeff
        for x, e in zip(v, exps):
            if e:
                term *= x**e
        total += term
    return total


class AvoidanceResult(Record, fields="grid_vector lattice_vector value log_norm log_bound within_bound"):
    """The first grid point off a hypersurface, its lattice vector and form value, and the norm test."""
    __slots__ = ()


def avoid_hypersurface(f: HomogeneousForm, minima: MinimaProfile) -> AvoidanceResult:
    """First grid combination of the minima witnesses off the hypersurface f = 0.

    Scans coefficients 0..degree in lexicographic order; a nonzero form of
    degree D cannot vanish on the whole grid (the tensor-Vandermonde
    determinant of the grid evaluations is nonzero), so exhaustion raises.
    Also checks |v| <= lambda_max * D * num_vars in the lattice metric, as the
    exact integer test q2(v) <= lambda_max^2 (D * num_vars)^2; the reported
    log_norm and log_bound are its float logarithms.
    """
    rank = minima.lattice.rank
    if f.num_vars != rank:
        raise ParameterError(f"form has {f.num_vars} variables, lattice rank is {rank}")
    d = f.degree
    grid_size = (d + 1) ** rank
    if grid_size > 100_000:
        raise ResourceLimitError(f"grid of size {grid_size} exceeds the search budget")
    for grid in product(range(d + 1), repeat=rank):
        value = evaluate_form(f, grid)
        if value != 0:
            vec = tuple(
                sum(grid[i] * minima.witnesses[i][j] for i in range(rank)) for j in range(rank)
            )
            q2 = minima.lattice.norm2(vec)
            return AvoidanceResult(
                grid,
                vec,
                value,
                0.5 * math.log(q2),
                minima.log_minima[-1] + math.log(d * rank),
                q2 <= minima.sq_minima[-1] * (d * rank) ** 2,
            )
    raise VerificationError("nonzero form vanished on the whole grid; impossible")


def _content_lines(text: str, what: str) -> list[str]:
    """The stripped lines of text that are neither blank nor '#' comments; none raises."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise ParameterError(f"empty {what} file")
    return lines


def read_gram(text: str) -> GramLattice:
    """Parse a Gram matrix: first line the rank, then rank rows of rank integers.

    Blank lines and lines starting with '#' are ignored.
    """
    lines = _content_lines(text, "Gram")
    try:
        rank = int(lines[0])
        rows = [[int(x) for x in ln.split()] for ln in lines[1:]]
    except ValueError as exc:
        raise ParameterError(f"malformed Gram file: {exc}") from exc
    if len(rows) != rank or any(len(r) != rank for r in rows):
        raise ParameterError(f"expected {rank} rows of {rank} integers")
    return GramLattice.from_rows(rows)


def read_form(text: str) -> HomogeneousForm:
    """Parse a form, one 'coeff e1 e2 ... ek' term per line; '#' comments allowed."""
    terms: dict[tuple[int, ...], int] = {}
    num_vars = None
    for ln in _content_lines(text, "form"):
        try:
            parts = [int(x) for x in ln.split()]
        except ValueError as exc:
            raise ParameterError(f"malformed form line {ln!r}") from exc
        if len(parts) < 2:
            raise ParameterError(f"form line {ln!r} needs a coefficient and exponents")
        coeff, exps = parts[0], tuple(parts[1:])
        if num_vars is None:
            num_vars = len(exps)
        elif len(exps) != num_vars:
            raise ParameterError("inconsistent variable counts across form lines")
        terms[exps] = terms.get(exps, 0) + coeff
    return HomogeneousForm.from_terms(num_vars, terms)
