"""Lattice-lab tests with independent box-enumeration oracles."""

import math
import random
import time
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from secmin.bounds import ball_volume_log
from secmin import lattice, suite
from secmin.errors import ParameterError, ResourceLimitError, VerificationError
from secmin.lattice import (
    GramLattice,
    HomogeneousForm,
    avoid_hypersurface,
    dual_lattice,
    evaluate_form,
    read_form,
    read_gram,
    short_vectors,
    sublattice_heights,
    successive_minima,
    verify_transference,
)

DATA = Path(__file__).parent / "data"
IDENTITY2 = GramLattice.from_rows([[1, 0], [0, 1]])
HEXAGONAL = GramLattice.from_rows([[2, 1], [1, 2]])
DIAG14 = GramLattice.from_rows([[1, 0], [0, 4]])
SKEWED4 = GramLattice.from_rows([[10, 1, -9, 3], [1, 9, -4, -6], [-9, -4, 10, -3], [3, -6, -3, 13]])


def frac_matrix(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def fraction_inverse(entries):
    """Test oracle: Gauss-Jordan inverse over Fraction."""
    n = len(entries)
    aug = [
        [Fraction(entries[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def box_half_widths(lat: GramLattice, bound2: int):
    """|v_i| <= sqrt(bound2 * (G^-1)_ii) on the ball v.G.v <= bound2 (Cauchy-Schwarz)."""
    inv = fraction_inverse(lat.gram)
    return [math.isqrt(int(bound2 * inv[i][i])) + 1 for i in range(lat.rank)]


def box_vectors(lat: GramLattice, bound2: int):
    """Test oracle: brute box scan, no recursive pruning, one of each +- pair."""
    half = box_half_widths(lat, bound2)
    out = []
    for v in product(*[range(-h, h + 1) for h in half]):
        if not any(v):
            continue
        first = next(c for c in v if c)
        if first < 0:
            continue
        q2 = lat.norm2(v)
        if q2 <= bound2:
            out.append((q2, v))
    out.sort()
    return out


def brute_minima(lat: GramLattice, bound2=None):
    """Test oracle: greedy independent selection from a box enumeration."""
    if bound2 is None:
        bound2 = max(lat.gram[i][i] for i in range(lat.rank))
    vecs = box_vectors(lat, bound2)
    chosen = []
    basis = []
    for q2, v in vecs:
        cand = basis + [list(map(Fraction, v))]
        if matrix_rank(cand) == len(cand):
            basis = cand
            chosen.append(q2)
            if len(chosen) == lat.rank:
                break
    return tuple(chosen)


def matrix_rank(rows):
    m = [row[:] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] / pv
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def oracle_extends_rank(rows: list[list[int]], v) -> bool:
    """Test oracle: fraction-free echelon update; appends the reduced row when v is
    independent of rows."""
    work = list(v)
    for row in rows:
        pivot = 0
        while not row[pivot]:
            pivot += 1
        if work[pivot]:
            a, b = row[pivot], work[pivot]
            work = [a * w - b * r for w, r in zip(work, row)]
    if any(work):
        g = math.gcd(*work)
        rows.append([w // g for w in work])
        return True
    return False


def oracle_wedge_rank(omega, n: int, p: int) -> int:
    """Test oracle: rank of v -> v ^ omega on Z^n; omega's coordinates follow
    combinations(range(n), p).  For nonzero omega the kernel has dimension at most p, with
    equality exactly when omega is decomposable, so then the rank is n - p."""
    rows: list[list[int]] = []
    images = (lattice._wedge([int(i == j) for j in range(n)], omega, n, p) for i in range(n))
    return sum(oracle_extends_rank(rows, image) for image in images)


def oracle_greedy_witnesses(lat: GramLattice, bound2: int):
    """Test oracle: the first rank-many vectors of short_vectors(lat.echelon, bound2), in its (norm, coords)
    order, that are independent of those taken before, with their squared norms."""
    rows: list[list[int]] = []
    chosen = [(q2, v) for q2, v in short_vectors(lat.echelon, bound2) if oracle_extends_rank(rows, v)]
    return chosen[: lat.rank]


def cartan(n: int, edges) -> GramLattice:
    """The Cartan matrix of a simply laced Dynkin diagram: 2 on the diagonal, -1 on each edge."""
    rows = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in edges:
        rows[i][j] = rows[j][i] = -1
    return GramLattice.from_rows(rows)


ROOT_LATTICES = {
    **{f"A{n}": cartan(n, [(i, i + 1) for i in range(n - 1)]) for n in range(2, 7)},
    "D4": cartan(4, [(0, 1), (1, 2), (1, 3)]),
    "E6": cartan(6, [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]),
}


def pair(lat: GramLattice, v, w) -> int:
    g = lat.gram
    return sum(v[i] * g[i][j] * w[j] for i in range(lat.rank) for j in range(lat.rank))


def brute_min_covol2(lat: GramLattice, p: int):
    """Test oracle: minimal saturated covolume^2 over p-subsets of a box ball.

    The radius is sound on its own terms: the minimizer's covolume^2 is at
    most the best principal 2x2 minor u2, and by Minkowski's second theorem
    both of its minima realizers have squared norm at most (4/B_2)^2 u2.
    """
    assert p == 2
    n = lat.rank
    u2 = min(
        lat.gram[i][i] * lat.gram[j][j] - lat.gram[i][j] ** 2
        for i in range(n)
        for j in range(i + 1, n)
    )
    bound2 = math.ceil((16 / math.pi**2) * u2) + 1
    vecs = box_vectors(lat, bound2)
    best = None
    for subset in combinations([v for _, v in vecs], p):
        gram = [[pair(lat, a, b) for b in subset] for a in subset]
        d = int_det(gram)
        if d == 0:
            continue
        idx = 0
        for cols in combinations(range(lat.rank), p):
            idx = math.gcd(idx, int_det([[v[c] for c in cols] for v in subset]))
        c2 = Fraction(d, idx * idx)
        if best is None or c2 < best:
            best = c2
    return best


def saturated_covol2(lat: GramLattice, subset):
    """Test oracle: squared covolume of the saturation of the span of the given vectors.

    det(M G M^T) over the squared index of the span inside its saturation,
    the index being the gcd of the maximal minors of the coordinate matrix.
    None when the vectors are dependent.
    """
    p = len(subset)
    d = int_det([[pair(lat, a, b) for b in subset] for a in subset])
    if d == 0:
        return None
    idx = 0
    for cols in combinations(range(lat.rank), p):
        idx = math.gcd(idx, int_det([[v[c] for c in cols] for v in subset]))
    return Fraction(d, idx * idx)


def subset_search_covol2(lat: GramLattice, p: int):
    """Test oracle: least saturated covolume^2 over independent p-subsets of a Minkowski ball.

    Start from the saturation of the first p minima witnesses (squared
    covolume U).  Any sublattice at least as good has p independent vectors
    of squared-norm product at most (2^p/B_p)^2 U (Minkowski's second theorem
    on the sublattice, with all minima >= the lattice's first minimum), hence
    its last one inside radius^2 (2^p/B_p)^2 U / lambda_1^(2(p-1)); the
    p-subsets of that ball, pruned by the same product bound, reach every
    candidate.
    """
    minima = successive_minima(lat)
    best = saturated_covol2(lat, minima.witnesses[:p])
    factor2 = (4.0**p) * math.exp(-2 * ball_volume_log(p))
    r2 = math.ceil(factor2 * best / minima.sq_minima[0] ** (p - 1) * (1 + 1e-6))
    vecs = short_vectors(lat.echelon, r2)

    def choose(start, chosen, prod):
        nonlocal best
        if len(chosen) == p:
            cv = saturated_covol2(lat, chosen)
            if cv is not None and cv < best:
                best = cv
            return
        for i in range(start, len(vecs)):
            q2, v = vecs[i]
            if prod * q2 > factor2 * float(best) * (1 + 1e-6):
                return  # norms ascend, so later choices only grow
            choose(i + 1, chosen + [v], prod * q2)

    choose(0, [], 1.0)
    return best


def int_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * int_det(minor)
    return total


def cofactor_adjugate(rows):
    """Test oracle, the former adjugate: adj[i][j] is the (j, i) cofactor."""
    n = len(rows)
    return [
        [
            (-1) ** (i + j) * int_det([r[:i] + r[i + 1 :] for k, r in enumerate(rows) if k != j])
            for j in range(n)
        ]
        for i in range(n)
    ]


def symmetric_matrices(rank, spread):
    """Hypothesis strategy: symmetric integer matrices with |entries| <= spread, definite or not."""
    upper = st.lists(st.integers(-spread, spread), min_size=rank * (rank + 1) // 2, max_size=rank * (rank + 1) // 2)

    def fill(entries):
        it = iter(entries)
        rows = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i, rank):
                rows[i][j] = rows[j][i] = next(it)
        return rows

    return upper.map(fill)


def random_pd_gram(rng, rank, spread=2):
    while True:
        a = [[rng.randint(-spread, spread) for _ in range(rank)] for _ in range(rank)]
        g = [[sum(a[r][i] * a[r][j] for r in range(rank)) for j in range(rank)] for i in range(rank)]
        try:
            return GramLattice.from_rows(g)
        except ParameterError:
            continue


def test_suite_random_gram_matches_the_redraw_loop():
    # suite.random_gram tests det(A) before building A^T A; random_pd_gram redraws
    # on the ParameterError of a singular one.  Same RNG stream, same Grams.
    cases = [(suite.SEED_GRAM, [2 + i % 2 for i in range(40)], 2)]  # the quick transference draws
    cases += [(seed, [rank] * 30, spread) for seed in (1, 2) for rank in (1, 2, 3, 4) for spread in (1, 2, 3)]
    for seed, ranks, spread in cases:
        ours, oracle = random.Random(seed), random.Random(seed)
        for rank in ranks:
            assert suite.random_gram(ours, rank, spread) == random_pd_gram(oracle, rank, spread)
        assert ours.getstate() == oracle.getstate()


def gram_lattices(rank, spread):
    """Hypothesis strategy: Grams A^T A of nonsingular integer A with |a_ij| <= spread."""
    rows = st.lists(st.integers(-spread, spread), min_size=rank, max_size=rank)
    mats = st.lists(rows, min_size=rank, max_size=rank).filter(lambda a: int_det(a) != 0)
    return mats.map(
        lambda a: GramLattice.from_rows(
            [[sum(a[r][i] * a[r][j] for r in range(rank)) for j in range(rank)] for i in range(rank)]
        )
    )


class TestShortVectors:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_against_box_oracle(self, data):
        # entries up to 4 * 4^2, beyond suite.random_gram's 4 * 2^2; same list, same order
        rank = data.draw(st.integers(min_value=1, max_value=4))
        lat = data.draw(gram_lattices(rank, spread=4))
        bound2 = data.draw(st.integers(min_value=0, max_value=40))
        assume(math.prod(2 * h + 1 for h in box_half_widths(lat, bound2)) <= 200_000)
        assert short_vectors(lat.echelon, bound2) == box_vectors(lat, bound2)

    def test_examples(self):
        assert short_vectors(HEXAGONAL.echelon, 2) == [(2, (0, 1)), (2, (1, -1)), (2, (1, 0))]
        assert short_vectors(DIAG14.echelon, 4) == [(1, (1, 0)), (4, (0, 1)), (4, (2, 0))]
        assert short_vectors(IDENTITY2.echelon, 0) == short_vectors(IDENTITY2.echelon, -1) == []
        assert short_vectors(GramLattice(((7,),)).echelon, 63) == [(7, (1,)), (28, (2,)), (63, (3,))]

    def test_results_are_integers(self):
        for q2, v in short_vectors(SKEWED4.echelon, 30):
            assert type(q2) is int and all(type(x) is int for x in v)
            assert SKEWED4.norm2(v) == q2

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            short_vectors(IDENTITY2.echelon, 10**6, budget=1000)


class TestGramLattice:
    def test_validation(self):
        with pytest.raises(ParameterError):
            GramLattice.from_rows([[1, 2], [3, 1]])  # not symmetric
        with pytest.raises(ParameterError):
            GramLattice.from_rows([[1, 2], [2, 1]])  # det -3
        with pytest.raises(ParameterError):
            GramLattice.from_rows([[0, 0], [0, 1]])
        with pytest.raises(ParameterError):
            GramLattice.from_rows([[1 if i == j else 0 for j in range(7)] for i in range(7)])

    def test_det(self):
        assert HEXAGONAL.det == 3
        assert DIAG14.det == 4
        assert GramLattice.from_rows([[2, 0, 1], [0, 3, 0], [1, 0, 2]]).det == 9

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_det_matches_bareiss_and_cofactors(self, data):
        rank = data.draw(st.integers(min_value=1, max_value=6))
        lat = data.draw(gram_lattices(rank, spread=3))
        assert lat.det == int_det(lat.gram)


    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_one_pass_matches_leading_minors(self, data):
        # the echelon against one determinant per minor, and the first
        # nonpositive leading minor named exactly on indefinite input
        rank = data.draw(st.integers(min_value=1, max_value=6))
        if data.draw(st.booleans()):
            rows = [list(r) for r in data.draw(gram_lattices(rank, spread=3)).gram]
        else:
            rows = data.draw(symmetric_matrices(rank, spread=data.draw(st.sampled_from([2, 9]))))
        minors = [int_det([r[:k] for r in rows[:k]]) for k in range(1, rank + 1)]
        bad = next(((k, d) for k, d in enumerate(minors, start=1) if d <= 0), None)
        if bad is not None:
            with pytest.raises(ParameterError, match=rf"^leading principal minor {bad[0]} is {bad[1]}, not positive$"):
                GramLattice.from_rows(rows)
            return
        lat = GramLattice.from_rows(rows)
        assert lat.det == minors[-1]
        for k in range(rank):
            for j in range(rank):
                # entry (k, j) is the minor on rows 0..k and columns 0..k-1, j; zero below the diagonal
                want = int_det([r[:k] + [r[j]] for r in rows[: k + 1]]) if j >= k else 0
                assert lat.echelon[k][j] == want

    def test_one_bareiss_pass_per_gram(self, monkeypatch):
        calls = []
        real = lattice._echelon
        monkeypatch.setattr(lattice, "_echelon", lambda gram: calls.append(gram) or real(gram))
        lat = GramLattice.from_rows(SKEWED4.gram)
        successive_minima(lat)
        assert lat.det == 4 and len(calls) == 1


@pytest.mark.parametrize(
    "build",
    [
        lambda: GramLattice.from_rows([[2.5, 1], [1, 2]]),
        lambda: GramLattice.from_rows([[Fraction(5, 2), 1], [1, 2]]),
        lambda: HomogeneousForm.from_terms(2, {(1, 0): 2.7}),
        lambda: HomogeneousForm(2, 1, (((1, 0), 2.7),)),
        lambda: HomogeneousForm.from_terms(2, {(1.0, 0): 3}),
    ],
    ids=["gram-float", "gram-fraction", "form-float-coefficient", "record-float-coefficient", "form-float-exponent"],
)
def test_non_integer_entries_rejected(build):
    # the constructors convert nothing: a non-int entry, coefficient or exponent is refused,
    # not truncated (2.5 -> 2, 2.7 -> 2) or carried into evaluate_form (degree 1.0)
    with pytest.raises(ParameterError):
        build()


class TestMinorsKernel:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_minors_and_compound_match_cofactors(self, data):
        # p x n and n x n integer matrices, p <= n <= 6; small entries and a
        # possibly repeated row draw singular ones as well
        n = data.draw(st.integers(min_value=1, max_value=6))
        p = data.draw(st.integers(min_value=0, max_value=n))
        row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
        rows = data.draw(st.lists(row, min_size=p, max_size=p))
        if p >= 2 and data.draw(st.booleans()):
            rows[-1] = rows[0]
        subsets = list(combinations(range(n), p))
        assert lattice._minors(rows, n) == [int_det([[r[c] for c in cols] for r in rows]) for cols in subsets]
        square = data.draw(st.lists(row, min_size=n, max_size=n))
        assert lattice._compound(square, p) == [
            [int_det([[square[i][j] for j in cols] for i in rs]) for cols in subsets] for rs in subsets
        ]

    def test_examples(self):
        # no rows wedge to the empty product, so rank 1 has adjugate [[1]]
        assert lattice._minors([], 3) == [1]
        assert lattice._minors([[1, 0, 2], [0, 1, 3]], 3) == [1, 3, -2]
        assert lattice._adjugate([[7]]) == [[1]]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_decomposable_matches_the_wedge_rank_oracle(self, data):
        # planted wedges of p vectors, sums of two of them, and free draws; the chart test
        # agrees with the rank of v -> v ^ omega on every nonzero omega, p = 1 and p = n too
        n = data.draw(st.integers(min_value=2, max_value=6))
        p = data.draw(st.integers(min_value=1, max_value=n))
        entries = st.integers(min_value=-3, max_value=3)
        subsets = list(combinations(range(n), p))

        def planted():
            rows = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=p, max_size=p))
            return [int_det([[r[c] for c in cols] for r in rows]) for cols in subsets]

        kind = data.draw(st.sampled_from(["wedge", "sum", "free"]))
        if kind == "wedge":
            omega = planted()
        elif kind == "sum":
            omega = [a + b for a, b in zip(planted(), planted())]
        else:
            omega = data.draw(st.lists(entries, min_size=len(subsets), max_size=len(subsets)))
        assume(any(omega))
        assert lattice._decomposable(omega, n, p) == (oracle_wedge_rank(omega, n, p) == n - p)
        if kind == "wedge":
            assert lattice._decomposable(omega, n, p)


class TestSuccessiveMinima:
    def test_named_examples(self):
        assert successive_minima(IDENTITY2).log_minima == (0.0, 0.0)
        prof = successive_minima(HEXAGONAL)
        assert prof.sq_minima == (2, 2)
        assert prof.log_minima == (0.5 * math.log(2), 0.5 * math.log(2))
        assert successive_minima(DIAG14).sq_minima == (1, 4)

    def test_witness_invariants(self):
        for lat in (IDENTITY2, HEXAGONAL, DIAG14):
            prof = successive_minima(lat)
            assert matrix_rank([list(map(Fraction, w)) for w in prof.witnesses]) == lat.rank
            for q2, w in zip(prof.sq_minima, prof.witnesses):
                assert lat.norm2(w) == q2
            assert all(a <= b for a, b in zip(prof.sq_minima, prof.sq_minima[1:]))

    def test_against_box_oracle(self):
        rng = random.Random(411)
        for _ in range(40):
            lat = random_pd_gram(rng, rng.choice([2, 3]))
            assert successive_minima(lat).sq_minima == brute_minima(lat)

    def test_rank4_and_fixed(self):
        lat = GramLattice.from_rows(
            [[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 3, 1], [0, 0, 1, 2]]
        )
        assert successive_minima(lat).sq_minima == brute_minima(lat)

    def test_minkowski_product_bound(self):
        rng = random.Random(412)
        for _ in range(25):
            lat = random_pd_gram(rng, rng.choice([2, 3]))
            prof = successive_minima(lat)
            mink = (4.0**lat.rank) * math.exp(-2 * ball_volume_log(lat.rank)) * lat.det
            assert math.prod(prof.sq_minima) <= mink * (1 + 1e-9)

    def test_skewed_gram_stays_small(self):
        # the adjugate of this Gram has minima (1, 4, 4, 4) but over 10^5 vectors
        # below its largest diagonal entry 680; the radius grows from 1 instead
        adj = lattice._adjugate_lattice(SKEWED4)
        t0 = time.perf_counter()
        prof = successive_minima(adj, budget=20_000)
        assert time.perf_counter() - t0 < 2.0
        assert prof.sq_minima == (1, 4, 4, 4)
        assert prof.sq_minima == brute_minima(adj, bound2=4)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_witnesses_match_the_greedy_oracle(self, data):
        # greedy independence over the whole sorted list up to the last minimum, with an
        # echelon oracle, picks the same witnesses as the wedge test under the radius schedule
        rank = data.draw(st.integers(min_value=2, max_value=6))
        lat = data.draw(gram_lattices(rank, spread=data.draw(st.integers(min_value=1, max_value=2))))
        prof = successive_minima(lat)
        chosen = oracle_greedy_witnesses(lat, prof.sq_minima[-1])
        assert prof.witnesses == tuple(v for _, v in chosen)
        assert prof.sq_minima == tuple(q2 for q2, _ in chosen)

    @pytest.mark.parametrize("name", sorted(ROOT_LATTICES))
    def test_root_lattice_witnesses_match_the_greedy_oracle(self, name):
        # every minimum of a root lattice is 2, so the witnesses are decided by ties alone
        lat = ROOT_LATTICES[name]
        prof = successive_minima(lat)
        assert prof.sq_minima == (2,) * lat.rank
        assert prof.witnesses == tuple(v for _, v in oracle_greedy_witnesses(lat, 2))

    def test_budget_exhaustion(self):
        rows = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
        rows[5][5] = 10**8
        lat = GramLattice.from_rows(rows)
        with pytest.raises(ResourceLimitError):
            successive_minima(lat, budget=10_000)


class TestDualLattice:
    def test_named_examples(self):
        assert dual_lattice(IDENTITY2).entries == frac_matrix([[1, 0], [0, 1]])
        assert dual_lattice(HEXAGONAL).entries == frac_matrix(
            [[Fraction(2, 3), Fraction(-1, 3)], [Fraction(-1, 3), Fraction(2, 3)]]
        )
        assert dual_lattice(DIAG14).entries == frac_matrix([[1, 0], [0, Fraction(1, 4)]])

    def test_double_dual_is_identity_map(self):
        rng = random.Random(413)
        for _ in range(25):
            lat = random_pd_gram(rng, rng.choice([2, 3, 4]))
            assert fraction_inverse(dual_lattice(lat).entries) == frac_matrix(lat.gram)

    def test_dual_minima_hexagonal(self):
        # the dual is the adjugate lattice scaled by 1/det, so are its squared minima
        adj = successive_minima(lattice._adjugate_lattice(HEXAGONAL))
        sq = [Fraction(q, HEXAGONAL.det) for q in adj.sq_minima]
        assert sq == [Fraction(2, 3), Fraction(2, 3)]

    def test_non_integral_adjugate_detected(self, monkeypatch):
        # a cofactor step giving G . adj != det . I: here adj = I against det(HEXAGONAL) = 3;
        # dual_lattice is the one route that builds the adjugate
        monkeypatch.setattr(lattice, "_adjugate", lambda rows: [[1, 0], [0, 1]])
        with pytest.raises(VerificationError):
            dual_lattice(HEXAGONAL)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_adjugate_matches_cofactors(self, data):
        rank = data.draw(st.integers(min_value=1, max_value=6))
        rows = [list(r) for r in data.draw(gram_lattices(rank, spread=4)).gram]
        assert lattice._adjugate(rows) == cofactor_adjugate(rows)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_fraction_inverse(self, data):
        rank = data.draw(st.integers(min_value=1, max_value=6))
        lat = data.draw(gram_lattices(rank, spread=4))
        assert dual_lattice(lat).entries == fraction_inverse(lat.gram)


class TestSublatticeHeights:
    def test_named_examples(self):
        assert sublattice_heights(IDENTITY2).covol2 == (Fraction(1), Fraction(1))
        hexa = sublattice_heights(HEXAGONAL)
        assert hexa.covol2 == (Fraction(2), Fraction(3))
        assert math.isclose(hexa.log_heights[0], 0.5 * math.log(2), rel_tol=1e-12)
        assert math.isclose(hexa.log_heights[1], 0.5 * math.log(3), rel_tol=1e-12)
        assert sublattice_heights(DIAG14).covol2 == (Fraction(1), Fraction(4))

    def test_first_height_is_first_minimum(self):
        rng = random.Random(414)
        for _ in range(20):
            lat = random_pd_gram(rng, rng.choice([2, 3]))
            table = sublattice_heights(lat)
            assert table.covol2[0] == successive_minima(lat).sq_minima[0]
            assert table.covol2[-1] == lat.det

    def test_middle_height_against_box_oracle(self):
        rng = random.Random(415)
        for _ in range(12):
            lat = random_pd_gram(rng, 3)
            assert sublattice_heights(lat).covol2[1] == brute_min_covol2(lat, 2)

    def test_rank4_middle_heights(self):
        z4 = GramLattice.from_rows([[1 if i == j else 0 for j in range(4)] for i in range(4)])
        assert sublattice_heights(z4).covol2 == (Fraction(1),) * 4
        diag = GramLattice.from_rows(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 4, 0], [0, 0, 0, 9]]
        )
        assert sublattice_heights(diag).covol2 == (Fraction(1), Fraction(1), Fraction(4), Fraction(36))

    def test_duality_identity(self):
        # covol2_p(V) == covol2_(n-p)(dual) * det(V) for all p, exactly, with the dual's
        # heights from the adjugate's own enumeration, not read off the primal core
        rng = random.Random(416)
        for _ in range(12):
            lat = random_pd_gram(rng, 3)
            primal = sublattice_heights(lat).covol2
            dual2, _ = fraction_dual_heights(lat)
            n = lat.rank
            for p in range(1, n):
                assert primal[p - 1] == dual2[n - p - 1] * lat.det

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_against_subset_search_oracle(self, data):
        rank = data.draw(st.integers(min_value=3, max_value=4))
        lat = data.draw(gram_lattices(rank, spread=data.draw(st.integers(min_value=1, max_value=4))))
        primal = sublattice_heights(lat).covol2
        dual2, _ = dual_heights(lat)
        adj = lattice._adjugate_lattice(lat)
        for p in range(2, rank):
            assert primal[p - 1] == subset_search_covol2(lat, p)
            assert dual2[p - 1] == subset_search_covol2(adj, p) / lat.det**p

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_wedge_rank_is_the_rank_four_plucker_relation(self, data):
        # v -> v ^ omega on Z^4 has rank 2 exactly when omega is decomposable,
        # and a nonzero 2-vector in rank 4 is decomposable exactly when it
        # satisfies the one Plucker relation; otherwise the map is injective
        entries = st.integers(min_value=-3, max_value=3)
        if data.draw(st.booleans()):
            a, b = data.draw(st.lists(st.lists(entries, min_size=4, max_size=4), min_size=2, max_size=2))
            omega = [a[i] * b[j] - a[j] * b[i] for i, j in combinations(range(4), 2)]
        else:
            omega = data.draw(st.lists(entries, min_size=6, max_size=6))
        assume(any(omega))
        w01, w02, w03, w12, w13, w23 = omega
        rank = oracle_wedge_rank(omega, 4, 2)
        assert rank in (2, 4)
        assert (rank == 2) == (w01 * w23 - w02 * w13 + w03 * w12 == 0) == lattice._decomposable(omega, 4, 2)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_every_nonzero_hyperplane_vector_is_decomposable(self, data):
        # v -> v ^ omega has a kernel of dimension n - 1 for every nonzero omega in
        # Lambda^(n-1) Z^n, so the compound search may take its first vector at p = n - 1
        n = data.draw(st.integers(min_value=2, max_value=6))
        omega = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n).filter(any))
        assert oracle_wedge_rank(omega, n, n - 1) == 1
        assert lattice._decomposable(omega, n, n - 1)

    def test_non_decomposable_compound_vector_is_skipped(self, monkeypatch):
        # e0^e1 + e2^e3 planted first in C_2 of each rank-4 Gram must not count
        # as a sublattice; every middle height here exceeds its planted norm 1
        planted = (1, 0, 0, 0, 0, 1)
        assert oracle_wedge_rank(planted, 4, 2) == 4
        assert not lattice._decomposable(planted, 4, 2)
        real = lattice.short_vectors
        compound_calls = 0

        def with_planted(gram, bound2, budget=lattice.DEFAULT_BUDGET):
            nonlocal compound_calls
            out = real(gram, bound2, budget)
            if len(gram) == 6:
                compound_calls += 1
                out = [(1, planted)] + out
            return out

        lats = [
            GramLattice.from_rows([[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 5, 0], [0, 0, 0, 7]]),
            GramLattice.from_rows([[2 * x for x in row] for row in SKEWED4.gram]),
        ]
        expected = [(sublattice_heights(lat).covol2, dual_heights(lat)[0]) for lat in lats]
        for lat, (primal, dual2) in zip(lats, expected):
            assert primal[1] > 1 and dual2[1] * lat.det**2 > 1
        monkeypatch.setattr(lattice, "short_vectors", with_planted)
        for lat, want in zip(lats, expected):
            assert (sublattice_heights(lat).covol2, dual_heights(lat)[0]) == want
        assert compound_calls == 2 * len(lats)

    def test_compound_search_budget(self):
        minima = successive_minima(SKEWED4)
        assert lattice._min_primitive_covol2(SKEWED4, 2, minima, lattice.DEFAULT_BUDGET) == 1
        with pytest.raises(ResourceLimitError):
            lattice._min_primitive_covol2(SKEWED4, 2, minima, budget=1)

    def test_rank_cap(self):
        # one cap, MAX_RANK = 6: heights take every rank GramLattice accepts, and Z^6 is
        # the det = 1 case of the transference upper side at p = n
        assert not hasattr(lattice, "HEIGHT_MAX_RANK")
        for n in (5, 6):
            z = GramLattice.from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)])
            assert sublattice_heights(z).covol2 == dual_heights(z)[0] == (Fraction(1),) * n
            assert verify_transference(z).ok
        with pytest.raises(ParameterError, match=r"^rank must be in \[1, 6\], got 7$"):
            GramLattice.from_rows([[1 if i == j else 0 for j in range(7)] for i in range(7)])

    def test_dependent_witnesses_detected(self, monkeypatch):
        z3 = GramLattice.from_rows([[1 if i == j else 0 for j in range(3)] for i in range(3)])
        profile = successive_minima(z3)
        bad = profile._replace(witnesses=((1, 0, 0), (-1, 0, 0), (0, 0, 1)))
        monkeypatch.setattr(lattice, "successive_minima", lambda lat, budget: bad)
        with pytest.raises(VerificationError):
            sublattice_heights(z3)


class TestTransference:
    def test_identity_example(self):
        # det = 1: the enforced and det-free bounds coincide
        report = verify_transference(IDENTITY2)
        row = report.rows[0]
        assert row.lower == 0.0 and row.minima_sum == 0.0
        assert math.isclose(row.upper, math.log(2), rel_tol=1e-12)
        assert row.upper == row.printed_upper

    def test_hexagonal_numbers(self):
        report = verify_transference(HEXAGONAL)
        r1 = report.rows[0]
        assert math.isclose(r1.lower, 0.5 * math.log(2 / 3), rel_tol=1e-9)
        assert math.isclose(r1.minima_sum, 0.5 * math.log(2), rel_tol=1e-9)
        assert math.isclose(r1.printed_upper, math.log(2) + 0.5 * math.log(2 / 3), rel_tol=1e-9)
        assert math.isclose(r1.upper, r1.printed_upper + math.log(3), rel_tol=1e-9)
        assert report.printed_ok  # hexagonal satisfies even the det-free form

    def test_diag_example(self):
        report = verify_transference(DIAG14)
        assert report.ok and report.printed_ok

    def test_printed_upper_fails_on_scaled_lattice(self):
        # diag(3,3): lambda_1 = (1/2)log 9 exceeds log 2 + ell_1(dual); only
        # the det-shifted bound is a theorem
        report = verify_transference(GramLattice.from_rows([[3, 0], [0, 3]]))
        assert report.ok
        assert not report.rows[0].printed_ok

    def test_random_theorem_check(self):
        rng = random.Random(417)
        for _ in range(60):
            assert verify_transference(random_pd_gram(rng, rng.choice([2, 3]))).ok

    def test_rank_one_boundary(self):
        report = verify_transference(GramLattice.from_rows([[5]]))
        row = report.rows[0]
        assert row.lower == 0.0
        assert math.isclose(row.minima_sum, 0.5 * math.log(5), rel_tol=1e-12)
        assert math.isclose(row.upper, math.log(2) + math.log(5), rel_tol=1e-12)

    def test_hadamard_lower_for_full_sum(self):
        # det <= product of squared minima, the sharp p = rank lower fact
        rng = random.Random(420)
        for _ in range(30):
            lat = random_pd_gram(rng, rng.choice([2, 3]))
            assert lat.det <= math.prod(successive_minima(lat).sq_minima)

    def test_skewed_rank4_regression(self):
        t0 = time.perf_counter()
        report = verify_transference(SKEWED4)
        assert time.perf_counter() - t0 < 2.0
        lower, minima_sum = -0.6931471805599453, 0.6931471805599453
        assert [(r.p, r.lower, r.minima_sum) for r in report.rows] == [
            (1, lower, 0.0), (2, lower, 0.0), (3, lower, 0.0), (4, 0.0, minima_sum)
        ]
        assert [r.upper for r in report.rows] == [2.033323944498546] * 3 + [2.7264711250584908]
        assert report.constant == 1.3401767639386004
        prof = successive_minima(SKEWED4)
        assert prof.witnesses == ((2, 2, 3, 1), (3, 2, 4, 1), (9, 7, 12, 4), (1, 1, 2, 1))

    # the first two exhausted the adjugate enumeration's budget, the third is the Gram on which
    # test_against_subset_search_oracle's adjugate oracle can still exhaust it
    @pytest.mark.parametrize("rows", [
        [[61, -34, 62, -63], [-34, 45, -51, 31], [62, -51, 75, -60], [-63, 31, -60, 67]],
        [[52, -38, -14, 12], [-38, 38, 32, -17], [-14, 32, 82, -53], [12, -17, -53, 42]],
        [[15, 1, -3, 10], [1, 9, -2, -5], [-3, -2, 18, -15], [10, -5, -15, 22]],
    ])
    def test_skewed_adjugate_regression(self, rows):
        lat = GramLattice.from_rows(rows)
        t0 = time.perf_counter()
        report = verify_transference(lat)
        assert time.perf_counter() - t0 < 1.0
        covol2 = sublattice_heights(lat).covol2
        for row in report.rows[:-1]:
            q = covol2[row.p - 1] / lat.det
            assert row.lower == 0.5 * (math.log(q.numerator) - math.log(q.denominator))


def dual_heights(lat: GramLattice):
    """The dual's minimal squared covolumes as Fractions, read off the primal core by duality
    (lattice._dual_covol2), and their half-logs."""
    budget = lattice.DEFAULT_BUDGET
    pairs, logs = lattice._dual_covol2(lattice.successive_minima(lat, budget), budget)
    return tuple(Fraction(a, b) for a, b in pairs), logs


def fraction_dual_heights(lat: GramLattice):
    """Test oracle, the former dual_heights: the adjugate's heights over det^p as Fractions,
    with half-logs of their numerators and denominators."""
    table = sublattice_heights(lattice._adjugate_lattice(lat))
    sq = tuple(Fraction(c.numerator, lat.det**p) for p, c in enumerate(table.covol2, start=1))
    return sq, tuple(0.5 * (math.log(q.numerator) - math.log(q.denominator)) for q in sq)


class TestIntegerCore:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_equals_the_fraction_route_exactly(self, data):
        rank = data.draw(st.integers(min_value=2, max_value=4))
        lat = data.draw(gram_lattices(rank, spread=data.draw(st.integers(min_value=1, max_value=3))))
        try:
            dual2, dual_logs = fraction_dual_heights(lat)
        except ResourceLimitError:
            assume(False)  # the unreduced enumeration's known budget exhaustion, not this route
        minima = successive_minima(lat)
        covol2 = (
            Fraction(minima.sq_minima[0]),
            *(subset_search_covol2(lat, p) for p in range(2, rank)),
            Fraction(lat.det),
        )
        table = sublattice_heights(lat)
        assert table.covol2 == covol2
        assert table.log_heights == tuple(0.5 * math.log(c) for c in covol2)
        assert dual_heights(lat) == (dual2, dual_logs)
        report = verify_transference(lat)
        for row in report.rows:
            lower = 0.0 if row.p == rank else dual_logs[rank - row.p - 1]
            assert row.lower == lower
            assert row.upper == report.constant + lower + math.log(lat.det)

    def test_one_lattice_enumerated(self, monkeypatch):
        # no heights or transference path builds the adjugate, and each enumerates its minima once
        def no_adjugate(lat):
            raise AssertionError(f"adjugate of {lat.gram} built")

        real, calls = lattice.successive_minima, []
        monkeypatch.setattr(lattice, "_adjugate_lattice", no_adjugate)
        monkeypatch.setattr(lattice, "successive_minima", lambda lat, budget: calls.append(lat) or real(lat, budget))
        for lat in (HEXAGONAL, SKEWED4, read_gram((DATA / "rank5.gram").read_text())):
            for route in (sublattice_heights, dual_heights, verify_transference):
                calls.clear()
                route(lat)
                assert calls == [lat]

    @pytest.mark.parametrize("name", ["rank5", "rank6"])
    def test_rank5_and_rank6_goldens_against_oracles(self, name):
        # the covol2 printed in the heights golden, against the subset search at p <= 3 (it
        # takes seconds to minutes at p >= 4), and dual_heights against the adjugate's route
        lat = read_gram((DATA / f"{name}.gram").read_text())
        golden = (DATA / "cli_golden" / f"lattice-heights-{name}.txt").read_text().splitlines()
        covol2 = tuple(Fraction(ln.split()[1].removeprefix("covol2=")) for ln in golden if ln.startswith("p="))
        assert covol2 == sublattice_heights(lat).covol2 and covol2[-1] == lat.det
        for p in range(1, 4):
            assert covol2[p - 1] == subset_search_covol2(lat, p)
        assert dual_heights(lat) == fraction_dual_heights(lat)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_rank5_against_the_oracles(self, data):
        lat = data.draw(gram_lattices(5, spread=data.draw(st.integers(min_value=1, max_value=2))))
        try:
            dual = fraction_dual_heights(lat)
        except ResourceLimitError:
            assume(False)  # the unreduced enumeration's known budget exhaustion, not this route
        covol2 = sublattice_heights(lat).covol2
        assert covol2[:3] == tuple(subset_search_covol2(lat, p) for p in range(1, 4))
        assert dual_heights(lat) == dual
        assert verify_transference(lat).ok


class TestForms:
    def test_evaluation_examples(self):
        f = HomogeneousForm.from_terms(2, {(1, 1): 1})
        assert evaluate_form(f, (1, 1)) == 1
        g = HomogeneousForm.from_terms(2, {(2, 0): 1, (0, 2): -1})
        assert evaluate_form(g, (2, 2)) == 0

    def test_random_cubic_against_reordered_sum(self):
        rng = random.Random(418)
        for _ in range(30):
            terms = {}
            for i in range(4):
                for j in range(4 - i):
                    k = 3 - i - j
                    c = rng.randint(-6, 6)
                    if c:
                        terms[(i, j, k)] = c
            if not terms:
                continue
            f = HomogeneousForm.from_terms(3, terms)
            v = tuple(rng.randint(-5, 5) for _ in range(3))
            direct = sum(
                c * v[0] ** e[0] * v[1] ** e[1] * v[2] ** e[2]
                for e, c in sorted(terms.items(), reverse=True)
            )
            assert evaluate_form(f, v) == direct

    def test_validation(self):
        with pytest.raises(ParameterError):
            HomogeneousForm.from_terms(2, {(1, 1): 0})
        with pytest.raises(ParameterError):
            HomogeneousForm.from_terms(2, {(1, 1): 1, (2, 0): 1, (3, 0): 1})
        with pytest.raises(ParameterError):
            evaluate_form(HomogeneousForm.from_terms(2, {(1, 1): 1}), (1, 2, 3))


class TestAvoidHypersurface:
    def test_product_form_on_identity(self):
        f = HomogeneousForm.from_terms(2, {(1, 1): 1})
        res = avoid_hypersurface(f, successive_minima(IDENTITY2))
        assert res.grid_vector == (1, 1)
        assert math.isclose(res.log_norm, 0.5 * math.log(2), rel_tol=1e-12)
        assert math.isclose(res.log_bound, math.log(4), rel_tol=1e-12)
        assert res.within_bound

    def test_square_difference_form(self):
        f = HomogeneousForm.from_terms(2, {(2, 0): 1, (1, 1): -2, (0, 2): 1})  # (x1-x2)^2
        res = avoid_hypersurface(f, successive_minima(IDENTITY2))
        assert res.grid_vector == (0, 1)
        assert res.value == 1

    def test_random_forms_stay_in_bound(self):
        rng = random.Random(419)
        for _ in range(50):
            rank = rng.choice([2, 3])
            degree = rng.choice([1, 2, 3])
            monos = [e for e in product(range(degree + 1), repeat=rank) if sum(e) == degree]
            terms = {e: rng.randint(-4, 4) for e in monos if rng.random() < 0.6}
            terms = {e: c for e, c in terms.items() if c}
            if not terms:
                continue
            f = HomogeneousForm.from_terms(rank, terms)
            lat = random_pd_gram(rng, rank)
            res = avoid_hypersurface(f, successive_minima(lat))
            assert res.value != 0 and res.within_bound

    def test_rank_mismatch(self):
        f = HomogeneousForm.from_terms(3, {(1, 1, 1): 1})
        with pytest.raises(ParameterError):
            avoid_hypersurface(f, successive_minima(IDENTITY2))

    def test_within_bound_is_the_integer_comparison(self):
        # the full suite's draws: within_bound is q2(v) <= lambda_max^2 (D n)^2 exactly
        rng = random.Random(suite.SEED_FORMS)
        for i in range(200):
            rank, degree = 2 + (i % 2), 1 + (i % 3)
            form = suite.random_form(rng, rank, degree)
            minima = successive_minima(suite.random_gram(rng, rank))
            res = avoid_hypersurface(form, minima)
            q2 = minima.lattice.norm2(res.lattice_vector)
            assert res.within_bound == (q2 <= minima.sq_minima[-1] * (degree * rank) ** 2)
            assert res.within_bound == (res.log_norm <= res.log_bound + lattice.LOG_TOLERANCE)

    def test_within_bound_at_and_past_equality(self):
        # the grid bound |v| <= lambda_max * D * n is tight only for parallel
        # witnesses, so hand-made profiles put q2 on and just past the bound
        f = HomogeneousForm.from_terms(2, {(1, 0): 1})  # first off the zero set at grid (1, 0)
        for side, within in [(2, True), (3, False)]:
            prof = lattice.MinimaProfile(IDENTITY2, (1, 1), (0.0, 0.0), ((side, 0), (0, side)))
            res = avoid_hypersurface(f, prof)
            assert res.lattice_vector == (side, 0)
            assert res.within_bound is within  # q2 = side^2 against 1 * (1 * 2)^2 = 4


class TestFileFormats:
    def test_gram_round_trip(self):
        text = "# hexagonal\n2\n2 1\n1 2\n"
        assert read_gram(text).gram == ((2, 1), (1, 2))

    def test_form_round_trip(self):
        text = "# product of the two coordinates\n1 1 1\n"
        f = read_form(text)
        assert f.num_vars == 2 and f.degree == 2 and f.terms == (((1, 1), 1),)

    def test_form_merges_duplicate_lines(self):
        f = read_form("2 1 1\n3 1 1\n")
        assert f.terms == (((1, 1), 5),)

    def test_malformed_rejected(self):
        with pytest.raises(ParameterError):
            read_gram("2\n1 0\n")
        with pytest.raises(ParameterError):
            read_gram("x\n")
        with pytest.raises(ParameterError):
            read_form("1\n")
        with pytest.raises(ParameterError):
            read_form("")


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6), st.integers(min_value=-3, max_value=3))
def test_dual_of_two_by_two(a, d, b):
    # random 2x2 positive-definite integer Gram: dual is the exact inverse
    if a * d - b * b <= 0:
        return
    lat = GramLattice.from_rows([[a, b], [b, d]])
    det = a * d - b * b
    expected = frac_matrix(
        [[Fraction(d, det), Fraction(-b, det)], [Fraction(-b, det), Fraction(a, det)]]
    )
    assert dual_lattice(lat).entries == expected
