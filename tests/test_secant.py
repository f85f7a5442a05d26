"""Secant-degree tests: hand-computed anchors, series contracts, two-oracle sweeps."""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import assume, given, settings, strategies as st

from secmin import secant, suite
from secmin.arith import binomial
from secmin.errors import ParameterError, VerificationError
from secmin.secant import (
    SecantParams,
    _times,
    chern_series,
    degree_formula,
    degree_oracle,
    pushforward_degree,
    series_inverse,
)


def closed_sum_oracle(g: int, m: int, d: int) -> int:
    """Test oracle: the binomial sum written directly with math.comb."""
    total = 0
    for a in range(min(d, g) + 1):
        top, bot = m + g - 1 - d - a, d - a
        total += (comb(top, bot) if 0 <= bot <= top else 0) * comb(g, a)
    return total


def power_basis_chern(a: int, top: int, g: int) -> dict:
    """Test oracle: (1+xt)^(-A) exp(-t theta/(1+xt)) with Fraction coefficients
    in the power basis theta^j, as {(n, i, j): coefficient of t^n x^i theta^j}."""

    def mul(f, h):
        out = {}
        for (n1, i1, j1), c1 in f.items():
            for (n2, i2, j2), c2 in h.items():
                key = (n1 + n2, i1 + i2, j1 + j2)
                if key[0] <= top and key[2] <= g and key[1] + key[2] <= top:
                    out[key] = out.get(key, 0) + c1 * c2
        return {k: c for k, c in out.items() if c}

    binom = {(i, i, 0): Fraction((-1) ** i * comb(a + i - 1, i)) for i in range(top + 1)}
    u = {(i + 1, i, 1): Fraction((-1) ** (i + 1)) for i in range(top)}
    exp_u, power = {(0, 0, 0): Fraction(1)}, {(0, 0, 0): Fraction(1)}
    for k in range(1, top + 1):
        power = mul(power, u)
        for key, c in power.items():
            exp_u[key] = exp_u.get(key, 0) + c / factorial(k)
    return mul(binom, exp_u)


class TestClosedForm:
    def test_hand_values(self):
        assert degree_formula(1, 5, 1) == 5
        assert degree_formula(1, 5, 2) == 5  # 3*1 + 2*1
        assert degree_formula(0, 5, 1) == 3  # twisted cubic
        assert degree_formula(2, 8, 3) == 20 + 10 * 2 + 4  # 44

    def test_matches_direct_sum(self):
        for g in range(0, 7):
            for d in range(1, 7):
                for m in range(3, 30):
                    if 2 * d <= m + g - 1:
                        assert degree_formula(g, m, d) == closed_sum_oracle(g, m, d)

    def test_secant_lines_match_the_double_point_count(self):
        # a third route at d = 2: deg Sigma_2 of a degree-e genus-g curve is (e - 1)(e - 2)/2 - g,
        # the nodes of a general plane projection (ACGH ch. VIII); at m + g = 5 Sigma_2 fills P^3
        # and both routes give that count as the secant lines through a general point
        triples = boundary = 0
        for g in range(30):
            for m in range(max(3, 5 - g), 120):
                e = m + 2 * g - 2
                want = (e - 1) * (e - 2) // 2 - g
                assert degree_formula(g, m, 2) == degree_oracle(SecantParams(g, m, 2)) == want, (g, m)
                triples += 1
                boundary += m + g == 5
        assert (triples, boundary) == (3507, 3)

    def test_degree_zero_is_one(self):
        for g, m in [(0, 5), (3, 8), (6, 40)]:
            assert degree_formula(g, m, 0) == 1

    def test_preconditions(self):
        with pytest.raises(ParameterError):
            SecantParams(2, 4, 3).require_valid()  # 2d > m+g-1
        with pytest.raises(ParameterError):
            SecantParams(0, 2, 1).require_valid()  # m <= 2
        with pytest.raises(ParameterError):
            SecantParams(-1, 5, 1)


def monomial(degree: int, j: int, c: int, genus: int) -> list[int]:
    """The graded row of c x^(degree-j) theta^[j]."""
    row = [0] * (min(degree, genus) + 1)
    row[j] = c
    return row


def unit_series(top: int, genus: int) -> list[list[int]]:
    return [monomial(n, 0, int(n == 0), genus) for n in range(top + 1)]


def series_product(u: list[list[int]], v: list[list[int]], genus: int) -> list[list[int]]:
    """Test-local product of two graded series of the same length, on _times."""
    out = [[0] * (min(n, genus) + 1) for n in range(len(u))]
    for a, row in enumerate(u):
        for b in range(len(u) - a):
            for j, c in enumerate(_times(row, v[b], genus)):
                out[a + b][j] += c
    return out


class TestChernSeries:
    def test_linear_coefficient(self):
        p = SecantParams(3, 9, 2)
        assert chern_series(p)[1] == [-p.series_exponent, -1]

    def test_theta_free_part_is_binomial_series(self):
        p = SecantParams(2, 11, 4)
        c = chern_series(p)
        a = p.series_exponent
        for i in range(5):
            assert c[i][0] == (-1) ** i * comb(a + i - 1, i)

    def test_genus_zero_has_no_theta(self):
        p = SecantParams(0, 9, 3)
        c = chern_series(p)
        a = p.series_exponent
        for i in range(4):
            assert c[i] == [(-1) ** i * comb(a + i - 1, i)]

    def test_constant_term_is_unit(self):
        assert chern_series(SecantParams(4, 12, 3))[0] == [1]

    def test_divided_powers_of_the_fraction_series(self):
        # coefficient c of x^i theta^j in the power basis is j! c on x^i theta^[j]
        for g, m, d in [(0, 9, 3), (2, 11, 5), (5, 12, 7), (6, 40, 6)]:
            p = SecantParams(g, m, d)
            old = power_basis_chern(p.series_exponent, d, g)
            new = {(n, n - j, j): v for n, row in enumerate(chern_series(p)) for j, v in enumerate(row) if v}
            assert new == {key: v * factorial(key[2]) for key, v in old.items()}


class TestDividedPowers:
    def test_product_rule(self):
        for a in range(7):
            for b in range(7):
                prod = _times(monomial(1 + a, a, 1, 6), monomial(2 + b, b, 3, 6), 6)
                if a + b <= 6:
                    assert prod == monomial(3 + a + b, a + b, 3 * comb(a + b, a), 6)
                else:
                    assert prod == [0] * 7

    def test_theta_power_is_factorial_times_divided_power(self):
        power = [1]
        for k in range(1, 7):
            power = _times(power, [0, 1], 5)
            if k <= 5:
                assert power == monomial(k, k, factorial(k), 5)
            else:
                assert power == [0] * 6


class TestSegreSeries:
    def test_inverse_of_unit(self):
        assert series_inverse(unit_series(4, 2), 2) == unit_series(4, 2)

    def test_inverse_of_one_plus_xt(self):
        series = unit_series(5, 3)
        series[1] = [1, 0]
        inv = series_inverse(series, 3)
        for i in range(6):
            assert inv[i] == monomial(i, 0, (-1) ** i, 3)

    def test_product_with_inverse_is_unit(self):
        p = SecantParams(3, 10, 4)
        c = chern_series(p)
        assert series_product(series_inverse(c, 3), c, 3) == unit_series(4, 3)

    def test_rejects_non_unit_constant(self):
        with pytest.raises(ParameterError):
            series_inverse([[2], [0, 0]], 1)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_series_inverse_contract(self, data):
        top = data.draw(st.integers(min_value=1, max_value=5))
        genus = data.draw(st.integers(min_value=0, max_value=top))
        entries = st.integers(min_value=-50, max_value=50)
        series = [[1]] + [
            data.draw(st.lists(entries, min_size=min(n, genus) + 1, max_size=min(n, genus) + 1))
            for n in range(1, top + 1)
        ]
        inv = series_inverse(series, genus)
        assert series_product(inv, series, genus) == unit_series(top, genus)
        assert series_product(series, inv, genus) == unit_series(top, genus)
        assert all(type(c) is int for row in inv for c in row)


class TestPushforward:
    def test_x_power_is_one(self):
        for g, d in [(0, 3), (2, 2), (5, 4)]:
            assert pushforward_degree(monomial(d, 0, 1, g), SecantParams(g, 12, d)) == 1

    def test_theta_power_full_genus(self):
        g = 3
        p = SecantParams(g, 12, g)
        assert pushforward_degree(monomial(g, g, 1, g), p) == 1  # theta^[g] = theta^g / g!

    def test_mixed_monomial(self):
        p = SecantParams(3, 12, 2)
        assert pushforward_degree(monomial(2, 1, 1, 3), p) == comb(3, 1)  # 3

    def test_divided_power_evaluation(self):
        for g, d in [(0, 2), (3, 5), (6, 6), (4, 2)]:
            p = SecantParams(g, 40, d)
            for a in range(min(d, g) + 1):
                assert pushforward_degree(monomial(d, a, 5, g), p) == 5 * comb(g, a)

    def test_off_degree_contributes_zero(self):
        # theta^[j] vanishes for j > g, and C(g, j) = 0 sends it to zero as well
        p = SecantParams(2, 12, 3)
        assert pushforward_degree([0, 0, 0, 7], p) == 0
        assert pushforward_degree([1, 1, 1, 7], p) == pushforward_degree([1, 1, 1], p) == 1 + 2 + 1


class TestDegreeOracle:
    def test_matches_closed_form_small(self):
        checked = 0
        for g in range(0, 9):
            for d in range(1, 9):
                for m in range(3, 61):
                    if 2 * d <= m + g - 1:
                        p = SecantParams(g, m, d)
                        assert degree_oracle(p) == degree_formula(g, m, d)
                        checked += 1
        assert checked == 3890

    def test_genus_zero_closed_form(self):
        for m in range(4, 20):
            for d in range(1, (m - 1) // 2 + 1):
                assert degree_oracle(SecantParams(0, m, d)) == comb(m - 1 - d, d)

    def test_curve_degree_identity(self):
        for g in range(0, 7):
            for m in range(3, 31):
                assert degree_oracle(SecantParams(g, m, 1)) == m + 2 * g - 2

    def test_truncation_padding_is_sound(self):
        # by homogeneity rows past k never reach the first k rows of the inverse
        for g, m, d in [(2, 9, 3), (0, 11, 4), (4, 13, 2), (3, 16, 6)]:
            s = chern_series(SecantParams(g, m, d))
            inv = series_inverse(s, g)
            for k in range(1, d + 2):
                assert inv[:k] == series_inverse(s[:k], g)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=3, max_value=60),
        st.integers(min_value=0, max_value=2),
    )
    def test_padded_oracle_matches_closed_sum(self, g, d, m, pad):
        assume(2 * d <= m + g - 1)
        assert degree_oracle(SecantParams(g, m, d)) == closed_sum_oracle(g, m, d)
        s = chern_series(SecantParams(g, m, d))
        k = max(1, d + 1 - pad)
        assert series_inverse(s, g)[:k] == series_inverse(s[:k], g)

    def test_non_integral_pushforward_detected(self, monkeypatch):
        # integer kernels cannot yield a fraction, so corrupt the x^2 coefficient
        # of t^2 in the Chern series: each unit added takes one off the degree
        real = secant.chern_series

        def corrupted(bump):
            def patched(p):
                c = real(p)
                if len(c) >= 3:
                    c[2][0] += bump
                return c

            return patched

        p = SecantParams(2, 9, 2)
        assert degree_oracle(p) == closed_sum_oracle(2, 9, 2) == 43
        monkeypatch.setattr(secant, "chern_series", corrupted(100))
        with pytest.raises(VerificationError):
            degree_oracle(p)  # negative push-forward, caught by the oracle itself
        monkeypatch.setattr(secant, "chern_series", corrupted(1))
        assert degree_oracle(p) == 42
        with pytest.raises(VerificationError):
            suite.check_secant_two_oracle(2, 2, 9)  # wrong but positive, caught by the comparison


class TestRestrictedSegre:
    def test_values(self):
        assert binomial(9, 0) == 1
        assert binomial(16, 3) == 560
        for a in range(1, 20):
            for i in range(0, a + 2):
                assert binomial(a, i) == (comb(a, i) if i <= a else 0)
