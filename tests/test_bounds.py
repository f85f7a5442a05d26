"""Bound-evaluator tests: closed-form oracles recomputed with independent algebra."""

import math
from fractions import Fraction

import pytest

from secmin.bounds import (
    RATIONAL_FIELD,
    BoundReport,
    NumberFieldData,
    SurfaceData,
    ball_volume_log,
    evaluate,
    height_floor,
    lambda_floor,
    make_report,
    mu_floor,
    omega_lambda_floor,
    omega_mu_floor,
    omega_power_surface,
    top_lambda_floor,
    transference_constant,
)
from secmin.errors import ParameterError
from secmin.secant import degree_formula

IMAG_QUADRATIC = NumberFieldData(degree=2, real_places=0, complex_places=1, log_disc=math.log(3))


class TestBallVolume:
    def test_known_values(self):
        assert math.isclose(ball_volume_log(0), 0.0, abs_tol=1e-12)
        assert math.isclose(ball_volume_log(1), math.log(2), rel_tol=1e-12)
        assert math.isclose(ball_volume_log(2), math.log(math.pi), rel_tol=1e-12)
        assert math.isclose(ball_volume_log(3), math.log(4 * math.pi / 3), rel_tol=1e-12)

    def test_recurrence(self):
        # B_n = B_{n-2} * 2 pi / n
        for n in range(2, 60):
            expected = ball_volume_log(n - 2) + math.log(2 * math.pi / n)
            assert math.isclose(ball_volume_log(n), expected, rel_tol=1e-11, abs_tol=1e-11)


class TestTransferenceConstant:
    def test_rationals_n1(self):
        assert math.isclose(transference_constant(1, RATIONAL_FIELD), math.log(2), rel_tol=1e-12)

    def test_imaginary_quadratic(self):
        expected = 2 * math.log(2) + math.log(3) - math.log(math.pi**2 / 2)  # B_4 = pi^2/2
        assert math.isclose(transference_constant(1, IMAG_QUADRATIC), expected, rel_tol=1e-12)

    def test_disc_linearity(self):
        for n in (1, 3, 7):
            base = NumberFieldData(3, 1, 1, 2.0)
            shifted = NumberFieldData(3, 1, 1, 2.0 + 0.75)
            delta = transference_constant(n, shifted) - transference_constant(n, base)
            assert math.isclose(delta, (n + 1) * 0.75 / 2, rel_tol=1e-12)

    def test_positive_over_rationals(self):
        for n in range(1, 501):
            assert transference_constant(n, RATIONAL_FIELD) > 0

    def test_rank_shift_option(self):
        for n in (1, 2, 5):
            delta = transference_constant(n, RATIONAL_FIELD, rank_shift=True) - transference_constant(
                n, RATIONAL_FIELD
            )
            assert math.isclose(delta, ball_volume_log(n) - ball_volume_log(n + 1), rel_tol=1e-11)


class TestNumberFieldData:
    def test_signature_mismatch(self):
        with pytest.raises(ParameterError):
            NumberFieldData(2, 1, 1, 1.0)

    def test_trivial_disc_needs_rationals(self):
        with pytest.raises(ParameterError):
            NumberFieldData(2, 2, 0, 0.0)

    def test_surface_validation(self):
        with pytest.raises(ParameterError):
            SurfaceData(1, 4, 1.0, 0.0, 0.0, RATIONAL_FIELD)
        with pytest.raises(ParameterError):
            SurfaceData(2, 4, 1.0, 0.0, -1.0, RATIONAL_FIELD)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs_rejected(self, bad):
        with pytest.raises(ParameterError, match=r"^log\|disc\| must be (finite|>= 0)"):
            NumberFieldData(2, 0, 1, bad)
        for i in (2, 3, 4):  # l2, l_omega, omega2
            fields = [2, 4, 1.0, 0.0, 0.0, RATIONAL_FIELD]
            fields[i] = bad
            with pytest.raises(ParameterError, match="intersection numbers must be finite"):
                SurfaceData(*fields)


class TestHeightFloor:
    def test_two_terms_vanish(self):
        s = SurfaceData(3, 5, 4.2, 0.0, 0.0, RATIONAL_FIELD)
        assert math.isclose(height_floor(s), 3 * 4.2 / 10, rel_tol=1e-12)

    def test_canonical_bundle_case(self):
        # L = omega: m = 2g-2 and all three numbers coincide
        for g in (2, 3, 5):
            w2 = 1.371
            s = SurfaceData(g, 2 * g - 2, w2, w2, w2, RATIONAL_FIELD)
            coeff = Fraction(g, 2 * (2 * g - 2)) - Fraction(1, 2) + Fraction(2 * g - 2, 8 * g)
            assert math.isclose(height_floor(s), float(coeff) * w2, rel_tol=1e-12)

    def test_omega_power_family(self):
        # L = omega^n gives the floor n*w2/(4g(g-1)) exactly
        for g, n in [(2, 1), (3, 4), (5, 2)]:
            w2 = 0.83
            s = omega_power_surface(g, n, w2, RATIONAL_FIELD)
            expected = n * w2 / (4 * g * (g - 1))
            assert math.isclose(height_floor(s), expected, rel_tol=1e-12)

    def test_extremal_inequality_on_family(self):
        # 2m * floor <= l2 on the omega-power family
        for g, n in [(2, 1), (3, 2), (4, 5)]:
            s = omega_power_surface(g, n, 2.4, RATIONAL_FIELD)
            assert 2 * s.degree * height_floor(s) <= s.l2 + 1e-12


class TestLambdaFloor:
    def test_formula_reassembled(self):
        s = SurfaceData(2, 12, 7.0, 1.5, 0.8, RATIONAL_FIELD)
        k, e = 3, 0.21
        d = degree_formula(2, 12, 2)
        expected = (k * (7.0 - 24 * e) + 144 * e - math.log(d * 14)) / 144 - 1
        assert math.isclose(lambda_floor(s, k, e), expected, rel_tol=1e-12)

    def test_extremal_reduces_and_is_k_independent_in_bracket(self):
        s = SurfaceData(2, 12, 7.0, 1.5, 0.8, RATIONAL_FIELD)
        e = s.l2 / (2 * s.degree)
        for k in (2, 3, 4, 5):
            d = degree_formula(2, 12, k - 1)
            reduced = s.l2 / (2 * s.degree) - math.log(d * 14) / 144 - 1
            assert math.isclose(lambda_floor(s, k, e), reduced, rel_tol=1e-9)

    def test_k_step_difference(self):
        # with fixed e_val the k -> k+1 difference is the slack term minus the log step
        s = SurfaceData(3, 20, 9.0, 2.0, 1.0, IMAG_QUADRATIC)
        e = 0.15
        for k in (2, 4, 7):
            lhs = lambda_floor(s, k + 1, e) - lambda_floor(s, k, e)
            dk = degree_formula(3, 20, k)
            dk1 = degree_formula(3, 20, k - 1)
            rhs = ((s.l2 - 40 * e) - math.log(Fraction(dk, dk1)) * 2) / (400 * 2)
            assert math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-12)

    def test_default_e_val_is_height_floor(self):
        s = SurfaceData(2, 11, 3.0, 1.0, 0.5, RATIONAL_FIELD)
        assert lambda_floor(s, 2) == lambda_floor(s, 2, height_floor(s))

    def test_preconditions(self):
        s = SurfaceData(2, 12, 7.0, 1.5, 0.8, RATIONAL_FIELD)
        with pytest.raises(ParameterError):
            lambda_floor(s, 1)
        with pytest.raises(ParameterError):
            lambda_floor(s, 6)

    @pytest.mark.parametrize("floor", [lambda_floor, mu_floor])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_e_val_rejected(self, floor, bad):
        s = SurfaceData(2, 12, 7.0, 1.5, 0.8, RATIONAL_FIELD)
        with pytest.raises(ParameterError, match=r"^e_val must be finite, got (nan|inf|-inf)$"):
            floor(s, 3, bad)
        # k and m are checked first, in the same place
        with pytest.raises(ParameterError, match="^k must exceed 1"):
            floor(s, 1, bad)
        with pytest.raises(ParameterError, match="^need m > 2k"):
            floor(s, 6, bad)


class TestMuFloor:
    def test_k_two_boundary(self):
        s = SurfaceData(2, 10, 6.0, 1.0, 0.4, RATIONAL_FIELD)
        e = 0.3
        log_sum = math.log(1 * 12) + math.log(degree_formula(2, 10, 1) * 12)
        expected = -transference_constant(10, RATIONAL_FIELD) + (
            3 * (6.0 - 20 * e) + 2 * 100 * e - log_sum
        ) / 100
        assert math.isclose(mu_floor(s, 2, e), expected, rel_tol=1e-12)

    def test_rational_field_constant_form(self):
        # over the rationals the constant reduces to (m+g-1)log2 - log B_{m+g-2}
        s = SurfaceData(3, 9, 5.0, 1.0, 0.2, RATIONAL_FIELD)
        m, g = 9, 3
        c = (m + g - 1) * math.log(2) - ball_volume_log(m + g - 2)
        assert math.isclose(transference_constant(m + g - 2, RATIONAL_FIELD), c, rel_tol=1e-12)
        assert math.isfinite(mu_floor(s, 2))

    def test_preconditions(self):
        s = SurfaceData(2, 10, 6.0, 1.0, 0.4, RATIONAL_FIELD)
        with pytest.raises(ParameterError):
            mu_floor(s, 1)
        with pytest.raises(ParameterError):
            mu_floor(s, 5)

    def test_bracket_scales_with_field_degree(self):
        # doubling the field degree and every intersection number doubles the
        # bracket; recovered here by adding the constant back to each value
        k = 2
        s1 = SurfaceData(2, 10, 6.0, 1.0, 0.4, RATIONAL_FIELD)
        f2 = NumberFieldData(2, 2, 0, math.log(5))
        s2 = SurfaceData(2, 10, 12.0, 2.0, 0.8, f2)
        assert math.isclose(height_floor(s2), 2 * height_floor(s1), rel_tol=1e-12)
        c1 = transference_constant(10, RATIONAL_FIELD)
        c2 = transference_constant(10, f2)
        bracket1 = mu_floor(s1, k) + c1
        bracket2 = mu_floor(s2, k) + c2
        assert math.isclose(bracket2, 2 * bracket1, rel_tol=1e-12)


class TestTopLambdaFloor:
    def test_parity_indices(self):
        odd = SurfaceData(2, 11, 4.0, 1.0, 0.3, RATIONAL_FIELD)
        even = SurfaceData(2, 12, 4.0, 1.0, 0.3, RATIONAL_FIELD)
        assert top_lambda_floor(odd)[0] == 11 - 2 - 1
        assert top_lambda_floor(even)[0] == 12 - 2

    def test_filled_secant_is_clamped_finite(self):
        # D(2,11,7) = 0 by the closed sum; the log term must use degree 1
        s = SurfaceData(2, 11, 4.0, 1.0, 0.3, RATIONAL_FIELD)
        assert degree_formula(2, 11, 7) == 0
        index, value = top_lambda_floor(s)
        assert index == 8 and math.isfinite(value)
        expected = (4.0 - math.log(1 * 13)) / 22 - 1
        assert math.isclose(value, expected, rel_tol=1e-12)

    def test_within_formula_range_uses_formula(self):
        s = SurfaceData(2, 7, 4.0, 1.0, 0.3, RATIONAL_FIELD)
        index, value = top_lambda_floor(s)
        assert index == 4
        expected = (4.0 - math.log(degree_formula(2, 7, 3) * 9)) / 14 - 1
        assert math.isclose(value, expected, rel_tol=1e-12)

    def test_vacuous_negative_bound_still_returned(self):
        s = SurfaceData(3, 9, 0.0, 0.0, 0.0, RATIONAL_FIELD)
        _, value = top_lambda_floor(s)
        assert value < 0

    def test_rejects_low_index(self):
        with pytest.raises(ParameterError):
            top_lambda_floor(SurfaceData(2, 3, 1.0, 0.0, 0.0, RATIONAL_FIELD))


class TestOmegaPowerBounds:
    def test_lambda_hand_assembled(self):
        # g=3, n=2, k=1: m=8, D(3,8,0)=1
        w2 = 1.7
        got = omega_lambda_floor(3, 2, 1, w2, RATIONAL_FIELD)
        expected = (1 + 2) / (4 * 3 * 2) * w2 - math.log(1 * 11) / 64
        assert math.isclose(got, expected, rel_tol=1e-12)

    def test_lambda_zero_omega_is_log_term(self):
        got = omega_lambda_floor(3, 2, 1, 0.0, RATIONAL_FIELD)
        assert math.isclose(got, -math.log(11) / 64, rel_tol=1e-12)

    def test_log_term_growth_observational(self):
        # the log summand stays below a small multiple of log(m)/(2m)
        for g in (2, 3):
            for n in range(1, 51):
                if (g - 1) * n <= 1:
                    continue
                m = 2 * (g - 1) * n
                d = max(degree_formula(g, m, 0), 1)
                term = math.log(d * (m + g)) / (m * m)
                assert term <= 4 * math.log(m) / (2 * m)

    def test_mu_matches_direct_assembly(self):
        g, n, k, w2 = 3, 3, 2, 0.9
        s = omega_power_surface(g, n, w2, RATIONAL_FIELD)
        assert omega_mu_floor(g, n, k, w2, RATIONAL_FIELD) == mu_floor(s, k)

    def test_mu_allows_k_one(self):
        assert math.isfinite(omega_mu_floor(2, 3, 1, 1.0, RATIONAL_FIELD))

    def test_mu_bracket_on_family(self):
        # with the height floor, the bracket equals n^2 (g-1)/g [k(k+1)/2 + kn] w2
        g, n, k, w2 = 4, 2, 3, 1.25
        s = omega_power_surface(g, n, w2, RATIONAL_FIELD)
        e = height_floor(s)
        m = s.degree
        bracket = (k * (k + 1) / 2) * (s.l2 - 2 * m * e) + k * m * m * e
        expected = n * n * (g - 1) / g * (k * (k + 1) / 2 + k * n) * w2
        assert math.isclose(bracket, expected, rel_tol=1e-12)

    def test_disc_coefficient_identity(self):
        g, n, k = 3, 2, 2
        m = 2 * (g - 1) * n
        assert m + g - 1 == (2 * n + 1) * (g - 1)
        d1, d2 = math.log(3), math.log(7)
        f1 = NumberFieldData(2, 0, 1, d1)
        f2 = NumberFieldData(2, 0, 1, d2)
        diff = omega_mu_floor(g, n, k, 1.0, f1) - omega_mu_floor(g, n, k, 1.0, f2)
        assert math.isclose(diff, -(2 * n + 1) * (g - 1) / 2 * (d1 - d2), rel_tol=1e-9)

    def test_zero_omega_trivial_disc(self):
        g, n, k = 2, 4, 2
        got = omega_mu_floor(g, n, k, 0.0, RATIONAL_FIELD)
        m = 2 * (g - 1) * n
        log_sum = sum(
            math.log(max(degree_formula(g, m, j - 1), 1) * (m + g)) for j in range(1, k + 1)
        )
        expected = -transference_constant(m + g - 2, RATIONAL_FIELD) - log_sum / (m * m)
        assert math.isclose(got, expected, rel_tol=1e-12)

    def test_range_rejected(self):
        with pytest.raises(ParameterError):
            omega_lambda_floor(3, 2, 4, 1.0, RATIONAL_FIELD)  # k >= (g-1)n
        with pytest.raises(ParameterError):
            omega_mu_floor(2, 1, 1, 1.0, RATIONAL_FIELD)

    @pytest.mark.parametrize("floor", [omega_lambda_floor, omega_mu_floor])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e308])  # 1e308: l2 = n^2 omega2 overflows
    def test_non_finite_omega2_rejected(self, floor, bad):
        with pytest.raises(ParameterError, match="^intersection numbers must be finite"):
            floor(3, 2, 1, bad, RATIONAL_FIELD)

    @pytest.mark.parametrize("floor", [omega_lambda_floor, omega_mu_floor])
    def test_surface_checked_before_k(self, floor):
        # the omega-power surface's checks come first, then the range of k
        with pytest.raises(ParameterError, match="^genus must be >= 2, got 1$"):
            floor(1, 2, 1, 1.0, RATIONAL_FIELD)
        with pytest.raises(ParameterError, match="^power must be >= 1, got 0$"):
            floor(3, 0, 1, 1.0, RATIONAL_FIELD)
        with pytest.raises(ParameterError, match="^omega2 must be >= 0, got -1.0$"):
            floor(3, 2, 9, -1.0, RATIONAL_FIELD)


class TestReports:
    def test_replay_is_bit_identical(self):
        r = make_report(
            "lambda", g=2, m=12, k=3, L2=7.0, Lw=1.5, w2=0.8, degK=1, r1=1, r2=0, log_disc=0.0
        )
        assert r.replay() == r.value
        again = make_report(
            "lambda", g=2, m=12, k=3, L2=7.0, Lw=1.5, w2=0.8, degK=1, r1=1, r2=0, log_disc=0.0
        )
        assert again.value == r.value and again.inputs == r.inputs

    def test_line_has_fixed_key_order(self):
        r = make_report("constant", N=2, rank_shift=False, degK=1, r1=1, r2=0, log_disc=0.0)
        assert r.kind == "constant" and r.inputs[:2] == (("N", 2), ("degK", 1))
        assert [k for k, _ in r.inputs] == ["N", "degK", "log_disc", "r1", "r2", "rank_shift"]
        assert r.value == transference_constant(2, RATIONAL_FIELD)

    def test_non_finite_value_rejected(self):
        inputs = {"g": 2, "m": 12, "L2": 1e308, "Lw": 0.0, "w2": 1e308, "degK": 1, "r1": 1, "r2": 0, "log_disc": 0.0}
        with pytest.raises(ParameterError, match="^bound height evaluates to inf"):
            make_report("height", **inputs)
        with pytest.raises(ParameterError, match="^bound height evaluates to inf"):
            BoundReport("height", 0.0, tuple(sorted(inputs.items()))).replay()

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            evaluate("nonsense", {})

    def test_top_parity_guard(self):
        with pytest.raises(ParameterError):
            evaluate(
                "top-odd",
                {"g": 2, "m": 12, "L2": 1.0, "Lw": 0.0, "w2": 0.0, "degK": 1, "r1": 1, "r2": 0, "log_disc": 0.0},
            )

    def test_defaults_filled_and_echoed(self):
        r = make_report("height", g=2, m=2, L2=1.0, degK=1, r1=1, r2=0, log_disc=0.0)
        assert ("Lw", 0.0) in r.inputs and ("w2", 0.0) in r.inputs
        assert r.value == make_report("height", g=2, m=2, L2=1.0, Lw=0.0, w2=0.0, degK=1, r1=1, r2=0, log_disc=0.0).value
        assert r.replay() == r.value
        c = make_report("constant", N=2, degK=1, r1=1, r2=0, log_disc=0.0)
        assert ("rank_shift", False) in c.inputs

    def test_e_val_left_out_is_not_echoed(self):
        field = {"degK": 1, "r1": 1, "r2": 0, "log_disc": 0.0}
        implicit = make_report("lambda", g=2, m=12, k=3, L2=7.0, **field)
        explicit = make_report("lambda", g=2, m=12, k=3, L2=7.0, e_val=None, **field)
        assert implicit == explicit
        assert "e_val" not in dict(implicit.inputs)
        given = make_report("lambda", g=2, m=12, k=3, L2=7.0, e_val=0.2, **field)
        assert dict(given.inputs)["e_val"] == 0.2
        assert given.value == lambda_floor(SurfaceData(2, 12, 7.0, 0.0, 0.0, RATIONAL_FIELD), 3, 0.2)

    @pytest.mark.parametrize(
        "kind, inputs, error",
        [
            ("lambda", {"g": 2, "m": 12, "L2": 7.0, "degK": 1, "r1": 1, "r2": 0, "log_disc": 0.0}, "bound lambda needs k"),
            ("height", {"g": 2, "m": 2, "L2": 1.0, "degK": 1, "r1": 1, "r2": 0}, "bound height needs log_disc"),
            ("omega-mu", {"g": 3, "n": 2, "w2": 1.0}, "bound omega-mu needs k, degK, r1, r2, log_disc"),
            ("top-odd", {"g": 2, "m": 11, "L2": 4.0, "k": 3, "zzz": 1}, "bound top-odd does not read k, zzz"),
            ("constant", {"g": 2}, "bound constant does not read g"),
        ],
        ids=["no-k", "no-log-disc", "no-k-no-field", "unread", "unread-before-missing"],
    )
    def test_missing_or_unread_input_rejected(self, kind, inputs, error):
        with pytest.raises(ParameterError, match=f"^{error}$"):
            make_report(kind, **inputs)
        with pytest.raises(ParameterError, match=f"^{error}$"):
            evaluate(kind, inputs)
        with pytest.raises(ParameterError, match=f"^{error}$"):
            BoundReport(kind, 0.0, tuple(sorted(inputs.items()))).replay()
