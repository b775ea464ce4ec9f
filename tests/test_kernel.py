"""Tests for the kernel curve: closed forms, identities, series oracle."""

import cmath
import io
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsmooth import _pykernels as pyk
from fracsmooth import (
    DEFAULT_QUAD,
    ConvergenceError,
    InvalidArgumentError,
    QuadConfig,
    curve_points,
    psi_eval,
    psi_many,
    series_terms_needed,
    verify_nonvanishing,
    write_curve_csv,
    xn_divergence_probe,
    xy_prime,
    z_eval,
    z_many,
    z_series,
    z_series_many,
    z_span,
)

TWO_PI = 2.0 * math.pi


def z1_exact(t):
    """Order one in closed form: z(1, t) = t - sin t + i (cos t - 1)."""
    return t - math.sin(t) + 1j * (math.cos(t) - 1.0)


def z2_exact(t):
    """Order two in closed form (expand the square and integrate)."""
    return t + 2j * (cmath.exp(1j * t) - 1.0) - 0.5j * (cmath.exp(2j * t) - 1.0)


class TestClosedForms:
    def test_order_one(self):
        for t in (0.5, 2.0, 5.0):
            assert abs(z_eval(1.0, t) - z1_exact(t)) < 1e-10

    def test_order_two(self):
        for t in (0.7, 3.0):
            assert abs(z_eval(2.0, t) - z2_exact(t)) < 1e-10

    def test_averaged_kernel_order_one(self):
        got = psi_eval(1.0, 0.5)
        assert abs(got - z1_exact(0.5) / 0.5) < 1e-12

    def test_averaged_kernel_at_zero(self):
        assert psi_eval(2.5, 0.0) == 0.0
        out = psi_many(2.5, [0.0, 1.0])
        assert out[0] == 0.0
        assert abs(out[1] - z_eval(2.5, 1.0)) < 1e-12

    def test_order_five_checkpoints(self):
        # three reference points of the order-5 curve, one per quadrant
        # visited on the last half-turn before 3 pi
        checks = [
            (13.0 * math.pi / 5.0, 3.622 + 2.327j),
            (14.0 * math.pi / 5.0, -2.803 - 5.632j),
            (27.0 * math.pi / 10.0, -0.413 + 0.504j),
        ]
        for t, want in checks:
            assert abs(z_eval(5.0, t) - want) <= 2e-3


class TestIdentities:
    def test_negation_is_minus_conjugate(self):
        for beta in (0.5, 2.5, 4.85):
            for t in (0.3, 2.0, 5.5):
                got = z_eval(beta, -t)
                assert abs(got + np.conj(z_eval(beta, t))) < 1e-10

    def test_period_shift_adds_full_turn(self):
        for beta in (0.5, 2.5):
            for t in (0.3, 3.0, 6.0):
                got = z_eval(beta, t + TWO_PI)
                assert abs(got - (z_eval(beta, t) + TWO_PI)) < 1e-9

    def test_reflection_of_real_part(self):
        for beta in (0.5, 1.7, 3.2):
            for t in (0.4, 2.2, 3.1):
                lhs = z_eval(beta, t).real
                rhs = TWO_PI - z_eval(beta, TWO_PI - t).real
                assert abs(lhs - rhs) < 1e-9

    def test_lattice_values(self):
        # the half-turn correction is purely imaginary, so x(pi) = pi
        # exactly; a full turn contributes exactly 2 pi
        for beta in (0.5, 2.5, 5.0):
            assert abs(z_eval(beta, math.pi).real - math.pi) < 1e-9
            assert abs(z_eval(beta, TWO_PI) - TWO_PI) < 1e-9
            assert abs(z_eval(beta, 2.0 * TWO_PI) - 2.0 * TWO_PI) < 1e-9

    def test_span_matches_endpoint_difference(self):
        val, mass = z_span(2.5, 0.7, 4.0)
        want = z_eval(2.5, 4.0) - z_eval(2.5, 0.7)
        assert abs(val - want) < 1e-9
        assert mass > 0.0

    def test_span_degenerate_and_invalid(self):
        assert z_span(2.5, 1.0, 1.0) == (0.0j, 0.0)
        with pytest.raises(InvalidArgumentError):
            z_span(2.5, 4.0, 0.7)
        with pytest.raises(InvalidArgumentError):
            z_span(2.5, -1.0, 1.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidArgumentError):
            z_eval(0.0, 1.0)
        with pytest.raises(InvalidArgumentError):
            z_eval(-1.0, 1.0)
        with pytest.raises(InvalidArgumentError):
            z_eval(math.inf, 1.0)
        with pytest.raises(InvalidArgumentError):
            z_many(1.0, [1.0, math.nan])


class TestSeriesRoute:
    def test_integer_order_needs_exactly_order_terms(self):
        assert series_terms_needed(5.0, 1e-12) == 5
        assert series_terms_needed(1.0, 1e-3) == 1

    def test_order_one_value(self):
        assert z_series(1.0, math.pi) == math.pi - 2j

    def test_matches_quadrature_on_grid(self):
        ts = np.array([0.3, math.pi, TWO_PI - 0.1, 7.0, 13.0])
        for beta in (0.5, 1.5, 2.5, 4.85, 6.0):
            quad = z_many(beta, ts)
            series = z_series_many(beta, ts, tol=1e-10)
            assert np.max(np.abs(quad - series)) <= 1e-8, beta

    def test_cap_exceeded_reports_terms(self):
        # slow tail at small order: the default cap cannot reach 1e-9
        for route in (z_series, z_series_many):
            with pytest.raises(ConvergenceError, match="terms") as info:
                route(0.15, 1.0)
            assert info.value.achieved > 1e-9

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            series_terms_needed(2.0, 0.0)
        with pytest.raises(InvalidArgumentError):
            series_terms_needed(-2.0, 1e-9)

    @settings(max_examples=60, deadline=None)
    @given(beta=st.floats(0.4, 6.0), t=st.floats(-9.0, 9.0))
    def test_negation_is_minus_conjugate(self, beta, t):
        lhs = z_series(beta, -t, tol=1e-6)
        rhs = -np.conj(z_series(beta, t, tol=1e-6))
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))


class TestDerivative:
    def test_closed_form_at_pi(self):
        for beta in (0.5, 2.5, 5.0):
            dx, dy = xy_prime(beta, math.pi)
            assert dx == pytest.approx(2.0 ** beta, rel=1e-12)
            assert abs(dy) < 1e-12

    def test_vanishes_at_zero(self):
        assert xy_prime(2.5, 0.0) == (0.0, 0.0)

    def test_periodic(self):
        a = xy_prime(2.5, 1.0)
        b = xy_prime(2.5, 1.0 + TWO_PI)
        assert abs(a[0] - b[0]) < 1e-9
        assert abs(a[1] - b[1]) < 1e-9

    def test_matches_difference_quotient(self):
        h = 1e-4
        for beta, t in ((2.5, 3.3), (3.3, 2.0)):
            quot = (z_series(beta, t + h, tol=1e-12)
                    - z_series(beta, t - h, tol=1e-12)) / (2.0 * h)
            dx, dy = xy_prime(beta, t)
            assert abs(quot - complex(dx, dy)) < 1e-6


class TestDivergenceProbe:
    def test_first_order_probe_is_zero(self):
        # n = 1 evaluates at t = 0 where the curve starts
        assert xn_divergence_probe(1) == 0.0

    def test_strictly_decreasing_and_unbounded(self):
        vals = [xn_divergence_probe(n) for n in range(5, 21)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[0] == pytest.approx(-50.78523896105736, rel=1e-10)
        assert vals[-1] == pytest.approx(-4118670861.0726085, rel=1e-10)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidArgumentError):
            xn_divergence_probe(0)


class TestQuadratureConfig:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            QuadConfig(abs_tol=0.0)
        with pytest.raises(InvalidArgumentError):
            QuadConfig(max_subdiv=3)
        assert QuadConfig() == DEFAULT_QUAD

    def test_budget_exhaustion_raises(self):
        with pytest.raises(ConvergenceError, match="subdivisions"):
            z_eval(0.5, 6.0, QuadConfig(abs_tol=1e-14, max_subdiv=4))

    def test_tighter_tolerance_still_converges(self):
        loose = z_eval(2.5, 3.0)
        tight = z_eval(2.5, 3.0, QuadConfig(abs_tol=1e-12, max_subdiv=4000))
        assert abs(loose - tight) < 1e-9


class TestCore:
    """The NumPy core and its panel rule ``gk15_panels``."""

    def test_error_estimate_is_small_on_smooth_panel(self):
        vals, errs, absmag = pyk.gk15_panels(2.0, np.array([1.0]),
                                             np.array([1.5]))
        assert errs[0] <= 1e-12 * absmag[0]

    def test_panels_match_mpmath(self):
        edges = np.linspace(1e-3, 5.5, 9)
        a, b = edges[:-1], edges[1:]
        for beta in (0.5, 2.5, 6.0):
            vals, errs, absmag = pyk.gk15_panels(beta, a, b)
            with mpmath.workdps(30):
                def f(phi):
                    return ((2 * mpmath.sin(phi / 2)) ** beta
                            * mpmath.expj(beta * (phi - mpmath.pi) / 2))
                want = np.array([complex(mpmath.quad(f, [lo, hi]))
                                 for lo, hi in zip(a, b)])
            # (2 sin(phi/2))^beta is not smooth at phi = 0, just left of
            # the first panel, so one 15-point rule resolves that panel
            # only to its own error estimate (5e-6 of its mass at 0.5)
            tol = 1e-12 * absmag
            tol[0] = errs[0]
            assert np.all(np.abs(vals - want) <= tol), beta


class TestNonvanishingFloors:
    # minimum of |z| over [0.05, pi - 0.05] at step 1e-3, frozen values;
    # the floor collapses roughly like 2^-beta at the conditioning wall,
    # so positivity carries the weight once the value dips below 1e-9
    FLOORS = {
        0.5: 0.007453353622551931,
        1.0: 0.0012499131968556837,
        2.5: 7.984143652374743e-06,
        4.85: 4.184123012158149e-09,
        6.0: 1.1153765064563083e-10,
        8.0: 2.1683048663339964e-13,
    }

    def test_floor_regression(self):
        for beta, frozen in self.FLOORS.items():
            floor = verify_nonvanishing(beta, 0.05, math.pi - 0.05, 3042)
            assert floor > 0.0, beta
            assert abs(floor - frozen) <= 1e-9, beta

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            verify_nonvanishing(1.0, 0.0, 1.0, 8)
        with pytest.raises(InvalidArgumentError):
            verify_nonvanishing(1.0, 0.5, 1.0, 1)


class TestCurveExport:
    def test_points_match_closed_form(self):
        pts = curve_points(1.0, 0.5, 2.5, 5)
        assert len(pts) == 5
        assert pts[0].t == 0.5 and pts[-1].t == 2.5
        for p in pts:
            assert p.z == complex(p.x, p.y)
            assert abs(p.z - z1_exact(p.t)) < 1e-10

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            curve_points(1.0, 0.5, 2.5, 1)
        with pytest.raises(InvalidArgumentError):
            curve_points(1.0, 2.5, 0.5, 10)

    def test_csv_round_trip(self):
        pts = curve_points(2.5, 0.3, 4.0, 7)
        buf = io.StringIO()
        write_curve_csv(buf, pts)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "beta,t,x,y"
        assert len(lines) == 8
        for line, p in zip(lines[1:], pts):
            beta, t, x, y = (float(s) for s in line.split(","))
            assert (beta, t, x, y) == (p.beta, p.t, p.x, p.y)
