"""Tests for the kernel curve: closed forms, identities, series oracle."""

import cmath
import io
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsmooth import _pykernels as pyk
from fracsmooth import kernel
from fracsmooth import (
    ConvergenceError,
    InvalidArgumentError,
    beurling_bound,
    curve_points,
    equivalence_scan,
    make_g_tau,
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
from fracsmooth._util import fmt17, gauss_legendre
from fracsmooth.signal import corpus
from mpmath_oracles import z_mpmath

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

    @pytest.mark.parametrize("beta", [0.5, 2.5, 7.3])
    def test_psi_at_minus_t_is_the_conjugate_bitwise(self, beta):
        # the symbols of the linearized and star moduli at -k h, and so
        # the real synthesis of a real f; t = 2pi m lies on the lattice
        ts = np.concatenate([np.arange(1, 17) * 0.2, np.arange(1, 9) * 1.1,
                             TWO_PI * np.arange(1, 4), [math.pi, 5.04]])
        pos = psi_many(beta, ts)
        neg = psi_many(beta, -ts)
        assert np.array_equal(neg.view(np.uint64),
                              np.conj(pos).view(np.uint64)), beta

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

    @pytest.mark.parametrize("a, b, reads", [
        (math.pi, 4.0, 2), (3.5, 5.0, 2), (1.0, 4.0, 4), (1.0, 2.0, 2),
        (0.0, TWO_PI, 2)])
    def test_span_reads_only_the_pieces_it_spans(self, a, b, reads, counting):
        # a span that starts at or past pi has no piece below pi, so it
        # reads its two mirrored ends and nothing at pi; an end at 0 or
        # 2pi, where z is 0, reads nothing, and every end that is read
        # comes from the one table that z_span resolved
        tables = counting(kernel, "_table")
        calls = counting(kernel, "_point")
        val, mass = z_span(2.5, a, b)
        assert len(tables) == 1 and len(calls) == reads
        assert all(tab is kernel._TABLES[2.5] for tab, _ in calls)
        assert abs(val - (z_eval(2.5, b) - z_eval(2.5, a))) < 1e-9
        assert mass > 0.0

    @pytest.mark.parametrize("size", [1, 16])
    def test_batch_resolves_one_table(self, size, counting):
        # a short batch reads its points through _point from the one
        # table that _sums resolved
        tables = counting(kernel, "_table")
        kernel._sums(3.3, np.linspace(1e-3, math.pi, size))
        assert len(tables) == 1

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

    @pytest.mark.parametrize("beta", [0.5, 1.5, 2.5, 4.85])
    def test_within_tol_of_mpmath(self, beta):
        ts = [0.3, 2.0, math.pi, 5.5, 13.0]
        got = z_series_many(beta, ts, tol=1e-9)
        for t, z in zip(ts, got):
            assert abs(z - z_mpmath(beta, t)) <= 1e-9, t

    def test_cap_exceeded_reports_terms(self):
        # slow tail at small order: the default cap cannot reach 1e-9
        for route in (z_series, z_series_many):
            with pytest.raises(ConvergenceError, match="terms") as info:
                route(0.15, 1.0)
            assert info.value.achieved > 1e-9

    @pytest.mark.parametrize("cap", [0, -1, 2.5, math.nan])
    def test_rejects_a_cap_that_is_not_a_whole_number(self, cap):
        # an argument error, not a series that outgrows its cap
        for route in (z_series, z_series_many):
            with pytest.raises(InvalidArgumentError, match="cap"):
                route(2.5, 1.0, cap=cap)

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


class TestBetaDerivative:
    """d z / d beta (``kernel._z_dbeta``) against mpmath quadrature of
    f(phi) (log(2 sin(phi/2)) + i (phi - pi)/2) over [0, t]."""

    @staticmethod
    def assert_matches_mpmath(beta, ts):
        # the tolerance is relative to the absolute mass of the integrand,
        # which bounds the rounding of any quadrature of it (the value
        # itself passes through zero); the integrand is scaled to [0, 1],
        # phi = t u, and by the peak M of |f| on [0, t], so that the
        # quadrature's absolute tolerance is relative to the mass near 0
        # too (as in ``z_mpmath``)
        for t in ts:
            with mpmath.workdps(20):
                t_mp = mpmath.mpf(t)
                peak = 2 * mpmath.sin(min(t_mp, mpmath.pi) / 2)

                def df(u):
                    phi = t_mp * u
                    w = (mpmath.log(2 * mpmath.sin(phi / 2))
                         + 0.5j * (phi - mpmath.pi))
                    return (2 * mpmath.sin(phi / 2) / peak) ** beta * (
                        mpmath.expj(beta * (phi - mpmath.pi) / 2) * w)
                cuts = mpmath.linspace(0, 1, 5)
                scale = t_mp * peak ** beta
                want = complex(scale * mpmath.quad(df, cuts))
                mass = float(scale * mpmath.quad(lambda u: abs(df(u)), cuts))
            assert abs(kernel._z_dbeta(beta, t) - want) <= 1e-12 * mass, t

    @pytest.mark.parametrize("beta", [4.8, 8.0, 16.0, 39.5])
    def test_matches_mpmath_quadrature(self, beta):
        # three t in each half-period
        self.assert_matches_mpmath(beta, (0.9, 1.9, 2.9, 3.5, 4.5, 5.5))

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.5])
    def test_small_t_matches_mpmath_quadrature(self, beta):
        # below the table's start, the derivative of the series
        self.assert_matches_mpmath(beta, (1e-3, 1e-2, 0.3))

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.5, 3.9, 4.84, 8.0, 12.7,
                                      40.0])
    def test_matches_mpmath_below_and_above_the_start(self, beta):
        # the series up to the start s, and the panels from there on
        start = kernel._series_top(beta)
        self.assert_matches_mpmath(beta, [
            f * start for f in (1.0 / 64.0, 0.1, 1.0 / 3.0, 0.7, 1.0, 1.3)])

    @pytest.mark.parametrize("beta", [0.5, 4.84, 12.7])
    def test_continuous_across_binade_edges(self, beta):
        # at 2^k a panel ends, and at the start the series hands over to
        # the panels
        for t in (math.ldexp(1.0, -3), 1.0, 2.0, kernel._series_top(beta)):
            below = kernel._z_dbeta(beta, t)
            above = kernel._z_dbeta(beta, math.nextafter(t, math.pi))
            assert abs(above - below) <= 1e-14 * abs(below), t

    def test_zero_at_and_below_the_least_head(self):
        # at and below the underflow floor 2^lowest, z and d z / d beta
        # are 0
        beta = 0.5
        least = math.ldexp(1.0, kernel._lowest(beta))
        assert kernel._z_dbeta(beta, least) == 0j
        assert kernel._z_dbeta(beta, 0.0) == 0j

    def test_builds_no_table(self, table_builds):
        # the Newton steps of the crossing search read z at (beta, t)
        # first, and d z / d beta there reads the same table, so it builds
        # none; past pi both read the mirror point
        kernel._TABLES.clear()
        for beta, t in ((0.5, 0.01), (4.84, 2.2), (12.7, 5.0)):
            z_many(beta, [t])
            builds = len(table_builds)
            assert cmath.isfinite(kernel._z_dbeta(beta, t))
            assert len(table_builds) == builds, (beta, t)


class TestMirror:
    """Past pi, z is the mirror image z(2pi - s) = 2pi - conj(z(s))."""

    def test_point_past_pi_leaves_the_peak_out(self):
        # z at 5.04 is the mirror image of z at 2pi - 5.04, whose quadrature
        # leaves the integrand's peak 2^39 at pi out: the noise stays far
        # below the 8 eps 2^39 ~ 1e-3 of a quadrature through the peak
        beta = 39.15
        for t in (5.04, 5.04 + 2.0 * TWO_PI):
            zs, noise = z_many(beta, [t], with_noise=True)
            assert noise[0] < 1e-11
            assert abs(zs[0] - z_mpmath(beta, t)) <= 4.0 * noise[0], t

    @pytest.mark.parametrize("beta, ts", [
        (12.7, np.linspace(0.5, 40.0, 25)), (66.0, [TWO_PI - 1.2])])
    def test_noise_covers_the_float_two_pi(self, beta, ts):
        # the mirror and the period shift reduce t by the float 2pi, which
        # is 2.4e-16 short of 2pi; the reported noise covers what that
        # moves z by, |z'(t)| times a few ulps per turn (39.15 at
        # 5.04 + 4pi is the shifted point of the test above)
        zs, noise = z_many(beta, ts, with_noise=True)
        want = np.array([z_mpmath(beta, t) for t in ts])
        assert np.all(np.abs(zs - want) <= 4.0 * noise), beta

    def test_shifted_noise_stays_finite_at_the_top_orders(self):
        # 40 turns times |z'(3)| ~ 7e306 leave the floats unless the
        # rounding factor scales |z'| first; the suite turns the overflow
        # warning into an error
        beta, t = 1023.0, 3.0 + 80.0 * math.pi
        zs, noise = z_many(beta, [t], with_noise=True)
        assert np.isfinite(zs).all() and np.isfinite(noise).all()
        t0 = t - 40.0 * TWO_PI
        slope = kernel._round(beta) * (2.0 * math.sin(0.5 * t0)) ** beta
        assert 40.0 * slope <= noise[0] <= 1.01 * 40.0 * slope


class TestLargeOrder:
    """Orders from 70 to 120, where the integrand's own rounding grows
    like beta, and so does the table's rounding floor."""

    @pytest.mark.parametrize("beta, t", [
        (80.0, 4.5), (100.0, 2.0), (100.0, 1.7832), (70.0, 2.5),
        (120.0, 2.0), (120.0, 3.0)])
    def test_point_matches_mpmath(self, beta, t):
        want = z_mpmath(beta, t)
        assert abs(z_eval(beta, t) - want) <= 1e-13 * abs(want)

    def test_large_batch_converges(self):
        # a wide batch converges whenever its points converge alone; every
        # 512th point against mpmath, within 4 times its noise
        ts = np.linspace(0.05, math.pi, 8192)
        zs, noise = z_many(100.0, ts, with_noise=True)
        for i in range(0, ts.size, 512):
            err = abs(zs[i] - z_mpmath(100.0, ts[i]))
            assert err <= 4.0 * noise[i], (ts[i], err / noise[i])


class TestCorpusSteps:
    """psi at the steps k h of the equivalence corpus: the table is built
    once, and the values match mpmath."""

    @pytest.mark.parametrize("beta", [0.5, 2.5])
    @pytest.mark.parametrize("h", [0.05, 0.2, 1.0])
    def test_psi_matches_mpmath(self, beta, h):
        ts = np.arange(1, 17) * h
        want = np.array([z_mpmath(beta, t) / t for t in ts])
        err = np.abs(psi_many(beta, ts) - want)
        assert np.all(err <= 2e-14), (beta, h)
        assert np.all(err <= 1e-13 * np.abs(want)), (beta, h)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 2.5])
    def test_no_split_and_no_rebuild(self, beta, table_builds):
        # the table's edges resolve every panel, and once the table
        # reaches the largest step, no call builds panels again
        kernel._TABLES.pop(beta, None)
        for _ in range(2):
            table_builds.clear()
            for h in (0.05, 0.2, 1.0):
                for degree in (1, 3, 8, 16):
                    psi_many(beta, np.arange(-degree, degree + 1) * h)
        assert table_builds == []
        tab = kernel._TABLES[beta]
        assert tab.panels == tab.left.size > 0


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
        for n in (0, 2.7, math.nan):
            with pytest.raises(InvalidArgumentError, match="whole number"):
                xn_divergence_probe(n)


class TestQuadratureConfig:
    """The one quadrature setting of ``kernel``: the z table's rounding
    floor, its panel cap, and its reach, past which the table would
    overflow."""

    def test_budget_exhaustion_raises(self, monkeypatch):
        # with no rounding floor no panel is resolved, and the table is
        # refused, not cached (2pi - 3 lies above the table's start 1, so
        # the point needs panels)
        monkeypatch.setattr(kernel, "_tail_floor", lambda beta: 0.0)
        kernel._TABLES.pop(0.5, None)
        with pytest.raises(ConvergenceError, match="not resolved") as info:
            z_eval(0.5, 3.0)
        assert info.value.achieved > 0.0
        assert 0.5 not in kernel._TABLES

    @pytest.mark.parametrize("beta", np.geomspace(1e-3, 1020.0, 50))
    def test_edges_resolve_every_panel(self, beta):
        # one pass builds the whole table, from its start to the reach,
        # with no panel above its floor
        tab = kernel._Table(beta, kernel._reach(beta))
        assert tab.panels == tab.left.size > 0
        assert np.isfinite(tab.coef).all() and np.isfinite(tab.prefix).all()

    def test_reach_near_pi(self, table_builds):
        # up to order 1020.32 a table reaches pi; above, a point computes
        # within the reach (3.009 at order 1023.5) and raises "not finite"
        # past it, before any panel is built
        betas, refused = np.arange(1000.0, 1024.0, 0.5), []
        for beta in betas:
            reach = kernel._reach(beta)
            assert (reach == math.pi) == (beta <= 1020.0), beta
            for t in (2.9, 3.0, math.pi):
                kernel._TABLES.pop(beta, None)
                table_builds.clear()
                if t > reach:
                    with pytest.raises(ConvergenceError, match="not finite"):
                        z_many(beta, [t])
                    assert table_builds == [], (beta, t)
                    refused.append((beta, t))
                else:
                    zs, noise = z_many(beta, [t], with_noise=True)
                    assert np.isfinite(zs).all() and np.isfinite(noise).all()
            kernel._TABLES.pop(beta, None)
        assert refused == [(beta, math.pi) for beta in betas[betas > 1020.0]]

    @pytest.mark.parametrize("beta", [1016.0, 1020.0])
    def test_near_pi_matches_mpmath(self, beta):
        # points that the reach refused while it allowed e^_GROWTH of
        # growth across a panel
        t = 3.0
        zs, noise = z_many(beta, [t], with_noise=True)
        with mpmath.workdps(40):
            # on [0, 2.5], |f| is below e^-50 of its value at 3
            def f(phi):
                return mpmath.exp(beta * (mpmath.log(2 * mpmath.sin(phi / 2))
                                          + 0.5j * (phi - mpmath.pi)))
            want = complex(mpmath.quad(f, mpmath.linspace(2.5, t, 21),
                                       method="gauss-legendre"))
        assert abs(zs[0] - want) <= 4.0 * noise[0]

    def test_overflowing_integrand_raises(self):
        # past phi = pi/3 the base 2 sin(phi/2) exceeds 1, and at beta = 1e4
        # its power overflows; z must fail, not return nan.  No overflow
        # warning may escape either (the suite turns warnings into errors)
        for ts in ([2.0, 3.0], [0.5, 3.0], [-3.0]):
            with pytest.raises(ConvergenceError, match="not finite"):
                z_many(1e4, ts)
        with pytest.raises(ConvergenceError, match="not finite"):
            psi_eval(1e4, 2.0)

    def test_table_size_is_capped(self):
        # at order 1e5 the table up to 1.05, inside its reach, would need
        # about 95k panels; it is refused before any is built
        kernel._TABLES.pop(1e5, None)
        assert 1.05 < kernel._reach(1e5)
        with pytest.raises(ConvergenceError, match="panels"):
            z_many(1e5, [1.05])
        assert 1e5 not in kernel._TABLES

    def test_overflow_raises_before_any_build(self, table_builds):
        # the reach tells in advance where the integrand overflows, so no
        # panel is built for a point past it
        kernel._TABLES.pop(1e4, None)
        with pytest.raises(ConvergenceError, match="not finite"):
            z_many(1e4, [2.0])
        with pytest.raises(ConvergenceError, match="not finite"):
            kernel.z_span(1e4, 2.0, 3.0)
        assert table_builds == []
        assert 1e4 not in kernel._TABLES

    def test_overflowing_span_raises(self):
        # spans inside [0, pi], one from near 0, and a span past pi, whose
        # mirror image overflows
        for a, b in ((2.0, 3.0), (0.0005, 3.0), (3.5, 4.0)):
            with pytest.raises(ConvergenceError, match="not finite"):
                kernel.z_span(1e4, a, b)

    def test_no_overflow_below_the_threshold(self):
        # up to order 1000 a table reaches pi, and nothing may overflow
        # there: a table over the whole half period, built cold
        beta = 1000.0
        assert kernel._reach(beta) == math.pi
        kernel._TABLES.pop(beta, None)
        ts = np.append(np.linspace(0.01, TWO_PI - 0.01, 64), math.pi)
        zs, noise = z_many(beta, ts, with_noise=True)
        assert np.isfinite(zs).all() and np.isfinite(noise).all()
        assert kernel._TABLES[beta].right == math.pi

    def test_underflowing_integrand_stays_finite(self):
        # below phi = pi/3 the power underflows to 0, which is z to
        # double precision: 0.495^1e4 is about 1e-3050
        assert z_many(1e4, [0.5]).tolist() == [0j]
        assert z_many(1e4, [0.5, -0.25, TWO_PI]).tolist() == [0j, 0j, TWO_PI]
        # past pi, z is 2pi minus the conjugate of its mirror image; the
        # integral over [0, 2pi - 0.5] would overflow at pi
        assert z_many(1e4, [TWO_PI - 0.5]).tolist() == [TWO_PI]

    def test_tighter_tolerance_still_converges(self):
        # the series route at a tolerance 100 times below the quadrature's
        # shares no code with it
        want = z_series(2.5, 3.0, tol=1e-12)
        assert abs(z_eval(2.5, 3.0) - want) < 1e-10


def _same_bits(u, v):
    u, v = np.asarray(u), np.asarray(v)
    return u.dtype == v.dtype and u.tobytes() == v.tobytes()


class TestSegmentSums:
    """Sums of the z table between edges: the vectorised path of
    ``z_many`` (``_sums``) against the one-point path of ``z_span``
    (``_point``), bit for bit, and the segments between edges against
    the values at their ends."""

    EDGE_SETS = {
        "short segments near zero": [0.0, 2e-4, 7e-4, 1e-3],
        "from near zero to near pi": [5e-4, math.pi - 5e-4],
        "half period": [0.0, math.pi],
        "several panels": [0.3, 0.7, 3.1, math.pi],
        # edges at powers of two are panel edges of every table
        "ends at a power of two": [0.0, 1e-3 * 1024.0, 2.048, math.pi],
        "from zero to a power of two": [0.0, 1.0],
        "repeated edges": [0.5, 0.5, 1.7, 1.7, 1.7, 3.0, 2.0, 2.5],
        "lone interior span": [1.234, 1.5],
        "from 1e-3 to pi": [1e-3, 0.5, math.pi],
        "dense": np.linspace(0.0, math.pi, 97).tolist(),
    }

    @staticmethod
    def point(beta, s):
        """``kernel._point`` at s on the table resolved for s alone."""
        return kernel._point(kernel._table(beta, s), s)

    @classmethod
    def check(cls, beta, edges):
        pts = edges[edges > 0.0]
        value, mass = kernel._sums(beta, pts)
        want = [np.array(w) for w in zip(*[cls.point(beta, p)
                                           for p in pts])]
        assert _same_bits(value, want[0]), beta
        assert _same_bits(mass, want[1]), beta
        zs, noise = z_many(beta, edges, with_noise=True)
        for i in np.flatnonzero(edges[:-1] <= edges[1:]):
            val, mass = z_span(beta, edges[i], edges[i + 1])
            assert abs(val - (zs[i + 1] - zs[i])) <= (
                noise[i] + noise[i + 1] + kernel._round(beta) * mass)

    @pytest.mark.parametrize("name", sorted(EDGE_SETS))
    def test_matches_per_segment_reference(self, name, monkeypatch):
        # the vectorised path even for a short set
        monkeypatch.setattr(kernel, "_SCALAR_POINTS", 0)
        for beta in (0.5, 2.5, 8.0, 13.3):
            self.check(beta, np.array(self.EDGE_SETS[name]))

    def test_random_edges_match_reference(self, monkeypatch):
        monkeypatch.setattr(kernel, "_SCALAR_POINTS", 0)
        rng = np.random.default_rng(11)
        for _ in range(20):
            beta = float(rng.uniform(0.3, 16.0))
            self.check(beta, np.sort(rng.uniform(0.0, math.pi,
                                                 rng.integers(2, 30))))

    def test_span_equals_segment_sums(self):
        # below pi a span is the difference of the one-point sums, bit for
        # bit; past pi it is the conjugate of its mirror span, and across
        # pi the sum of the two parts, split at pi
        def half(beta, a, b):
            (v1, m1), (v0, m0) = self.point(beta, b), self.point(beta, a)
            return v1 - v0, m1 - m0

        rng = np.random.default_rng(5)
        spans = [(1e-3, TWO_PI - 1e-3), (0.0, TWO_PI), (2.0, 2.0 + 1e-9),
                 (0.0, math.pi), (math.pi, TWO_PI), (4.0, 4.0 + 1e-9)]
        for _ in range(150):
            a = float(rng.uniform(0.0, TWO_PI))
            spans.append(tuple(sorted((a, float(rng.uniform(0.0, TWO_PI))))))
            w = float(rng.exponential(0.01))
            spans.append((a, min(TWO_PI, a + w)))
            # spans that start or end within 2e-3 of 0 or of 2pi
            lo, hi = rng.uniform(0.0, 2e-3, 2).tolist()
            spans.append(tuple(sorted((lo, 1e-3 + w))))
            spans.append(tuple(sorted((TWO_PI - 1e-3 - w, TWO_PI - hi))))
        for i, (a, b) in enumerate(spans):
            beta = 0.5 + 0.1 * (i % 150)
            if b <= math.pi:
                want = half(beta, a, b)
            elif a >= math.pi:
                v, m = half(beta, TWO_PI - b, TWO_PI - a)
                want = v.conjugate(), m
            else:
                (v1, m1), (v2, m2) = (half(beta, a, math.pi),
                                      half(beta, TWO_PI - b, math.pi))
                want = v1 + v2.conjugate(), m1 + m2
            val, mass = z_span(beta, a, b)
            assert _same_bits(want[0], val), (beta, a, b)
            assert _same_bits(want[1], mass), (beta, a, b)
            if a == 0.0 and b <= math.pi:
                # from 0, a span is what z_many sums for its end
                zs, noise = z_many(beta, [b], with_noise=True)
                assert _same_bits(zs[0], val)

    @pytest.mark.parametrize("beta", [0.05, 0.5, 2.5, 4.84, 16.0, 40.0])
    def test_head_matches_mpmath_taylor(self, beta):
        # near 0, where the library sums its own series (every point but
        # 0.05 at order 40 lies below the start), z is the termwise
        # integral of the Taylor series
        # sum_n D_n phi^(beta+n) of the integrand, where D_n are the Taylor
        # coefficients of (2 sin(phi/2)/phi)^beta exp(i beta (phi - pi)/2),
        # which mpmath finds by numerical differentiation; one call per t
        ts = [1e-12, 1e-9, 1e-6, 1e-4, 5e-4, 1e-3, 2e-3, 1e-2, 0.05]
        with mpmath.workdps(40):
            def g(phi):
                if phi == 0:
                    return mpmath.expj(-beta * mpmath.pi / 2)
                return ((2 * mpmath.sin(phi / 2) / phi) ** beta
                        * mpmath.expj(beta * (phi - mpmath.pi) / 2))
            coeffs = mpmath.taylor(g, 0, 24)
            want = [complex(sum(c * mpmath.mpf(t) ** (beta + n + 1)
                                / (beta + n + 1)
                                for n, c in enumerate(coeffs)))
                    for t in ts]
        for t, w in zip(ts, want):
            got = z_eval(beta, t)
            assert abs(got - w) <= 1e-13 * abs(w), (beta, t)


class TestOriginSeries:
    """z at or below the start s of its table, from the power series
    e^(-i pi beta/2) t t^beta sum_j c_j t^j/(beta + j + 1)."""

    ORDERS = [0.5, 1.0, 2.5, 3.9, 4.84, 8.0, 12.7, 40.0]
    FRACTIONS = [1.0, 0.7, 1.0 / 3.0, 0.1, 1.0 / 64.0]

    def test_bernoulli_coefficients_match_mpmath(self):
        # log(2 sin(phi/2)/phi) = sum_k l_k phi^2k, l_k = (-1)^k B_2k /
        # (2k (2k)!): the library's Bernoulli numbers are exact, so each
        # l_k is the float nearest its value from mpmath.bernoulli
        with mpmath.workdps(50):
            want = [float((-1) ** k * mpmath.bernoulli(2 * k)
                          / (2 * k * mpmath.factorial(2 * k)))
                    for k in range(1, 12)]
            assert kernel._LOG_SINC == want
            phi = mpmath.mpf("0.9")
            got = mpmath.fsum(mpmath.mpf(v) * phi ** (2 * k)
                              for k, v in enumerate(want, 1))
            exact = mpmath.log(2 * mpmath.sin(phi / 2) / phi)
            assert abs(got - exact) <= 1e-16 * abs(exact)

    def test_phase_is_exact_at_whole_orders(self):
        assert [kernel._phase(b) for b in (1.0, 2.0, 3.0, 4.0, 40.0)] == [
            -1j, -1.0, 1j, 1.0, 1.0]

    @pytest.mark.parametrize("beta", ORDERS)
    def test_matches_the_scaled_oracle(self, beta):
        # within 4 eps relative of 30-digit mpmath, z and psi alike
        start = kernel._series_top(beta)
        ts = np.array([f * start for f in self.FRACTIONS])
        assert np.all(ts <= kernel._table(beta, 1e-300).start)
        zs, psis = z_many(beta, ts), psi_many(beta, ts)
        for t, z, psi in zip(ts, zs, psis):
            want = z_mpmath(beta, t)
            assert abs(z - want) <= 4.0 * kernel._EPS * abs(want), t
            assert abs(psi - want / t) <= 4.0 * kernel._EPS * abs(want / t), t

    @pytest.mark.parametrize("beta", [0.05, 0.5, 2.5, 8.0, 13.3, 40.0, 150.0])
    def test_point_matches_sums_around_the_start(self, beta, monkeypatch):
        # below, at and just above the start, the one-point path and the
        # vectorised one give the same bits, on a cold table, a warm one
        # and one that reaches pi
        monkeypatch.setattr(kernel, "_SCALAR_POINTS", 0)
        start = kernel._series_top(beta)
        pts = np.array([start / 64.0, start / 3.0, math.nextafter(start, 0.0),
                        start, math.nextafter(start, 4.0), 1.01 * start,
                        1.5 * start])
        for table in ("cold", "warm", "wide"):
            kernel._TABLES.pop(beta, None)
            if table == "wide":
                kernel._table(beta, math.pi)
            value, mass = kernel._sums(beta, pts)
            for i, s in enumerate(pts.tolist()):
                if table == "cold":
                    kernel._TABLES.pop(beta, None)
                v, m = kernel._point(kernel._table(beta, s), s)
                assert _same_bits(value[i], v) and _same_bits(mass[i], m), (
                    table, s)

    @pytest.mark.parametrize("beta", ORDERS)
    def test_continuous_across_the_start(self, beta):
        # the series at the start is the first prefix, and the first
        # panel's sum starts from it
        start = kernel._series_top(beta)
        ts = [math.nextafter(start, 0.0), start, math.nextafter(start, 4.0)]
        zs, noise = z_many(beta, ts, with_noise=True)
        assert np.all(np.abs(np.diff(zs)) <= noise[1:]), np.diff(zs)


class TestTable:
    """The Legendre tables of z, one per order, and their cache."""

    def test_second_call_builds_no_panels(self, table_builds):
        kernel._TABLES.pop(3.7, None)
        ts = np.linspace(-20.0, 20.0, 301)
        first = z_many(3.7, ts, with_noise=True)
        assert table_builds
        table_builds.clear()
        second = z_many(3.7, ts, with_noise=True)
        assert table_builds == []
        assert all(_same_bits(u, v) for u, v in zip(first, second))

    def test_cache_holds_at_most_sixteen_tables(self):
        betas = [1.0 + 0.01 * i for i in range(100)]
        for beta in betas:
            z_many(beta, [0.5, 2.0])
        assert len(kernel._TABLES) == kernel._CACHE == 16
        assert list(kernel._TABLES)[-16:] == betas[-16:]

    def test_cache_memory_stays_bounded(self):
        # near order 1000 a table holds about 1,800 panels (1.6 MiB) from
        # its start at the floor 2^-2, below which z underflows to 0,
        # however small t is; besides the last table used, the cache keeps
        # at most kernel._CACHE_PANELS panels, so of 16 such tables 5 stay
        tracemalloc.start()
        try:
            for i in range(16):
                zs = z_many(999.0 - i, [1e-13, 0.3, 3.0])
                assert zs[0] == 0.0
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        panels = [tab.panels for tab in kernel._TABLES.values()]
        assert max(panels) < 2000
        assert sum(panels) - panels[-1] <= kernel._CACHE_PANELS
        assert held <= 12 * 2 ** 20

    @pytest.mark.parametrize("beta", [0.01, 0.5, 40.0])
    @pytest.mark.parametrize("warm", [False, True])
    def test_span_at_the_least_subnormal(self, beta, warm):
        # up to the floor 2^lowest z is 0, below the least subnormal
        # (below 2^-1022 at order 0.01): on a cold table, and on a warm
        # one that a span from just above the floor built
        tiny, lowest = 5e-324, kernel._lowest(beta)
        kernel._TABLES.pop(beta, None)
        if warm:
            z_span(beta, math.ldexp(1.5, lowest), 2.0)
            assert beta in kernel._TABLES
        assert z_span(beta, 0.0, tiny) == (0j, 0.0)
        assert z_span(beta, tiny, tiny) == (0j, 0.0)
        assert z_span(beta, tiny, 1.0) == z_span(beta, 0.0, 1.0)
        assert z_span(beta, 1e-320, 1.0) == z_span(beta, 0.0, 1.0)
        val, mass = z_span(beta, tiny, 1.0)
        assert abs(val - z_mpmath(beta, 1.0)) <= 4.0 * kernel._round(beta) * (
            mass + 1.0)

    def test_under_resolved_table_raises(self, monkeypatch):
        # with one panel per binade near 0, a panel [a, 2a] holds
        # phi^40 times a factor near 1, which grows by 2^40 across it, and
        # 24 nodes do not resolve that: the table is refused, not cached,
        # where the edges of e^_GROWTH a panel build it
        beta = 40.0
        ts = np.linspace(0.05, math.pi, 200)
        kernel._TABLES.pop(beta, None)
        z_many(beta, ts)
        tab = kernel._TABLES.pop(beta)
        assert tab.panels == tab.left.size
        monkeypatch.setattr(kernel, "_GROWTH", beta)
        with pytest.raises(ConvergenceError, match="not resolved") as info:
            z_many(beta, ts)
        assert info.value.achieved > 0.0
        assert beta not in kernel._TABLES

    @pytest.mark.parametrize("beta", [0.5, 4.84, 12.7, 40.0])
    def test_value_depends_on_beta_and_t_alone(self, beta):
        # a point's value and noise do not depend on the batch it comes
        # in, nor on how far the cached table reaches: on a cold table,
        # which reaches the point alone, and on the batch's warm one; a
        # fifth of the points lie at or below the table's start
        rng = np.random.default_rng(400)
        start = kernel._series_top(beta)
        ts = np.concatenate([rng.uniform(-40.0, 40.0, 320),
                             rng.uniform(-start, start, 80)])
        kernel._TABLES.pop(beta, None)
        batch = z_many(beta, ts, with_noise=True)
        for table in ("cold", "warm"):
            for i, t in enumerate(ts):
                if table == "cold":
                    kernel._TABLES.pop(beta, None)
                one = z_many(beta, [t], with_noise=True)
                assert _same_bits(one[0][0], batch[0][i]), (table, t)
                assert _same_bits(one[1][0], batch[1][i]), (table, t)
        again = z_many(beta, ts, with_noise=True)
        assert _same_bits(again[0], batch[0])
        assert _same_bits(again[1], batch[1])

    @pytest.mark.parametrize("beta", [0.5, 4.84, 12.7, 40.0])
    def test_wider_table_shares_its_panels(self, beta):
        # a table that reaches pi, rebuilt from one that reaches 1.5, keeps
        # the narrow one's panels, coefficients and prefixes bit for bit,
        # as a prefix sums the series at the start and the panels before
        kernel._TABLES.pop(beta, None)
        narrow = kernel._table(beta, 1.5)
        wide = kernel._table(beta, math.pi)
        assert wide is not narrow and wide.right == math.pi
        n = narrow.panels
        assert 0 < n < wide.panels
        assert _same_bits(wide.left[:n], narrow.left)
        assert _same_bits(wide.coef[:, :, :n], narrow.coef)
        assert _same_bits(wide.prefix[:, :n], narrow.prefix)


class TestGaussLegendre:
    """The one Gauss-Legendre rule of the library, ``gauss_legendre``: the
    z table, d z / d beta, the integral modulus and the Beurling bracket
    all take their nodes from it."""

    @pytest.mark.parametrize("n", [16, 24, 64])
    def test_rule_is_exact_to_degree_2n_minus_1(self, n):
        x, w, p = gauss_legendre(n)
        assert not any(a.flags.writeable for a in (x, w, p))
        # the nodes within an ulp of the eigenvalue route's
        ref = np.polynomial.legendre.leggauss(n)[0]
        assert np.all(np.abs(x - ref) <= np.spacing(np.abs(ref)))
        # every monomial to 1e-14 of the integral of 1
        for j in range(2 * n):
            exact = 2.0 / (j + 1) if j % 2 == 0 else 0.0
            assert abs(np.dot(w, x ** j) - exact) <= 2e-14, j
        # P_0 to P_(n-1), as the last Newton step evaluated them, within
        # an ulp of the nodes
        assert np.allclose(p, np.polynomial.legendre.legvander(x, n - 1),
                           rtol=0.0, atol=1e-12)

    def test_no_eigensolver(self, monkeypatch):
        # leggauss takes its nodes from LAPACK's eigvalsh, whose set-up
        # costs a mebibyte; no quadrature of the library calls it
        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        with pytest.raises(AssertionError, match="eigvalsh"):
            np.polynomial.legendre.leggauss(8)
        gauss_legendre.cache_clear()
        kernel._TABLES.pop(2.7, None)
        assert np.isfinite(psi_many(2.7, np.linspace(0.1, 6.0, 40))).all()
        rows = equivalence_scan([("exp:3", corpus("exponential", 3))],
                                [2.5], [0.3], [2.0])
        assert rows[0].error is None and math.isfinite(rows[0].w)
        assert math.isfinite(beurling_bound(make_g_tau(2.5, 0.5), 3.0))
        assert cmath.isfinite(kernel._z_dbeta(4.84, 2.2))


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

    @pytest.mark.parametrize("t_hi, grid", [
        (math.inf, 10), (math.nan, 10), (1.0, math.inf), (1.0, math.nan),
        (1.0, 10.5)])
    def test_bad_window_rejected(self, t_hi, grid):
        # the window must be finite and the grid a whole number >= 2
        with pytest.raises(InvalidArgumentError):
            verify_nonvanishing(2.5, 0.1, t_hi, grid)


class TestCurveExport:
    def test_points_match_closed_form(self):
        ts, zs = curve_points(1.0, 0.5, 2.5, 5)
        assert ts.shape == zs.shape == (5,)
        assert ts[0] == 0.5 and ts[-1] == 2.5
        assert np.array_equal(ts, np.linspace(0.5, 2.5, 5))
        for t, z in zip(ts, zs):
            assert abs(z - z1_exact(t)) < 1e-10

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            curve_points(1.0, 0.5, 2.5, 1)
        with pytest.raises(InvalidArgumentError):
            curve_points(1.0, 2.5, 0.5, 10)

    @pytest.mark.parametrize("t_lo, t_hi, samples", [
        (0.0, math.inf, 10), (-math.inf, 1.0, 10), (math.nan, 1.0, 10),
        (0.0, math.nan, 10), (-1e308, 1e308, 10), (0.0, 1.0, 10.5),
        (0.0, 1.0, math.inf), (0.0, 1.0, math.nan)])
    def test_bad_window_rejected(self, t_lo, t_hi, samples):
        # the window and its width must be finite and samples a whole
        # number >= 2; np.linspace would warn or raise TypeError instead
        with pytest.raises(InvalidArgumentError):
            curve_points(2.5, t_lo, t_hi, samples)

    def test_memory_stays_bounded(self):
        # the table holds a few hundred panels, and the Legendre sums of
        # the points take a few arrays of their size
        kernel._TABLES.pop(8.26, None)
        tracemalloc.start()
        try:
            curve_points(8.26, 0.0, 16.0 * math.pi, 65536)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 2 ** 20

    def test_csv_round_trip(self):
        ts, zs = curve_points(2.5, 0.3, 4.0, 7)
        buf = io.StringIO()
        write_curve_csv(buf, 2.5, ts, zs)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "beta,t,x,y"
        assert len(lines) == 8
        for line, t, z in zip(lines[1:], ts, zs):
            beta, t_got, x, y = (float(s) for s in line.split(","))
            assert (beta, t_got, x, y) == (2.5, t, z.real, z.imag)

    def test_csv_rows_match_fmt17_rendering(self):
        specials = [0.0, -0.0, 5e-324, 1e22, math.inf, -math.inf, math.nan,
                    0.1, -2.5e-300, 1.0 / 3.0, 123456789.0, 2.0 ** 60]
        ts = np.array(specials)
        # complex(x, y) keeps both parts as given, infinities and -0.0 too
        zs = np.array([complex(x, y) for x, y in
                       zip(specials[1:] + specials[:1],
                           specials[2:] + specials[:2])])
        # every power of 2 and of 10 with both float neighbours; odd
        # multiples of 2^-25, among them exact ties at 17 digits (2^-25 =
        # 2.98023223876953125e-08); subnormals; random bit patterns, NaN
        # payloads included
        powers = np.array([2.0 ** i for i in range(-1074, 1024)]
                          + [float(f"1e{i}") for i in range(-323, 309)])
        rng = np.random.default_rng(20171)
        values = np.concatenate([
            powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
            np.arange(1, 4096, 2) * 2.0 ** -25,
            rng.integers(1, 2 ** 52, 2000, dtype=np.uint64).view(np.float64),
            rng.integers(0, 2 ** 64, 6000, dtype=np.uint64).view(np.float64)])
        values = np.concatenate([values, -values])
        values = np.concatenate([values, np.zeros(-values.size % 3)])
        t, x, y = values.reshape(-1, 3).T
        z = np.empty(t.size, dtype=complex)
        z.real, z.imag = x, y
        # one row past a block, so that a block boundary is crossed
        rows = kernel._CSV_BLOCK + 1
        cases = [(2.5, ts, zs), (specials[3], ts, zs),
                 (1.0, np.array([2.0]), np.array([complex(-0.0, 1e22)])),
                 (-0.0, t, z), (5e-324, t[:rows], z[:rows]),
                 (8.26,) + curve_points(8.26, 0.0, 16.0 * math.pi, 8192)]
        assert t.size > rows
        for beta, ts, zs in cases:
            buf = io.StringIO()
            write_curve_csv(buf, beta, ts, zs)
            want = "beta,t,x,y\n" + "".join(
                f"{fmt17(beta)},{fmt17(t)},{fmt17(z.real)},{fmt17(z.imag)}\n"
                for t, z in zip(ts, zs))
            assert buf.getvalue().encode() == want.encode(), beta

    @pytest.mark.parametrize("ts, zs", [
        (np.zeros(3), np.zeros(1, dtype=complex)),
        (np.zeros(1), np.zeros(3, dtype=complex)),
        (np.zeros((2, 2)), np.zeros((2, 2), dtype=complex)),
        (np.zeros(2), np.zeros((2, 1), dtype=complex))])
    def test_csv_rejects_mismatched_samples(self, ts, zs):
        # zip would stop at the shorter array and drop rows unseen
        with pytest.raises(InvalidArgumentError):
            write_curve_csv(io.StringIO(), 2.5, ts, zs)
