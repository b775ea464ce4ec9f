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
from fracsmooth import kernel
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
from fracsmooth._util import fmt17

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


class TestBetaDerivative:
    """d z / d beta (``kernel._z_dbeta``) against mpmath quadrature of
    f(phi) (log(2 sin(phi/2)) + i (phi - pi)/2) over [0, t]."""

    @pytest.mark.parametrize("beta", [4.8, 8.0, 16.0, 39.5])
    def test_matches_mpmath_quadrature(self, beta):
        # three t in each half-period; the tolerance is relative to the
        # absolute mass of the integrand, which bounds the rounding of any
        # quadrature of it (the value itself passes through zero)
        for t in (0.9, 1.9, 2.9, 3.5, 4.5, 5.5):
            with mpmath.workdps(15):
                def df(phi):
                    w = (mpmath.log(2 * mpmath.sin(phi / 2))
                         + 0.5j * (phi - mpmath.pi))
                    return mpmath.exp(beta * w) * w
                cuts = mpmath.linspace(0, t, 5)
                want = complex(mpmath.quad(df, cuts))
                mass = float(mpmath.quad(lambda phi: abs(df(phi)), cuts))
            assert abs(kernel._z_dbeta(beta, t) - want) <= 1e-12 * mass, t


def z_mpmath(beta, t):
    """z(beta, t) by mpmath quadrature of the principal-branch integrand at
    30 digits, with t reduced by the exact multiple of 2pi
    (z(t + 2pi) = z(t) + 2pi)."""
    with mpmath.workdps(30):
        two_pi = 2 * mpmath.pi
        turns = mpmath.floor(mpmath.mpf(t) / two_pi)
        t0 = mpmath.mpf(t) - two_pi * turns

        def f(phi):
            return ((2 * mpmath.sin(phi / 2)) ** beta
                    * mpmath.expj(beta * (phi - mpmath.pi) / 2))
        return complex(mpmath.quad(f, [0, t0]) + two_pi * turns)


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


class TestCorpusSteps:
    """psi at the steps k h of the equivalence corpus: each call is one
    GK15 pass, and its values match mpmath."""

    @pytest.mark.parametrize("beta", [0.5, 2.5])
    @pytest.mark.parametrize("h", [0.05, 0.2, 1.0])
    def test_psi_matches_mpmath(self, beta, h):
        ts = np.arange(1, 17) * h
        want = np.array([z_mpmath(beta, t) / t for t in ts])
        err = np.abs(psi_many(beta, ts) - want)
        assert np.all(err <= 2e-14), (beta, h)
        assert np.all(err <= 1e-13 * np.abs(want)), (beta, h)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 2.5])
    def test_one_gk15_pass_per_call(self, beta, monkeypatch):
        # the geometric cut keeps every panel a factor 2 in phi from the
        # branch point at 0, so no panel needs a second pass
        calls = []
        inner = kernel._impl.gk15_panels

        def counting(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(kernel._impl, "gk15_panels", counting)
        for h in (0.05, 0.2, 1.0):
            for degree in (1, 3, 8, 16):
                calls.clear()
                psi_many(beta, np.arange(-degree, degree + 1) * h)
                assert len(calls) == 1, (beta, h, degree)


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
        cfg = QuadConfig(abs_tol=1e-14, max_subdiv=4)
        with pytest.raises(ConvergenceError, match="subdivisions") as info:
            z_eval(0.5, 6.0, cfg)
        assert info.value.achieved > cfg.abs_tol

    def test_overflowing_integrand_raises(self):
        # past phi = pi/3 the base 2 sin(phi/2) exceeds 1, and at beta = 1e4
        # its power overflows; z must fail, not return nan.  No overflow
        # warning may escape either (the suite turns warnings into errors)
        for ts in ([2.0, 3.0], [0.5, 3.0], [-3.0]):
            with pytest.raises(ConvergenceError, match="not finite"):
                z_many(1e4, ts)
        with pytest.raises(ConvergenceError, match="not finite"):
            psi_eval(1e4, 2.0)

    def test_overflowing_span_raises(self):
        # both routes of z_span: the direct GK15 panels of a span inside
        # [1e-3, pi], and the segment set-up of one that reaches the
        # endpoint expansion zone; and a span past pi, whose mirror image
        # overflows
        for a, b in ((2.0, 3.0), (0.0005, 3.0), (3.5, 4.0)):
            with pytest.raises(ConvergenceError, match="not finite"):
                kernel.z_span(1e4, a, b)

    def test_no_overflow_below_the_threshold(self):
        # z_many sets no error state below this order, so nothing may
        # overflow there, even with the whole period and a budget that
        # lets every panel through
        beta = math.nextafter(kernel._NO_OVERFLOW_BETA, 0.0)
        loose = QuadConfig(abs_tol=1e300, max_subdiv=10**5)
        zs = z_many(beta, np.linspace(0.01, TWO_PI - 0.01, 64), loose)
        assert np.isfinite(zs).all()

    def test_underflowing_integrand_stays_finite(self):
        # below phi = pi/3 the power underflows to 0, which is z to
        # double precision: 0.495^1e4 is about 1e-3050
        assert z_many(1e4, [0.5]).tolist() == [0j]
        assert z_many(1e4, [0.5, -0.25, TWO_PI]).tolist() == [0j, 0j, TWO_PI]
        # past pi, z is 2pi minus the conjugate of its mirror image; the
        # integral over [0, 2pi - 0.5] would overflow at pi
        assert z_many(1e4, [TWO_PI - 0.5]).tolist() == [TWO_PI]

    def test_tighter_tolerance_still_converges(self):
        loose = z_eval(2.5, 3.0)
        tight = z_eval(2.5, 3.0, QuadConfig(abs_tol=1e-12, max_subdiv=4000))
        assert abs(loose - tight) < 1e-9


def _reference_segment_sums(beta, edges, cfg):
    """``_segment_sums`` with its set-up spelled out segment by segment:
    cut each segment at 1e-3, integrate the piece below it by expansion
    and cut the piece [lo, hi] above it at lo, 2 lo, 4 lo, ... below hi,
    doubling one end at a time."""
    cut = 1e-3
    nseg = len(edges) - 1
    seg_vals = np.zeros(nseg, dtype=complex)
    seg_abs = np.zeros(nseg)
    coeffs = kernel._endpoint_coeffs(beta)
    quad_a, quad_b, quad_seg = [], [], []
    for i in range(nseg):
        a, b = edges[i], edges[i + 1]
        if b <= a:
            continue
        if a < cut:
            v = kernel._expansion_integral(beta, coeffs, a, min(b, cut))
            seg_vals[i] += v
            seg_abs[i] += abs(v)
        lo = max(a, cut)
        if b > lo:
            ends = [lo]
            while 2.0 * ends[-1] < b:
                ends.append(2.0 * ends[-1])
            ends.append(b)
            quad_a += ends[:-1]
            quad_b += ends[1:]
            quad_seg += [i] * (len(ends) - 1)
    if quad_a:
        vals, absm, seg = kernel._adaptive_panels(
            beta, np.array(quad_a), np.array(quad_b), np.array(quad_seg), cfg)
        np.add.at(seg_vals, seg, vals)
        np.add.at(seg_abs, seg, absm)
    return seg_vals, seg_abs


def _same_bits(u, v):
    u, v = np.asarray(u), np.asarray(v)
    return u.dtype == v.dtype and u.tobytes() == v.tobytes()


class TestSegmentSums:
    """The vectorised panel set-up of ``_segment_sums`` and the interior
    shortcut of ``z_span`` against the per-segment construction."""

    EDGE_SETS = {
        "inside the expansion zone": [0.0, 2e-4, 7e-4, 1e-3],
        "crossing the cut point": [5e-4, math.pi - 5e-4],
        "half period": [0.0, math.pi],
        # [0.7, 3.1] is cut at 1.4 and 2.8, and [0.3, 0.7] stays whole
        "several panels": [0.3, 0.7, 3.1, math.pi],
        # hi = lo * 2^10 and hi = lo * 2: no cut at hi itself, and a
        # segment that spans a factor 2 exactly keeps one panel
        "ends at a power of two": [0.0, 1e-3 * 1024.0, 2.048, math.pi],
        "repeated edges": [0.5, 0.5, 1.7, 1.7, 1.7, 3.0, 2.0, 2.5],
        "lone interior span": [1.234, 1.5],
        "touching the cut point and pi": [1e-3, 0.5, math.pi],
        "dense": np.linspace(0.0, math.pi, 97).tolist(),
    }

    @pytest.mark.parametrize("name", sorted(EDGE_SETS))
    def test_matches_per_segment_reference(self, name):
        edges = np.array(self.EDGE_SETS[name])
        for beta in (0.5, 2.5, 8.0, 13.3):
            got = kernel._segment_sums(beta, edges, DEFAULT_QUAD)
            want = _reference_segment_sums(beta, edges, DEFAULT_QUAD)
            assert _same_bits(got[0], want[0]), (name, beta)
            assert _same_bits(got[1], want[1]), (name, beta)

    def test_random_edges_match_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            beta = float(rng.uniform(0.3, 16.0))
            edges = np.sort(rng.uniform(0.0, math.pi, rng.integers(2, 30)))
            got = kernel._segment_sums(beta, edges, DEFAULT_QUAD)
            want = _reference_segment_sums(beta, edges, DEFAULT_QUAD)
            assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])

    def test_span_equals_segment_sums(self):
        # below pi a span is the segment sum, bit for bit; past pi it is
        # the conjugate of its mirror span, and across pi the sum of the
        # two parts, split at pi
        def half(beta, a, b):
            vals, masses = kernel._segment_sums(beta, np.array([a, b]),
                                                DEFAULT_QUAD)
            return complex(vals[0]), float(masses[0])

        rng = np.random.default_rng(5)
        spans = [(1e-3, TWO_PI - 1e-3), (0.0, TWO_PI), (2.0, 2.0 + 1e-9),
                 (0.0, math.pi), (math.pi, TWO_PI), (4.0, 4.0 + 1e-9)]
        for _ in range(150):
            a = float(rng.uniform(0.0, TWO_PI))
            spans.append(tuple(sorted((a, float(rng.uniform(0.0, TWO_PI))))))
            w = float(rng.exponential(0.01))
            spans.append((a, min(TWO_PI, a + w)))
            # spans that start or end inside an expansion zone or its mirror
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

    def test_endpoint_coefficients_are_cached_and_read_only(self):
        c = kernel._endpoint_coeffs(3.7)
        assert kernel._endpoint_coeffs(3.7) is c
        assert not c.flags.writeable

    @pytest.mark.parametrize("beta", [0.5, 2.5, 4.84, 16.0, 40.0])
    def test_endpoint_coefficients_match_mpmath_taylor(self, beta):
        # D_n are the Taylor coefficients of
        # (2 sin(phi/2)/phi)^beta exp(i beta (phi - pi)/2) at phi = 0
        with mpmath.workdps(40):
            def g(phi):
                if phi == 0:
                    return mpmath.expj(-beta * mpmath.pi / 2)
                return ((2 * mpmath.sin(phi / 2) / phi) ** beta
                        * mpmath.expj(beta * (phi - mpmath.pi) / 2))
            want = np.array([complex(c) for c in mpmath.taylor(g, 0, 10)])
        got = kernel._endpoint_coeffs(beta)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), beta


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
