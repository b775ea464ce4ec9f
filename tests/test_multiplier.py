"""Tests for the Beurling-bracket bounds and symbol-ratio comparisons."""

import math

import mpmath
import numpy as np
import pytest

from fracsmooth import (
    CutoffV,
    DomainTooSmallError,
    InvalidArgumentError,
    MultiplierFn,
    NormParams,
    ZeroDenominatorError,
    beurling_bound,
    comparison_apply,
    corpus,
    make_g1_g2,
    make_g_tau,
    psi_many,
    symbol_values,
)
from fracsmooth import kernel, multiplier
from fracsmooth.signal import lp_norm
from mpmath_oracles import g_mpmath

V = CutoffV()
V_FN = MultiplierFn(fn=V, deriv=V.derivative, support="compact",
                    bounds=(-2.0, 2.0))


#: (label, beta, tau, averaging orders) of the comparison functions
#: checked against mpmath: three g_tau and the g1 of the split pair
#: (3.5, 2.5, 0.5), whose orders are alpha and the gap
CASES = [("g_tau", 2.5, 0.5, (2.5,)), ("g_tau", 0.5, 0.3, (0.5,)),
         ("g_tau", 3.9, 0.9, (3.9,)), ("g1", 3.5, 0.5, (2.5, 1.0))]


@pytest.fixture(scope="module")
def split_pair():
    return make_g1_g2(3.5, 2.5, 0.5)


def make_case(label, beta, tau, orders):
    if label == "g1":
        return make_g1_g2(beta, orders[0], tau)[0]
    return make_g_tau(beta, tau)


def counting_psi(monkeypatch):
    """Replace ``multiplier.psi_many`` by a wrapper that records the order
    and the number of points of each call."""
    calls = []
    inner = multiplier.psi_many

    def wrapper(order, ts):
        calls.append((order, np.size(ts)))
        return inner(order, ts)

    monkeypatch.setattr(multiplier, "psi_many", wrapper)
    return calls


class TestBeurlingBound:
    def test_cutoff_frozen(self):
        # sqrt(int v^2) + sqrt(int v'^2) over [-2, 2] by mpmath.quad
        got = beurling_bound(V_FN, 3.0)
        assert got == pytest.approx(3.4868479912450583, rel=1e-10)

    def test_window_clipped_to_support(self):
        a = beurling_bound(V_FN, 3.0)
        b = beurling_bound(V_FN, 5.0)
        assert abs(a - b) < 1e-8

    def test_subadditive(self):
        g = make_g_tau(2.5, 0.5)
        both = MultiplierFn(
            fn=lambda t: np.asarray(V_FN.fn(t)) + np.asarray(g.fn(t)),
            deriv=lambda t: np.asarray(V_FN.deriv(t))
            + np.asarray(g.deriv(t)),
            support="compact", bounds=(-2.0, 2.0))
        lhs = beurling_bound(both, 3.0)
        rhs = beurling_bound(V_FN, 3.0) + beurling_bound(g, 3.0)
        assert lhs <= rhs + 1e-9

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            beurling_bound(V_FN, 0.0)
        with pytest.raises(InvalidArgumentError):
            beurling_bound(V_FN, math.inf)


class TestGTau:
    def test_limit_installed_at_origin(self):
        beta, tau = 2.5, 0.5
        g = make_g_tau(beta, tau)
        want = tau ** beta * (beta + 1.0)
        assert g(0.0) == pytest.approx(want, rel=1e-12)

    def test_approach_probes_agree_with_limit(self):
        beta, tau = 2.5, 0.5
        g = make_g_tau(beta, tau)
        want = tau ** beta * (beta + 1.0)
        assert abs(g(1e-4) - want) <= 1e-3 * want
        assert abs(g(1e-6) - want) <= 1e-5 * want
        assert g(-1e-6) == pytest.approx(np.conj(g(1e-6)), rel=1e-9)

    def test_vanishes_outside_support(self):
        g = make_g_tau(2.5, 0.5)
        assert g(2.5) == 0.0
        assert g(-3.0) == 0.0

    def test_derivative_consistent_with_wider_quotient(self):
        g = make_g_tau(2.5, 0.5)
        rng = np.random.default_rng(11)
        step = 1e-5
        for t in rng.uniform(-2.2, 2.2, 10):
            fd = (g(t + step) - g(t - step)) / (2.0 * step)
            assert abs(g.deriv(t) - fd) <= 1e-8 * (1.0 + abs(fd))

    def test_bracket_finite_with_frozen_peak(self):
        worst = 0.0
        for beta in (0.5, 2.5, 3.9):
            for tau in np.arange(0.1, 0.95, 0.1):
                b = beurling_bound(make_g_tau(beta, float(tau)), 3.0)
                assert math.isfinite(b) and b < 20.0, (beta, tau)
                worst = max(worst, b)
        # the sup sits at (3.9, 0.9); pinned from ``bracket_mpmath``
        assert worst == pytest.approx(11.666914150298086, rel=1e-10)

    @pytest.mark.parametrize("order", [18.0, 25.0, 40.0, 150.0])
    def test_large_orders_construct(self, order):
        # psi has no zero on (0, 2] at any order, so the check against the
        # mass passes; the suite turns warnings, such as 0/0 where z and
        # the leading law underflow together, into errors
        g = make_g_tau(order, 0.5)
        assert g(0.0) == pytest.approx(0.5 ** order * (order + 1.0),
                                       rel=1e-12)
        assert math.isfinite(abs(g(1.0)))
        make_g1_g2(order + 0.5, 0.5, 0.5)

    def test_a_dip_raises(self, monkeypatch):
        # a z with a zero at t = 1 on the check's grid; a raise is not
        # remembered, so the order raises on every call
        inner = multiplier._sums

        def dipping(order, ts):
            zs, mass = inner(order, ts)
            return zs * (ts - ts[np.argmin(np.abs(ts - 1.0))]), mass

        multiplier._near_origin_check.cache_clear()
        monkeypatch.setattr(multiplier, "_sums", dipping)
        for _ in range(2):
            with pytest.raises(ZeroDenominatorError,
                               match="dips near t=0.975"):
                make_g_tau(2.5, 0.5)
        multiplier._near_origin_check.cache_clear()

    def test_check_runs_once_per_order(self, counting):
        # the bracket grid's 9 values of tau at one order
        multiplier._near_origin_check.cache_clear()
        calls = counting(multiplier, "_sums")
        for tau in np.arange(0.1, 0.95, 0.1):
            make_g_tau(3.9, float(tau))
        assert [order for order, _ in calls] == [3.9]

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            make_g_tau(2.5, 0.0)
        with pytest.raises(InvalidArgumentError):
            make_g_tau(2.5, 1.0)
        with pytest.raises(InvalidArgumentError):
            make_g_tau(0.0, 0.5)


@pytest.mark.parametrize("case", CASES,
                         ids=lambda c: "-".join(map(str, c[:3])))
class TestClosedFormDerivative:
    def test_matches_mpmath_diff(self, case):
        # flat part, cutoff transition 1 < |t| < 2, both signs
        g = make_case(*case)
        with mpmath.workdps(20):
            for t in (0.4, 1.3, 1.75, -0.8, -1.5):
                want = complex(mpmath.diff(
                    lambda x: g_mpmath(*case[1:], x), t))
                assert abs(g.deriv(t) - want) <= 1e-11 * (1 + abs(want)), t

    def test_slope_at_the_origin(self, case):
        _, beta, tau, orders = case
        g = make_case(*case)
        limit = tau ** beta * math.prod(a + 1.0 for a in orders)
        slope = limit * 0.5j * (beta * tau - sum(a * (a + 1.0) / (a + 2.0)
                                                 for a in orders))
        assert g.deriv(0.0) == pytest.approx(slope, rel=1e-14)
        with mpmath.workdps(30):
            def diff(t):
                return complex(mpmath.diff(
                    lambda x: g_mpmath(beta, tau, orders, x), t))
            at_zero, tiny, near = diff(1e-12), diff(1e-8), diff(1e-5)
        assert abs(slope - at_zero) <= 1e-11 * (1 + abs(slope))
        # g(-t) = conj(g(t)), so g'(-t) = -conj(g'(t))
        assert abs(g.deriv(1e-8) - tiny) <= 1e-12 * (1 + abs(tiny))
        assert abs(g.deriv(-1e-8) + tiny.conjugate()) <= 1e-12 * (
            1 + abs(tiny))
        assert abs(g.deriv(1e-5) - near) <= 1e-10 * (1 + abs(near))

    def test_matches_mpmath_diff_near_the_origin(self, case):
        # the power series of the kernel, whose zone reaches 0.5 or 1, so
        # nothing amplifies the rounding of psi by 1/t
        g = make_case(*case)
        with mpmath.workdps(30):
            for t in (1e-8, 1e-6, 1e-5, 1e-4, 3e-4, 9e-4, 1e-3, 3e-3, 1e-2):
                want = complex(mpmath.diff(
                    lambda x: g_mpmath(*case[1:], x), t))
                tol = 1e-12 * (1.0 + abs(want))
                assert abs(g.deriv(t) - want) <= tol, t
                assert abs(g.deriv(-t) + want.conjugate()) <= tol, t

    def test_bracket_cost(self, case, monkeypatch):
        # values, then derivatives: one psi_many batch each per order, on
        # the 8 panels x 24 nodes of the support [-2, 2] less the outermost
        # node at each end, where v underflows to 0, and less the 4 zone
        # panels x 24 nodes of the series zone |t| < zone, zone = 0.5 or 1
        g = make_case(*case)
        zone = min(kernel._series_top(a) for a in case[3])
        calls = counting_psi(monkeypatch)
        beurling_bound(g, 3.0)
        assert calls == [(a, 190 - round(96 * zone)) for a in case[3]] * 2


class TestSplitPair:
    def test_inner_part_bracket_frozen(self, split_pair):
        g1, _ = split_pair
        got = beurling_bound(g1, 3.0)
        # pinned from bracket_mpmath(3.5, 0.5, (2.5, 1.0))
        assert got == pytest.approx(2.4487132048124898, rel=1e-10)

    def test_outer_part_vanishes_on_the_plateau(self, split_pair):
        _, g2 = split_pair
        assert g2(0.0) == 0.0
        assert g2(0.5) == 0.0
        assert g2(-1.0) == 0.0
        assert abs(g2(1.5)) > 0.0

    def test_outer_part_rejects_finite_windows(self, split_pair):
        # the outer ratio approaches a unit-size plateau instead of
        # decaying, so no window passes the edge probe
        _, g2 = split_pair
        with pytest.raises(DomainTooSmallError):
            beurling_bound(g2, 200.0)
        with pytest.raises(DomainTooSmallError):
            beurling_bound(g2, 400.0)

    def test_split_validation(self):
        with pytest.raises(InvalidArgumentError):
            make_g1_g2(4.85, 4.0, 0.5)  # gap is not an integer
        with pytest.raises(InvalidArgumentError):
            make_g1_g2(9.0, 5.0, 0.5)  # alpha beyond 4
        with pytest.raises(InvalidArgumentError):
            make_g1_g2(2.5, 2.5, 1.5)  # tau outside (0, 1)


class TestComparisonApply:
    def test_identity(self):
        f = corpus("random_smooth", 8, seed=3)
        sym = symbol_values(1.5, 0.3, f.freqs)
        sym[f.degree] = 1.0
        g = comparison_apply(f, sym, sym.copy())
        # complex division x/x keeps an eps-size imaginary residue
        assert np.max(np.abs(g.coeffs - f.coeffs)) <= 1e-15

    def test_single_mode_scaling(self):
        f = corpus("exponential", 3)
        num = np.full(f.coeffs.shape, 2.0 + 0j)
        den = np.ones(f.coeffs.shape, dtype=complex)
        g = comparison_apply(f, num, den)
        assert np.array_equal(g.coeffs, 2.0 * f.coeffs)

    def test_zero_denominator_names_the_frequency(self):
        f = corpus("exponential", 3)
        num = np.ones(f.coeffs.shape, dtype=complex)
        den = np.ones(f.coeffs.shape, dtype=complex)
        den[f.degree + 3] = 0.0
        with pytest.raises(ZeroDenominatorError) as err:
            comparison_apply(f, num, den)
        assert err.value.frequency == 3
        assert "k=3" in str(err.value)

    def test_inactive_zero_denominator_is_ignored(self):
        f = corpus("exponential", 3)
        num = np.full(f.coeffs.shape, 2.0 + 0j)
        den = np.ones(f.coeffs.shape, dtype=complex)
        den[f.degree - 3] = 0.0  # k = -3 carries no coefficient
        g = comparison_apply(f, num, den)
        assert np.array_equal(g.coeffs, 2.0 * f.coeffs)

    def test_shape_checked(self):
        f = corpus("exponential", 3)
        with pytest.raises(InvalidArgumentError):
            comparison_apply(f, np.ones(3), np.ones(f.coeffs.shape))


class TestDifferenceOverAverage:
    FROZEN = {
        1.0 / 64.0: 3.4999886115139587,
        1.0 / 32.0: 3.499954445445868,
        1.0 / 16.0: 3.4998177713398095,
    }

    @staticmethod
    def ratio(f, beta, h):
        num = symbol_values(beta, h, f.freqs)
        den = psi_many(beta, f.freqs * h)
        den[f.degree] = 1.0  # k = 0: the numerator vanishes exactly
        g = comparison_apply(f, num, den)
        return lp_norm(g, NormParams(p=2)) / lp_norm(f, NormParams(p=2))

    def test_bounded_independent_of_step(self, corpus_members):
        # realizing the difference through the average costs about
        # beta + 1, uniformly in the step
        worst = {}
        for h in self.FROZEN:
            w = 0.0
            for fid, f in corpus_members:
                for beta in (0.5, 2.5):
                    r = self.ratio(f, beta, h)
                    assert r <= 50.0, (fid, beta, h)
                    w = max(w, r)
            worst[h] = w
        for h, frozen in self.FROZEN.items():
            assert worst[h] == pytest.approx(frozen, rel=1e-9)
        vals = list(worst.values())
        spread = (max(vals) - min(vals)) / max(vals)
        assert spread < 1e-3
