"""Tests for truncation errors, de la Vallee-Poussin means, and the
Jackson-quotient probe."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsmooth import (
    CutoffV,
    InvalidArgumentError,
    ModulusRequest,
    NormParams,
    TrigPoly,
    best_approx_l2,
    classical_modulus,
    corpus,
    jackson_ratio,
    linearized_modulus,
    make_g_tau,
    near_best_error,
    vallee_poussin,
)
from fracsmooth.signal import evaluate, grid_size, lp_norm
from mpmath_oracles import cutoff_mpmath


class TestBestL2:
    def test_low_degree_is_reproduced(self):
        e3 = corpus("exponential", 3)
        trunc, err = best_approx_l2(e3, 5)
        assert err == 0.0
        assert trunc.degree == 3
        assert np.array_equal(trunc.coeffs, e3.coeffs)

    def test_single_mode_beyond_band(self):
        e3 = corpus("exponential", 3)
        trunc, err = best_approx_l2(e3, 1)
        assert err == 1.0
        assert not np.any(trunc.coeffs)

    def test_error_is_residual_norm(self):
        f = corpus("random_smooth", 8, seed=1)
        for n in (0, 2, 5):
            trunc, err = best_approx_l2(f, n)
            direct = lp_norm(f - trunc, NormParams(p=2))
            assert err == pytest.approx(direct, rel=1e-12)

    def test_nonincreasing_in_degree(self):
        f = corpus("random_smooth", 16, seed=2)
        errs = [best_approx_l2(f, n)[1] for n in range(17)]
        for a, b in zip(errs, errs[1:]):
            assert b <= a
        assert errs[-1] == 0.0

    def test_validation(self):
        for n in (-1, 2.7, math.nan):
            with pytest.raises(InvalidArgumentError, match="whole number"):
                best_approx_l2(corpus("exponential", 1), n)


class TestCutoff:
    V = CutoffV()

    def test_plateau_and_support(self):
        assert self.V(0.0) == 1.0
        assert self.V(1.0) == 1.0
        assert self.V(2.0) == 0.0
        assert self.V(5.0) == 0.0
        assert 0.0 < self.V(1.5) < 1.0

    def test_even(self):
        ts = np.linspace(0.0, 3.0, 31)
        assert np.array_equal(self.V(ts), self.V(-ts))

    def test_monotone_on_transition(self):
        ts = np.linspace(1.0, 2.0, 101)
        vals = self.V(ts)
        assert np.all(np.diff(vals) <= 0.0)

    def test_derivative_matches_difference_quotient(self):
        h = 1e-6
        for t in (-1.7, 0.2, 1.3, 1.7, 2.5):
            fd = (self.V(t + h) - self.V(t - h)) / (2.0 * h)
            assert self.V.derivative(t) == pytest.approx(fd, abs=1e-5)

    def test_derivative_matches_mpmath(self):
        with mpmath.workdps(30):
            for t in (-1.99, -1.7, -1.3, -1.01, 1.02, 1.25, 1.5, 1.8, 1.97):
                want = float(mpmath.diff(cutoff_mpmath, t))
                assert abs(self.V.derivative(t) - want) <= 1e-12, t

    def test_derivative_vanishes_off_transition(self):
        assert self.V.derivative(0.0) == 0.0
        assert self.V.derivative(0.9) == 0.0
        assert self.V.derivative(2.1) == 0.0

    def test_nan_argument_gives_nan(self):
        # v is undefined at NaN, so it must not read as outside the
        # support, and a comparison function built on it must not read 0
        assert math.isnan(self.V(math.nan))
        assert math.isnan(self.V.derivative(math.nan))
        got = self.V([math.nan, 1.5, math.inf])
        assert math.isnan(got[0])
        assert got[1:].tolist() == [self.V(1.5), 0.0]
        with pytest.raises(InvalidArgumentError):
            make_g_tau(3.9, 0.9).fn(math.nan)


class TestValleePoussin:
    def test_reproduces_low_band_exactly(self):
        f = corpus("random_smooth", 8, seed=1)
        g = vallee_poussin(f, 1.0 / 8.0)
        assert np.max(np.abs(g.coeffs - f.coeffs)) <= 1e-15

    def test_band_edges(self):
        e4 = corpus("exponential", 4)
        assert np.array_equal(vallee_poussin(e4, 0.25).coeffs, e4.coeffs)
        e8 = corpus("exponential", 8)
        assert not np.any(vallee_poussin(e8, 0.25).coeffs)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            vallee_poussin(corpus("exponential", 1), 0.0)

    @settings(max_examples=50, deadline=None)
    @given(deg=st.integers(0, 12), extra=st.integers(0, 4),
           seed=st.integers(0, 10))
    def test_reproduction_property(self, deg, extra, seed):
        f = corpus("random_smooth", deg, seed=seed)
        h = 1.0 / max(deg + extra, 1)
        g = vallee_poussin(f, h)
        assert np.max(np.abs(g.coeffs - f.coeffs)) <= 1e-15


class TestNearBest:
    def test_zero_when_degree_within_band(self):
        f = corpus("random_smooth", 8, seed=1)
        assert near_best_error(f, 8, 2) == 0.0
        assert near_best_error(f, 16, math.inf) == 0.0

    def test_validation(self):
        e1 = corpus("exponential", 1)
        for n in (-1, 2.7, math.nan):
            with pytest.raises(InvalidArgumentError, match="whole number"):
                near_best_error(e1, n, 2)

    def test_degree_zero_is_distance_to_mean(self):
        e1 = corpus("exponential", 1)
        for p in (1.0, 2.0, math.inf):
            assert near_best_error(e1, 0, p) == pytest.approx(1.0, rel=1e-9)

    def test_bracketed_by_exact_l2_errors(self):
        # the mean has degree at most 2n - 1, so the proxy sits between
        # the degree-(2n-1) error and a modest multiple of the degree-n one
        f = corpus("random_smooth", 16, seed=2)
        for n in (2, 5, 9):
            proxy = near_best_error(f, n, 2)
            assert proxy >= best_approx_l2(f, 2 * n - 1)[1] - 1e-12
            assert proxy <= 4.0 * best_approx_l2(f, n)[1]

    def test_frozen_value(self):
        # the grid maximum of |f - V f| on grid_size(32) = 525 points
        # (520 = 2^3*5*13 before FFT lengths were rounded up to 11-smooth
        # ones, which gave 0.9068388221259182); direct evaluation at the
        # same points is the oracle, and the maximum over 2^17 points
        # (0.90750016) lies above it
        f = corpus("sawtooth_truncated", 32)
        got = near_best_error(f, 8, math.inf)
        assert got == pytest.approx(0.9072509978170005, rel=1e-9)
        residual = f - vallee_poussin(f, 1.0 / 8)
        n = grid_size(residual.degree)
        direct = np.abs(evaluate(residual, 2.0 * math.pi * np.arange(n) / n))
        assert got == pytest.approx(float(direct.max()), rel=1e-12)
        dense = 2.0 * math.pi * np.arange(2 ** 17) / 2 ** 17
        sup = float(np.abs(evaluate(residual, dense)).max())
        assert got <= sup <= got * (1.0 + 1e-3)


class TestJacksonRatio:
    def test_constant_gives_zero(self):
        c = TrigPoly(0, np.array([5.0 + 0j]))
        assert jackson_ratio(c, 2, 4, 2) == 0.0

    def test_reproduced_mode_gives_zero(self):
        e3 = corpus("exponential", 3)
        assert jackson_ratio(e3, 1, 3, 2) == 0.0

    def test_finite_over_corpus_with_frozen_peak(self, corpus_members):
        worst = 0.0
        for fid, f in corpus_members:
            for n in (4, 8, 16):
                ratio = jackson_ratio(f, 2, n, 2)
                assert math.isfinite(ratio), (fid, n)
                worst = max(worst, ratio)
        assert worst == pytest.approx(0.2811733882019196, rel=1e-8)

    def test_validation(self):
        e1 = corpus("exponential", 1)
        # a fractional r or n is not truncated: jackson_ratio(e1, 1.5, 2,
        # 2) would otherwise be the order-1 ratio
        for bad in (0, 1.5, 2.7, math.nan):
            with pytest.raises(InvalidArgumentError, match="whole number"):
                jackson_ratio(e1, bad, 4, 2)
            with pytest.raises(InvalidArgumentError, match="whole number"):
                jackson_ratio(e1, 2, bad, 2)


class TestDegenerateRescue:
    def test_near_best_term_restores_the_bound(self, beta0_record):
        # at the pathological pair the linearized modulus alone cannot
        # bound the classical one; adding the near-best degree-floor(1/h)
        # error restores a modest constant
        e1 = corpus("exponential", 1)
        r = ModulusRequest(beta=beta0_record.beta_k, h=beta0_record.t_k,
                           norm=NormParams(p=2))
        omega = classical_modulus(e1, r)
        tilde = linearized_modulus(e1, r)
        base = near_best_error(e1, int(math.floor(1.0 / beta0_record.t_k)), 2)
        assert base == pytest.approx(1.0, rel=1e-9)
        assert tilde <= 1e-7
        assert omega / (tilde + base) <= 32.0
