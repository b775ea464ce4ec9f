"""Tests for trigonometric polynomials, norms, and the corpus."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracsmooth import InvalidArgumentError, NormParams, TrigPoly, corpus
from fracsmooth import signal
from fracsmooth.fracdiff import apply_diff
from fracsmooth.signal import (evaluate, from_samples, grid_size, grid_values,
                              lp_norm, lp_norms)

PI = math.pi
EPS = np.finfo(float).eps


def e_n(n):
    return corpus("exponential", n)


class TestTrigPoly:
    def test_coeff_vector_length_enforced(self):
        with pytest.raises(InvalidArgumentError):
            TrigPoly(2, np.ones(4))

    def test_negative_degree_rejected(self):
        with pytest.raises(InvalidArgumentError):
            TrigPoly(-1, np.ones(1))

    @pytest.mark.parametrize("degree", [2.5, math.nan, math.inf])
    def test_fractional_degree_rejected(self, degree):
        # 2.5 would give the frequencies -2.5, ..., 2.5
        with pytest.raises(InvalidArgumentError, match="whole number"):
            TrigPoly(degree, np.ones(6))

    def test_whole_float_degree_is_an_int(self):
        f = TrigPoly(2.0, np.arange(5, dtype=complex))
        assert type(f.degree) is int
        assert f.coeff(2) == 4.0

    def test_nonfinite_coeffs_rejected(self):
        with pytest.raises(InvalidArgumentError):
            TrigPoly(0, np.array([np.nan]))

    def test_freqs_and_coeff_accessor(self):
        f = TrigPoly(2, np.arange(5, dtype=complex))
        assert list(f.freqs) == [-2, -1, 0, 1, 2]
        assert f.coeff(-2) == 0.0
        assert f.coeff(2) == 4.0
        assert f.coeff(7) == 0.0  # outside the band

    def test_is_real_flag(self):
        assert corpus("abs_sin_truncated", 4).is_real
        assert corpus("random_smooth", 8, seed=1).is_real
        assert not e_n(1).is_real

    def test_arithmetic(self):
        f = e_n(1) + e_n(3)
        assert f.degree == 3
        assert f.coeff(1) == 1.0 and f.coeff(3) == 1.0
        g = f - e_n(1)
        assert g.coeff(1) == 0.0
        h = 2.5 * e_n(2)
        assert h.coeff(2) == 2.5


class TestLpNorm:
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, math.inf])
    def test_single_mode_has_unit_norm(self, p):
        # |e^{inx}| = 1 identically
        assert lp_norm(e_n(4), NormParams(p=p)) == pytest.approx(1.0, abs=1e-12)

    def test_constant(self):
        f = TrigPoly(0, np.array([3.0 - 4.0j]))
        assert lp_norm(f, NormParams(p=2.0)) == pytest.approx(5.0, rel=1e-13)

    def test_two_cosine_parseval(self):
        f = TrigPoly(1, np.array([1.0, 0.0, 1.0], dtype=complex))  # 2cos x
        assert lp_norm(f, NormParams(p=2.0)) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_parseval_on_corpus(self, corpus_members):
        for fid, f in corpus_members:
            direct = lp_norm(f, NormParams(p=2.0)) ** 2
            parseval = float(np.sum(np.abs(f.coeffs) ** 2))
            assert direct == pytest.approx(parseval, rel=1e-10), fid

    def test_oversampling_stability(self, monkeypatch):
        # smooth members: doubling the grid's points per coefficient moves
        # p = 1 and 2 by less than the documented 1e-6 (measured ~1e-15).
        # The p = inf grid maximum lies below the dense maximum and within
        # 1e-3 of it on both grids (5.4e-4 on random:8:1 at 8 points)
        xs = 2 * PI * np.arange(2 ** 17) / 2 ** 17
        for f in (e_n(3), corpus("random_smooth", 8, seed=1)):
            dense = float(np.abs(evaluate(f, xs)).max())
            for p in (1.0, 2.0, math.inf):
                a = lp_norm(f, NormParams(p=p))
                with monkeypatch.context() as m:
                    m.setattr(signal, "_OVERSAMPLE", 16)
                    b = lp_norm(f, NormParams(p=p))
                if math.isinf(p):
                    for got in (a, b):
                        assert got <= dense + 1e-12
                        assert dense - got <= 1e-3 * dense
                else:
                    assert abs(a - b) <= 1e-6 * a

    def test_invalid_p_rejected(self):
        with pytest.raises(InvalidArgumentError):
            NormParams(p=0.0)
        with pytest.raises(InvalidArgumentError):
            NormParams(p=-2.0)

    def test_p1_is_min_of_one_and_p(self):
        assert NormParams(p=0.5).p1 == 0.5
        assert NormParams(p=3.0).p1 == 1.0
        assert NormParams(p=math.inf).p1 == 1.0


def _rectangle_rule(f, params):
    """The norm spelled out from ``grid_values``: mean of |f|^p on the
    grid (max for p = inf), with |f| the hypot of the real and imaginary
    parts (NumPy's complex ``abs`` differs from hypot in the last bit);
    at p = 2, Parseval's sum of |c_k|^2, which the rule computes in exact
    arithmetic."""
    if params.p == 2.0:
        c = f.coeffs
        return float(np.sqrt(np.sum(c.real ** 2 + c.imag ** 2)))
    g = grid_values(f, grid_size(f.degree))
    vals = np.hypot(g.real, g.imag)
    if math.isinf(params.p):
        return float(vals.max())
    return float(np.mean(vals ** params.p) ** (1.0 / params.p))


def _complex_ifft_rule(f, p):
    """The rectangle rule by a full complex inverse FFT of the scattered
    coefficients on the ``grid_size`` grid (max for p = inf)."""
    n = grid_size(f.degree)
    spec = np.zeros(n, dtype=complex)
    spec[np.mod(f.freqs, n)] = f.coeffs
    vals = np.abs(n * np.fft.ifft(spec))
    if math.isinf(p):
        return float(vals.max())
    return float(np.mean(vals ** p) ** (1.0 / p))


class TestLpNorms:
    PARAMS = [NormParams(p=p) for p in (0.5, 1.0, 1.5, 2.0, 3.0, math.inf)]

    def test_lp_norm_is_the_rectangle_rule_bitwise(self, corpus_members):
        members = corpus_members + [("random:40:5",
                                     corpus("random_smooth", 40, seed=5))]
        for fid, f in members:
            for params in self.PARAMS:
                assert lp_norm(f, params) == _rectangle_rule(f, params), \
                    (fid, params)

    def test_rows_are_the_rectangle_rule_bitwise(self):
        # enough rows for NumPy's vectorised loops to engage; at p = 1.5
        # and 3 a vectorised root would differ from the scalar one.  The
        # Hermitian batch (real functions) takes the one-irfft path
        rng = np.random.default_rng(11)
        rows = (rng.standard_normal((64, 21))
                + 1j * rng.standard_normal((64, 21)))
        real = rows + np.conj(rows[:, ::-1])
        assert signal._synthesis(real, 64)[1] is None
        for batch in (rows, real):
            for params in self.PARAMS:
                want = [_rectangle_rule(TrigPoly(10, r), params)
                        for r in batch]
                assert lp_norms(batch, (params.p,)).tolist() == [want], \
                    params

    def test_p1_is_the_row_mean_bitwise(self, corpus_members):
        # the general rule at p = 1 as reference: |f| ** 1, then the
        # scalar root m ** (1 / 1) row by row
        def powered(c):
            u, v = signal._synthesis(c, grid_size((c.shape[1] - 1) // 2))
            vals = np.abs(u) if v is None else np.hypot(u, v)
            vals **= 1.0
            return [m ** (1.0 / 1.0) for m in np.mean(vals, axis=1)]

        for fid, f in corpus_members:
            rows = np.array([apply_diff(f, beta, h).coeffs
                             for beta in (0.5, 1.0, 2.5, 3.5, 5.0)
                             for h in np.linspace(0.01, 1.0, 40)])
            for batch in (rows, rows * (1.0 + 1.0j)):
                got = lp_norms(batch, (1.0,))[0]
                assert got.view(np.uint64).tolist() == \
                    np.array(powered(batch)).view(np.uint64).tolist(), fid

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 3.0, math.inf])
    def test_against_the_complex_ifft_rule(self, corpus_members, p):
        rng = np.random.default_rng(5)
        members = list(corpus_members) + [
            (f"complex:{m}", TrigPoly(m, rng.standard_normal(2 * m + 1)
                                      + 1j * rng.standard_normal(2 * m + 1)))
            for m in (0, 3, 10, 40)]
        for fid, f in members:
            for g in (f, apply_diff(f, 2.5, 0.2), apply_diff(f, 0.5, 1.0)):
                got = lp_norm(g, NormParams(p=p))
                want = _complex_ifft_rule(g, p)
                tol = 1e-14 * want
                if p < 1.0:
                    # | |a|^p - |b|^p | <= |a - b|^p, so a grid value at an
                    # exact zero of f carries each synthesis's rounding
                    # (a few eps times sum |c_k|) to the power p: at x = pi
                    # the sawtooth reads 0.0 here and 5.7e-17 by the
                    # complex ifft, 1.3e-10 apart in its p = 0.5 norm
                    floor = 8.0 * EPS * np.sum(np.abs(g.coeffs))
                    tol += floor ** p * want ** (1.0 - p) / p
                assert abs(got - want) <= tol, (fid, p)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.5, 7.3])
    def test_p2_on_a_difference_of_a_mode_is_the_closed_form(self, beta):
        # ||D_delta^beta e_n||_2 = |1 - e^{in delta}|^beta
        #                        = (2 |sin(n delta / 2)|)^beta
        for n in (-3, -1, 1, 3, 16):
            for delta in (0.05, 0.2, 1.0, 2.9):
                got = lp_norm(apply_diff(e_n(n), beta, delta),
                              NormParams(p=2.0))
                want = (2.0 * abs(math.sin(0.5 * n * delta))) ** beta
                assert got == pytest.approx(want, rel=4e-15), (n, delta)

    def test_p2_builds_no_grid(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("p = 2 synthesised a grid")
        monkeypatch.setattr(signal, "_synthesis", no_grid)
        f = corpus("random_smooth", 8, seed=1)
        assert lp_norm(f, NormParams(p=2.0)) > 0.0

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0, math.inf])
    def test_a_row_does_not_depend_on_its_batch(self, p):
        # a real row alone takes one irfft; batched with complex rows it
        # also gets an imaginary part of exact zeros, and hypot(u, 0) = |u|
        real = corpus("random_smooth", 10, seed=3).coeffs
        rng = np.random.default_rng(2)
        noise = rng.standard_normal((3, 21)) + 1j * rng.standard_normal((3, 21))
        alone = lp_norms(real[None, :], (p,))[0, 0]
        mixed = lp_norms(np.vstack([noise[:2], real, noise[2:]]), (p,))[0]
        assert mixed[2] == alone
        assert np.array_equal(mixed[[0, 1, 3]], lp_norms(noise, (p,))[0])

    def test_one_synthesis_serves_every_p(self, counting):
        # one call at five p is bit for bit the five one-p calls, and
        # synthesises once; p = 2 alone synthesises nothing
        rng = np.random.default_rng(7)
        rows = (rng.standard_normal((40, 33))
                + 1j * rng.standard_normal((40, 33)))
        ps = (0.5, 1.0, 1.5, 2.0, math.inf)
        want = [lp_norms(rows, (p,))[0] for p in ps]
        calls = counting(signal, "_synthesis")
        got = lp_norms(rows, ps)
        assert got.shape == (len(ps), 40) and len(calls) == 1
        assert got.view(np.uint64).tolist() == \
            np.array(want).view(np.uint64).tolist()
        calls.clear()
        assert lp_norms(rows, (2.0,))[0].tolist() == want[3].tolist()
        assert calls == []

    def test_grid_size(self):
        assert grid_size(0) == 64
        assert grid_size(16) == 264
        # rounded up to an 11-smooth FFT length
        assert grid_size(8) == 140       # from 136 = 8*17
        assert grid_size(1024) == 16464  # from 2^3*3*683


@settings(max_examples=100, deadline=None)
@given(re=st.floats(-10, 10), im=st.floats(-10, 10),
       p=st.sampled_from([0.5, 1.0, 2.0, math.inf]))
def test_norm_homogeneity(re, im, p):
    """lp_norm(c*f, p) = |c| * lp_norm(f, p), including the p=1/2 quasi-norm."""
    c = complex(re, im)
    f = corpus("random_smooth", 6, seed=9)
    base = lp_norm(f, NormParams(p=p))
    scaled = lp_norm(c * f, NormParams(p=p))
    assert scaled == pytest.approx(abs(c) * base, rel=1e-12, abs=1e-12)


class TestEvaluate:
    def test_single_mode_endpoints(self):
        assert evaluate(e_n(1), [0.0])[0] == pytest.approx(1.0)
        assert evaluate(e_n(1), [PI])[0] == pytest.approx(-1.0, abs=1e-15)

    def test_against_per_term_summation(self):
        rng = np.random.default_rng(3)
        f = TrigPoly(5, rng.normal(size=11) + 1j * rng.normal(size=11))
        xs = rng.uniform(0.0, 2 * PI, size=16)
        naive = np.array([sum(f.coeff(k) * np.exp(1j * k * x)
                              for k in range(-5, 6)) for x in xs])
        assert np.max(np.abs(evaluate(f, xs) - naive)) < 1e-12

    def test_grid_values_match_evaluate(self):
        f = corpus("sawtooth_truncated", 6)
        n = 32
        xs = 2 * PI * np.arange(n) / n
        assert np.max(np.abs(grid_values(f, n) - evaluate(f, xs))) < 1e-12


class TestFromSamples:
    def test_single_mode_recovery(self):
        xs = 2 * PI * np.arange(8) / 8
        f = from_samples(np.exp(1j * xs))
        assert f.degree == 3
        assert f.coeff(1) == pytest.approx(1.0)
        assert abs(f.coeff(0)) < 1e-15 and abs(f.coeff(2)) < 1e-15

    def test_constant_samples(self):
        f = from_samples(np.full(7, 2.0 + 0j))
        assert f.coeff(0) == pytest.approx(2.0)
        assert np.sum(np.abs(f.coeffs)) == pytest.approx(2.0)

    def test_round_trip_exact_recovery(self):
        rng = np.random.default_rng(11)
        f = TrigPoly(5, rng.normal(size=11) + 1j * rng.normal(size=11))
        g = from_samples(grid_values(f, 16))
        assert g.degree == 7
        for k in range(-7, 8):
            assert g.coeff(k) == pytest.approx(f.coeff(k), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            from_samples(np.array([]))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**16))
def test_from_samples_reproduces_samples(n, seed):
    """evaluate(from_samples(v)) returns v at the sample grid (odd N exact;
    even N exact once the Nyquist line is absent from the data)."""
    rng = np.random.default_rng(seed)
    m = (n - 1) // 2
    f = TrigPoly(m, rng.normal(size=2 * m + 1) + 1j * rng.normal(size=2 * m + 1))
    xs = 2 * PI * np.arange(n) / n
    v = evaluate(f, xs)
    back = evaluate(from_samples(v), xs)
    assert np.max(np.abs(back - v)) < 1e-10 * max(1.0, np.max(np.abs(v)))


class TestCorpus:
    def test_exponential_is_single_mode(self):
        f = corpus("exponential", 3)
        assert f.coeff(3) == 1.0
        assert np.sum(np.abs(f.coeffs)) == 1.0

    def test_negative_mode_index(self):
        f = corpus("exponential", -2)
        assert f.coeff(-2) == 1.0

    def test_abs_sin_coefficients(self):
        # Fourier series of |sin x|: 2/pi - (4/pi) sum cos(2mx)/(4m^2-1)
        f = corpus("abs_sin_truncated", 2)
        assert f.coeff(0) == pytest.approx(2.0 / PI, rel=1e-15)
        assert f.coeff(2) == pytest.approx(-2.0 / (3.0 * PI), rel=1e-15)
        assert f.coeff(1) == 0.0

    def test_abs_sin_against_quadrature(self):
        # numeric Fourier coefficients of |sin| as an independent oracle
        f = corpus("abs_sin_truncated", 4)
        n = 4096
        xs = 2 * PI * np.arange(n) / n
        for k in range(-4, 5):
            ck = np.mean(np.abs(np.sin(xs)) * np.exp(-1j * k * xs))
            assert f.coeff(k) == pytest.approx(ck, abs=1e-6)

    def test_random_smooth_deterministic(self):
        a = corpus("random_smooth", 8, seed=5)
        b = corpus("random_smooth", 8, seed=5)
        assert np.array_equal(a.coeffs, b.coeffs)
        c = corpus("random_smooth", 8, seed=6)
        assert not np.array_equal(a.coeffs, c.coeffs)

    def test_random_smooth_decay_profile(self):
        f = corpus("random_smooth", 12, seed=1)
        for k in range(1, 13):
            assert abs(f.coeff(k)) == pytest.approx((1.0 + k) ** -2.0, rel=1e-12)

    def test_sawtooth_is_sine_series(self):
        f = corpus("sawtooth_truncated", 5)
        # sum sin(kx)/k: purely odd, imaginary coefficient pairs
        for k in range(1, 6):
            assert f.coeff(k) == pytest.approx(-0.5j / k)
        assert f.coeff(0) == 0.0

    def test_unknown_kind(self):
        with pytest.raises(InvalidArgumentError):
            corpus("chirp", 4)

    @pytest.mark.parametrize("kind", ["exponential", "random_smooth",
                                      "sawtooth_truncated",
                                      "abs_sin_truncated"])
    @pytest.mark.parametrize("degree", [2.5, -1.5, math.nan, math.inf])
    def test_degree_must_be_whole(self, kind, degree):
        # int() would truncate 2.5 to degree 2, and fails on nan and inf
        with pytest.raises(InvalidArgumentError, match="whole number"):
            corpus(kind, degree)

    def test_whole_float_degree(self):
        got = corpus("random_smooth", 4.0, seed=1)
        assert got.degree == 4
        assert np.array_equal(got.coeffs, corpus("random_smooth", 4,
                                                 seed=1).coeffs)

    def test_default_corpus_ids(self, corpus_members):
        assert [fid for fid, _ in corpus_members] == [
            "exp:1", "exp:3", "random:8:1", "random:16:2",
            "sawtooth:8", "abssin:8"]
