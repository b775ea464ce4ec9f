"""Tests for fractional binomials and the difference operator."""
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracsmooth
from fracsmooth import (ConvergenceError, InvalidArgumentError,
                        ModulusRequest, NormParams, TrigPoly, apply_diff,
                        apply_diff_series, binom_abs_sum, corpus,
                        frac_binom, make_g1_g2, series_terms_needed,
                        symbol_values)
from fracsmooth.fracdiff import _least_terms, _tail, split_order
from fracsmooth.signal import evaluate, lp_norm

PI = math.pi
TWO_PI = 2.0 * PI


class TestFracBinom:
    def test_small_orders(self):
        assert frac_binom(0.5, 0) == 1.0
        assert frac_binom(0.5, 1) == 0.5
        assert frac_binom(0.5, 2) == -0.125

    def test_integer_order_vanishes_past_degree(self):
        assert frac_binom(3.0, 5) == 0.0
        assert frac_binom(3.0, 3) == 1.0

    @settings(max_examples=200, deadline=None)
    @given(beta=st.floats(-5, 10).filter(lambda b: b == 0.0 or abs(b) > 1e-20),
           nu=st.integers(0, 60))
    def test_matches_arbitrary_precision(self, beta, nu):
        # |beta| < 1e-20 excluded: the gamma-quotient oracle itself loses
        # the answer there, while the recurrence stays exact (next test)
        with mpmath.workdps(50):
            want = float(mpmath.binomial(beta, nu))
        got = frac_binom(beta, nu)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-300)

    @pytest.mark.parametrize("nu", [-1, 2.7, math.nan, math.inf])
    def test_rejects_an_index_that_is_not_a_whole_number(self, nu):
        with pytest.raises(InvalidArgumentError, match="whole number"):
            frac_binom(1.5, nu)

    def test_tiny_beta_first_term_not_absorbed(self):
        assert frac_binom(1e-150, 1) == 1e-150
        assert frac_binom(1e-150, 2) == pytest.approx(-0.5e-150, rel=1e-12)

    def test_abs_sum_integer_order(self):
        # sum_v |binom(n, v)| = 2^n for integer n
        assert binom_abs_sum(1.0) == pytest.approx(2.0, rel=1e-9)
        assert binom_abs_sum(3.0) == pytest.approx(8.0, rel=1e-9)

    def test_abs_sum_half_order_is_tight_upper_bound(self):
        # exact value: binom(1/2,0)=1 and sum_{v>=1}|binom(1/2,v)| = 1
        # (telescoping against (1-x)^{1/2} at x=1), so the sum is 2.
        # The tail past v = 0 is |binom(-1/2, 0)| = 1, one product
        # (beta - 0)/beta = 1 exactly, so the sum reads 2 to the bit.
        assert binom_abs_sum(0.5) == 2.0


def _mp_tail(beta, n):
    """|binom(beta - 1, n)| in 40 digits: the tail past n from n =
    floor(beta) on."""
    with mpmath.workdps(40):
        return abs(mpmath.binomial(mpmath.mpf(beta) - 1, n))


class TestExactTail:
    """T(N) = sum_{v>N} |binom(beta, v)| = |binom(beta - 1, N)| past
    floor(beta) (``fracdiff._tail``), and the least N that meets a bound
    (``fracdiff._least_terms``)."""

    @pytest.mark.parametrize("beta", [4.8431, 12.7])
    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_identity_matches_nsum(self, beta, which):
        # nsum's extrapolation of the tail is the oracle here; at small
        # orders the tail decays too slowly for it (2e-3 off at 0.7)
        n = (math.floor(beta), 20, 40)[which]
        with mpmath.workdps(40):
            want = mpmath.nsum(lambda v: abs(mpmath.binomial(beta, v)),
                               [n + 1, mpmath.inf])
        assert _tail(beta, n) == pytest.approx(float(want), rel=1e-10)

    def test_below_floor_and_at_integers(self):
        assert _tail(2.5, 1) == math.inf
        assert _tail(3.0, 3) == 0.0 and _tail(3.0, 2) == math.inf

    @pytest.mark.parametrize("beta, bounds", [
        (0.5, (1e-1, 1e-2, 1e-3)), (2.5, (1e-3, 1e-6, 1e-9)),
        (6.1, (1e-4, 1e-8, 1e-12))])
    def test_least_terms_for_the_tail(self, beta, bounds):
        for bound in bounds:
            n = _least_terms(lambda k: _tail(beta, k) <= bound, 10 ** 9)
            assert n > math.floor(beta)
            assert _mp_tail(beta, n) <= bound < _mp_tail(beta, n - 1)

    @pytest.mark.parametrize("beta, bounds", [
        (0.5, (1e-4, 1e-6, 1e-9)), (2.5, (1e-4, 1e-8, 1e-12)),
        (6.1, (1e-4, 1e-8, 1e-12))])
    def test_least_terms_for_the_weighted_tail(self, beta, bounds):
        # series_terms_needed(beta, tol): the least N with
        # beta T(N)/N <= tol/4
        for bound in bounds:
            n = series_terms_needed(beta, 4.0 * bound)
            assert n > math.floor(beta)
            assert (beta * _mp_tail(beta, n) / n <= bound
                    < beta * _mp_tail(beta, n - 1) / (n - 1))

    def test_least_terms_past_the_cap(self):
        assert _least_terms(lambda k: k >= 10, 4) == 5
        assert _least_terms(lambda k: k >= 10, 10) == 10
        assert _least_terms(lambda k: True, 0) == 0


class TestAbsSum:
    """sum_v |binom(beta, v)| in closed form from (1 - 1)^beta = 0: the
    terms past floor(beta) sum to minus the signed terms up to it."""

    @pytest.mark.parametrize("beta", [1e-300, 0.01, 0.3, 0.5, 0.99])
    def test_two_below_one(self, beta):
        assert binom_abs_sum(beta) == 2.0

    @pytest.mark.parametrize("beta", [1.01, 1.5, 1.9])
    def test_two_beta_between_one_and_two(self, beta):
        assert binom_abs_sum(beta) == pytest.approx(2.0 * beta, rel=1e-15)

    @pytest.mark.parametrize("beta", [2.01, 2.5, 2.9])
    def test_between_two_and_three(self, beta):
        want = 2.0 + beta * (beta - 1.0)
        assert binom_abs_sum(beta) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 60])
    def test_power_of_two_at_integers(self, n):
        assert binom_abs_sum(float(n)) == pytest.approx(2.0 ** n, rel=1e-14)

    def test_beyond_the_floats_is_infinite(self):
        assert binom_abs_sum(1100.5) == math.inf
        assert binom_abs_sum(1e300) == math.inf

    def test_memory_does_not_grow_with_a_term_cap(self):
        tracemalloc.start()
        try:
            assert binom_abs_sum(0.01) == 2.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestOrderCheck:
    """Every public entry that takes an order rejects one that is not
    positive and finite with InvalidArgumentError (``_util.check_beta``).
    ``frac_binom`` takes any real order and ``write_curve_csv`` only
    prints it, so neither is listed."""

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, math.inf])
    def test_every_entry_rejects(self, beta):
        f = corpus("random_smooth", 4, seed=1)
        fs = fracsmooth
        calls = {
            "symbol_values": lambda: symbol_values(beta, 0.5, [1]),
            "binom_abs_sum": lambda: binom_abs_sum(beta),
            "apply_diff": lambda: apply_diff(f, beta, 0.5),
            "apply_diff_series": lambda: apply_diff_series(f, beta, 0.5,
                                                           0.0),
            "ModulusRequest": lambda: ModulusRequest(
                beta=beta, h=0.1, norm=NormParams(p=2)),
            "default_alpha": lambda: fs.default_alpha(beta),
            "equivalence_scan": lambda: fs.equivalence_scan(
                [("f", f)], [beta], [0.1], [2.0]),
            "make_g_tau": lambda: fs.make_g_tau(beta, 0.5),
            "make_g1_g2": lambda: make_g1_g2(beta, 0.5, 0.5),
            "z_eval": lambda: fs.z_eval(beta, 1.0),
            "z_many": lambda: fs.z_many(beta, [1.0]),
            "z_span": lambda: fs.z_span(beta, 0.5, 1.0),
            "psi_eval": lambda: fs.psi_eval(beta, 0.0),
            "psi_many": lambda: fs.psi_many(beta, [0.0, 1.0]),
            "series_terms_needed": lambda: series_terms_needed(beta, 1e-9),
            "z_series": lambda: fs.z_series(beta, 1.0),
            "z_series_many": lambda: fs.z_series_many(beta, [1.0]),
            "xy_prime": lambda: fs.xy_prime(beta, 1.0),
            "curve_points": lambda: fs.curve_points(beta, 0.0, 1.0, 4),
            "curve_F": lambda: fs.curve_F(beta),
            "y_zeros": lambda: fs.y_zeros(beta, 0.5, 6.0, 16),
            "verify_nonvanishing": lambda: fs.verify_nonvanishing(
                beta, 0.5, 6.0, 16),
        }
        assert not _missed(calls)


class TestPointCheck:
    """The series oracles, ``xy_prime`` and ``apply_diff`` reject a point
    or step that is not finite with InvalidArgumentError, as ``z_many``
    does, instead of summing to NaN or warning on an infinite argument."""

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_every_route_rejects(self, t):
        f = corpus("random_smooth", 4, seed=1)
        calls = {
            "z_many": lambda: fracsmooth.z_many(2.5, [1.0, t]),
            "z_series": lambda: fracsmooth.z_series(2.5, t),
            "z_series_many": lambda: fracsmooth.z_series_many(2.5, [1.0, t]),
            "xy_prime": lambda: fracsmooth.xy_prime(2.5, t),
            "apply_diff_series x": lambda: apply_diff_series(f, 2.5, 0.5, t),
            "apply_diff_series delta": lambda: apply_diff_series(
                f, 2.5, t, 0.0),
            "apply_diff": lambda: apply_diff(f, 2.5, t),
        }
        assert not _missed(calls)

    @pytest.mark.parametrize("delta", [1e308, -1e308, 5e307])
    def test_overflowing_step_rejects(self, delta):
        # k * delta leaves the floats at the top frequencies of f (at
        # k = 4 alone for 5e307) and at k = 10, so it raises with no
        # overflow warning first
        f = corpus("random_smooth", 4, seed=1)
        calls = {
            "apply_diff": lambda: apply_diff(f, 2.5, delta),
            "symbol_values": lambda: symbol_values(2.5, delta, [0.0, 10.0]),
        }
        assert not _missed(calls)


def _missed(calls):
    """name -> outcome of each call that does not raise
    InvalidArgumentError."""
    missed = {}
    for name, call in calls.items():
        try:
            call()
        except InvalidArgumentError:
            continue
        except Exception as exc:  # noqa: BLE001 - reported by the caller
            missed[name] = repr(exc)
        else:
            missed[name] = "no error"
    return missed


class TestSplitOrder:
    """beta = alpha + gap, alpha in (0, 4], gap a nonnegative integer."""

    @pytest.mark.parametrize("beta, alpha, gap", [
        (3.5, 2.5, 1), (4.0, 4.0, 0), (7.25, 0.25, 7), (3.0 + 1e-10, 1.0, 2)])
    def test_gap(self, beta, alpha, gap):
        got = split_order(beta, alpha)
        assert got == gap and isinstance(got, int)

    @pytest.mark.parametrize("beta, alpha, message", [
        (5.0, 5.0, "alpha must lie in (0, 4]"),
        (1.0, 0.0, "alpha must lie in (0, 4]"),
        (4.85, 4.0, "beta - alpha must be a nonnegative integer"),
        (2.5, 3.5, "beta - alpha must be a nonnegative integer")])
    def test_every_caller_rejects_with_one_message(self, beta, alpha,
                                                   message):
        calls = [lambda: split_order(beta, alpha),
                 lambda: ModulusRequest(beta=beta, h=0.1, norm=NormParams(p=2),
                                        alpha=alpha),
                 lambda: make_g1_g2(beta, alpha, 0.5)]
        for call in calls:
            with pytest.raises(InvalidArgumentError) as err:
                call()
            assert str(err.value) == message


class TestDiffSymbol:
    def test_pinned_values(self):
        assert symbol_values(1.0, PI, [1])[0] == pytest.approx(2.0)
        got = symbol_values(2.0, PI / 2, [1])[0]
        assert got == pytest.approx(-2.0j, abs=1e-14)  # (1-i)^2
        got = symbol_values(0.5, PI, [1])[0]
        assert got == pytest.approx(math.sqrt(2.0), abs=1e-14)

    def test_zero_frequency_is_exactly_zero(self):
        f = corpus("random_smooth", 3, seed=1)
        assert symbol_values(2.5, 0.7, f.freqs)[3] == 0.0
        assert apply_diff(f, 2.5, 0.7).coeffs[3] == 0.0

    def test_zero_step_gives_zero_symbol(self):
        f = corpus("random_smooth", 4, seed=1)
        assert np.all(symbol_values(1.5, 0.0, f.freqs) == 0.0)
        assert np.all(apply_diff(f, 1.5, 0.0).coeffs == 0.0)

    @settings(max_examples=200, deadline=None)
    @given(beta=st.floats(0.1, 8.0), delta=st.floats(-10.0, 10.0),
           k=st.integers(-20, 20))
    def test_conjugate_symmetry_exact(self, beta, delta, k):
        """symbol(-k, -delta) == symbol(k, delta), bit for bit: both reduce
        to the same angle theta = k*delta mod 2pi."""
        a = symbol_values(beta, delta, np.array([k]))[0]
        b = symbol_values(beta, -delta, np.array([-k]))[0]
        assert a == b

    @pytest.mark.parametrize("beta", [0.5, 2.5, 7.3])
    @pytest.mark.parametrize("delta, lattice", [
        (0.05, False), (0.7, False), (3.0, False), (PI, True),
        (TWO_PI / 4.0, True), (TWO_PI / 3.0, True), (TWO_PI, True)])
    def test_minus_k_is_the_conjugate_bitwise(self, beta, delta, lattice):
        # the half-spectrum synthesis of a real difference relies on it.
        # The steps 2pi/m put some k*delta on the lattice 2pi*Z (exact
        # zeros where the float product is a multiple of the float 2pi)
        # and the other multiples of 2pi within rounding of it
        k = np.arange(1, 41)
        pos = symbol_values(beta, delta, k)
        neg = symbol_values(beta, delta, -k)
        assert np.array_equal(neg.view(np.uint64),
                              np.conj(pos).view(np.uint64)), (beta, delta)
        on = np.mod(k * delta, TWO_PI) == 0.0
        assert on.any() == lattice
        assert np.all(pos[on] == 0.0) and np.all(neg[on] == 0.0)

    def test_small_negative_steps_against_mpmath(self):
        # reducing k*delta < 0 into [0, 2pi) as 2pi - |k*delta| would
        # lose |k*delta| to rounding: 2.0e-8 relative at -1e-7
        for beta in (0.5, 3.9):
            for x in (-1e-7, -1e-4, -0.01, 1e-7):
                got = symbol_values(beta, x, np.array([1]))[0]
                with mpmath.workdps(40):
                    want = complex((1 - mpmath.exp(1j * mpmath.mpf(x)))
                                   ** mpmath.mpf(beta))
                assert abs(got - want) <= 4e-15 * abs(want), (beta, x)

    def test_scalar_frequency(self):
        # a scalar k gives a 0-d array, the value of the one-element call
        got = symbol_values(2.5, 0.1, 3)
        assert got.shape == ()
        assert got == symbol_values(2.5, 0.1, [3])[0]
        assert symbol_values(2.5, -0.1, 3) == np.conj(got)
        assert symbol_values(2.5, 0.0, 3) == 0.0

    @pytest.mark.parametrize("beta, delta, k", [
        (math.nan, 0.1, [1, 2]), (math.inf, 0.1, [1]), (0.0, 0.1, [1]),
        (2.5, math.inf, [1, 2]), (2.5, -math.inf, [1]),
        (2.5, math.nan, [1]), (2.5, 0.1, [math.inf]),
        (2.5, np.array([[0.1], [math.inf]]), [1, 2])])
    def test_rejects_non_finite(self, beta, delta, k):
        # a NaN would pass into every symbol unnoticed; the error names
        # the argument instead
        with pytest.raises(InvalidArgumentError):
            symbol_values(beta, delta, k)

    def test_magnitude_identity(self):
        # |(1-e^{i theta})^beta| = (2|sin(theta/2)|)^beta
        for beta in (0.5, 1.7, 3.0):
            for theta in (0.3, 1.0, 2.5, 4.0, 6.0):
                got = abs(symbol_values(beta, theta, np.array([1]))[0])
                want = (2.0 * abs(math.sin(theta / 2.0))) ** beta
                assert got == pytest.approx(want, rel=1e-13)

    def test_principal_branch_against_complex_power(self):
        # generic complex log agrees away from the cut
        for beta in (0.5, 2.5):
            for theta in (0.5, 1.5, 3.0):
                got = symbol_values(beta, theta, np.array([1]))[0]
                want = np.exp(beta * np.log(1.0 - np.exp(1j * theta)))
                assert got == pytest.approx(want, rel=1e-12)


class TestApplyDiff:
    def test_constant_annihilated(self):
        f = TrigPoly(0, np.array([4.2 + 0j]))
        g = apply_diff(f, 1.5, 0.7)
        assert np.all(g.coeffs == 0.0)

    def test_single_mode_first_order(self):
        delta = 0.3
        g = apply_diff(corpus("exponential", 1), 1.0, delta)
        assert g.coeff(1) == pytest.approx(1.0 - np.exp(1j * delta), rel=1e-14)

    def test_linearity(self):
        f = corpus("random_smooth", 6, seed=2)
        g = corpus("sawtooth_truncated", 6)
        lhs = apply_diff(f + g, 1.5, 0.4)
        rhs = apply_diff(f, 1.5, 0.4) + apply_diff(g, 1.5, 0.4)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.5])
    @pytest.mark.parametrize("h", [0.1, 1.0, 3.0])
    def test_semigroup(self, alpha, h):
        f = corpus("random_smooth", 8, seed=4)
        for beta in (0.5, 1.0, 1.5, 2.5):
            twice = apply_diff(apply_diff(f, alpha, h), beta, h)
            once = apply_diff(f, alpha + beta, h)
            assert np.max(np.abs(twice.coeffs - once.coeffs)) < 1e-12

    def test_boundedness_by_coefficient_sum(self, corpus_members):
        # || diff f ||_p <= (sum |binom|) ||f||_p for p >= 1
        for beta in (0.5, 2.5):
            c = binom_abs_sum(beta)
            for fid, f in corpus_members:
                for p in (1.0, 2.0, math.inf):
                    norm = NormParams(p=p)
                    lhs = lp_norm(apply_diff(f, beta, 0.8), norm)
                    rhs = c * lp_norm(f, norm)
                    assert lhs <= rhs * (1.0 + 1e-9), (fid, beta, p)


class TestSeriesOracle:
    def test_constant(self):
        f = TrigPoly(0, np.array([1.0 + 0j]))
        assert abs(apply_diff_series(f, 2.0, 0.5, 1.0, tol=1e-10)) < 1e-10

    def test_single_mode_first_order(self):
        f = corpus("exponential", 1)
        got = apply_diff_series(f, 1.0, 0.3, 0.0, tol=1e-12)
        assert got == pytest.approx(1.0 - np.exp(0.3j), abs=1e-12)

    def test_cross_check_against_multiplier_path(self):
        f = corpus("random_smooth", 8, seed=7)
        got = apply_diff_series(f, 2.5, 0.2, 1.0, tol=1e-8)
        want = evaluate(apply_diff(f, 2.5, 0.2), [1.0])[0]
        assert abs(got - want) <= 1e-8

    def test_rejects_a_tolerance_that_is_not_positive(self):
        # a tail is never below 0, so the search would sum to the cap
        f = corpus("random_smooth", 4, seed=1)
        for tol in (0.0, -1e-8, math.nan):
            with pytest.raises(InvalidArgumentError, match="tol"):
                apply_diff_series(f, 2.5, 0.5, 0.0, tol=tol)

    @pytest.mark.parametrize("cap", [0, -1, 2.5, math.nan])
    def test_rejects_a_cap_that_is_not_a_whole_number(self, cap):
        f = corpus("random_smooth", 4, seed=1)
        with pytest.raises(InvalidArgumentError, match="cap"):
            apply_diff_series(f, 2.5, 0.5, 0.0, cap=cap)

    def test_unreachable_tolerance_reports_partial(self):
        # at beta=0.7 the tail decays like N^-0.7: 1e-12 needs ~1e17 terms
        f = corpus("random_smooth", 4, seed=1)
        with pytest.raises(ConvergenceError) as err:
            apply_diff_series(f, 0.7, 0.5, 0.0, tol=1e-12, cap=5000)
        assert err.value.partial is not None
        assert err.value.achieved > 1e-12
        # the capped partial sum sits within its own reported tail bound
        # of the exact value from the multiplier path
        exact = evaluate(apply_diff(f, 0.7, 0.5), [0.0])[0]
        assert abs(err.value.partial - exact) <= err.value.achieved
