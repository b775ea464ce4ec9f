"""Tests for the four moduli of smoothness and the equivalence scan."""

import io
import json
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from fracsmooth import (
    CSV_HEADER,
    EquivReport,
    InvalidArgumentError,
    ModulusRequest,
    NormParams,
    TrigPoly,
    UnsupportedParameterError,
    binom_abs_sum,
    classical_modulus,
    corpus,
    default_alpha,
    equivalence_scan,
    integral_modulus,
    linearized_modulus,
    psi_eval,
    read_report_csv,
    star_modulus,
    write_report_csv,
    write_report_json,
)
from fracsmooth import moduli, signal
from fracsmooth._util import _BRACKET_KNOTS, bracket_max, gauss_legendre
from fracsmooth.fracdiff import apply_diff, symbol_values
from fracsmooth.kernel import psi_many
from fracsmooth.moduli import _BLOCK_ELEMS, _diff_norms, _ratio
from fracsmooth.signal import grid_size, lp_norm


def req(beta, h, p, **kw):
    return ModulusRequest(beta=beta, h=h, norm=NormParams(p=p), **kw)


E1 = corpus("exponential", 1)


class TestClassical:
    def test_first_order_single_mode(self):
        # ||diff_delta e_1||_2 = 2 sin(delta/2), increasing on (0, pi),
        # so the sup sits at the right end
        got = classical_modulus(E1, req(1.0, 0.5, 2))
        assert got == pytest.approx(2.0 * math.sin(0.25), rel=1e-9)

    def test_sup_beyond_monotone_range(self):
        # with h past pi the sup sits at the interior peak delta = pi
        got = classical_modulus(E1, req(1.0, 4.0, 2))
        assert got == pytest.approx(2.0, rel=1e-9)

    def test_constant_annihilated(self):
        c = TrigPoly(0, np.array([3.0 - 4.0j]))
        assert classical_modulus(c, req(0.5, 1.0, 2)) == 0.0

    def test_nondecreasing_in_h(self, corpus_members):
        hs = (0.05, 0.1, 0.2, 0.4)
        for fid, f in corpus_members:
            for beta in (0.5, 2.5):
                for p in (1.0, 2.0, math.inf):
                    vals = [classical_modulus(f, req(beta, h, p)) for h in hs]
                    for lo, hi in zip(vals, vals[1:]):
                        assert hi >= lo * (1.0 - 1e-9), (fid, beta, p)

    def test_small_step_is_smaller(self, corpus_members):
        for fid, f in corpus_members:
            if f.degree == 0:
                continue
            tiny = classical_modulus(f, req(1.0, 1e-3, 2))
            ref = classical_modulus(f, req(1.0, 0.1, 2))
            assert tiny < ref, fid

    def test_order_comparison(self, corpus_members):
        # raising the order by alpha costs at most the coefficient mass
        # of the extra difference
        for alpha, beta in ((1.0, 0.5), (0.5, 1.0), (2.0, 2.5)):
            c = binom_abs_sum(alpha)
            for fid, f in corpus_members:
                hi = classical_modulus(f, req(alpha + beta, 0.3, 2))
                lo = classical_modulus(f, req(beta, 0.3, 2))
                assert hi <= c * lo * (1.0 + 1e-9), (fid, alpha, beta)

    def test_alpha_not_accepted(self):
        with pytest.raises(InvalidArgumentError):
            classical_modulus(E1, req(2.5, 0.5, 2, alpha=0.5))


class TestBracketMax:
    """The batched bracket search behind both polishes."""

    def test_never_below_best(self):
        def fn(xs):
            return -(xs - 0.3) ** 2
        assert bracket_max(fn, 0.0, 1.0, 10.0) == 10.0
        # the last knots are 8^-4 / 16 apart, so the argmax is within half
        # that, 7.6e-6, of the peak
        got = bracket_max(fn, 0.0, 1.0, -1.0)
        assert -(7.7e-6) ** 2 < got <= 0.0

    def test_rounds(self):
        # stop at once when the argmax is an end of the bracket; otherwise
        # five rounds, each shrinking the bracket eightfold
        rounds = []

        def fn(xs):
            rounds.append((xs[0], xs[-1]))
            return np.sin(xs)

        assert bracket_max(fn, 0.0, 1.0, -1.0) == math.sin(1.0)
        assert len(rounds) == 1
        rounds.clear()
        got = bracket_max(fn, 1.0, 2.0, -1.0)
        assert len(rounds) == 5
        assert rounds[-1][1] - rounds[-1][0] == pytest.approx(8.0 ** -4)
        assert 1.0 - 0.5 * 7.7e-6 ** 2 < got <= 1.0


class TestPolish:
    """The bracket polish of the classical sup against e_1, whose
    difference norm is (2 sin(delta/2))^beta at every p."""

    BETAS = (0.5, 2.5, 5.0)
    PS = (1.0, 2.0, math.inf)

    @pytest.mark.parametrize("h", [3.3, 4.0, 5.0])
    def test_interior_maximum_off_the_grid(self, h):
        # past pi the sup is 2^beta, reached at delta = pi, which is not a
        # grid step h k / 256
        for beta in self.BETAS:
            for p in self.PS:
                got = classical_modulus(E1, req(beta, h, p))
                assert got == pytest.approx(2.0 ** beta, rel=1e-12), (beta, p)

    @pytest.mark.parametrize("h", [0.05, 0.5, 2.0, math.pi])
    def test_maximum_at_h_is_the_grid_value(self, h):
        # the norm increases on (0, pi], so the sup is the value at h
        for beta in self.BETAS:
            for p in self.PS:
                got = classical_modulus(E1, req(beta, h, p))
                want = _diff_norms(E1, beta, [h], NormParams(p=p))[0]
                assert got == want, (beta, p)


class TestPolishBudget:
    """``_diff_norms`` calls per classical modulus: one for the step grid,
    then one per bracket round."""

    @staticmethod
    def counting(monkeypatch):
        calls = []
        inner = moduli._diff_norms

        def wrapper(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(moduli, "_diff_norms", wrapper)
        return calls, inner

    def test_corpus_cells(self, monkeypatch, corpus_members):
        # the sup sits at delta = h in 354 of these 360 cells (default
        # corpus x 5 orders x 4 steps x 3 exponents); one round suffices
        # there
        calls, inner = self.counting(monkeypatch)
        at_h = 0
        for fid, f in corpus_members:
            for beta in (0.5, 1.0, 2.5, 3.5, 5.0):
                for h in (0.05, 0.2, 0.37, 1.0):
                    for p in (1.0, 2.0, math.inf):
                        calls.clear()
                        got = classical_modulus(f, req(beta, h, p))
                        cell = (fid, beta, h, p, len(calls))
                        if got == inner(f, beta, [h], NormParams(p=p))[0]:
                            at_h += 1
                            assert len(calls) == 2, cell
                        else:
                            assert len(calls) <= 6, cell
        assert at_h == 354

    def test_single_mode(self, monkeypatch):
        calls, _ = self.counting(monkeypatch)
        for h, budget in ((0.5, 2), (2.0, 2), (4.0, 6)):
            calls.clear()
            classical_modulus(E1, req(2.5, h, 2))
            assert len(calls) == budget, h


def scalar_norms(f, beta, deltas, norm):
    """One public ``lp_norm(apply_diff(...))`` composition per step."""
    return [lp_norm(apply_diff(f, beta, float(d)), norm) for d in deltas]


def scalar_classical(f, r):
    """The classical modulus with one scalar difference norm per step."""
    grid = moduli._DELTA_GRID
    deltas = np.linspace(r.h / grid, r.h, grid)
    vals = scalar_norms(f, r.beta, deltas, r.norm)
    i = int(np.argmax(vals))
    lo, hi = deltas[max(i - 1, 0)], deltas[min(i + 1, grid - 1)]
    return bracket_max(
        lambda ds: np.array(scalar_norms(f, r.beta, ds, r.norm)), lo, hi,
        vals[i])


def scalar_integral(f, r):
    """The integral modulus with one scalar difference norm per node."""
    nodes, weights, _ = gauss_legendre(moduli._QUAD_ORDER)
    deltas = 0.5 * r.h * (nodes + 1.0)
    p1 = r.norm.p1
    acc = 0.0
    for d, w in zip(deltas, weights):
        acc += w * scalar_norms(f, r.beta, [d], r.norm)[0] ** p1
    return float((0.5 * acc) ** (1.0 / p1))


class TestBatchedDiffNorms:
    """The batched step grid gives bit for bit the scalar composition."""

    NORMS = [NormParams(p=p) for p in (0.5, 1.0, 2.0, math.inf)]

    def test_matches_scalar_composition_bitwise(self, corpus_members):
        # the last steps sit on the lattice k delta = 0 mod 2 pi for
        # every frequency, where the symbol is exactly 0
        deltas = np.concatenate([np.linspace(0.02, 1.0, 24),
                                 [2.0 * math.pi, 4.0 * math.pi]])
        for fid, f in corpus_members:
            for beta in (0.5, 2.5):
                for norm in self.NORMS:
                    got = _diff_norms(f, beta, deltas, norm).tolist()
                    assert got == scalar_norms(f, beta, deltas, norm), \
                        (fid, beta, norm)

    def test_lattice_step_annihilates_single_mode(self):
        # e_1 with h = 2 pi: the last grid step is 2 pi, where the
        # difference vanishes identically
        for norm in self.NORMS:
            vals = _diff_norms(E1, 1.5, [math.pi, 2.0 * math.pi], norm)
            assert vals[1] == 0.0 and vals[0] > 1.0
            r = ModulusRequest(beta=1.5, h=2.0 * math.pi, norm=norm)
            assert classical_modulus(E1, r) == scalar_classical(E1, r)

    def test_several_row_blocks(self):
        f = corpus("random_smooth", 1024, seed=4)
        deltas = np.linspace(0.01, 0.5, 40)
        for norm in (NormParams(p=0.5), NormParams(p=2.0),
                     NormParams(p=math.inf)):
            assert _BLOCK_ELEMS // grid_size(f.degree) < deltas.size
            got = _diff_norms(f, 1.5, deltas, norm).tolist()
            assert got == scalar_norms(f, 1.5, deltas, norm), norm

    def test_moduli_match_scalar_step_loops(self, monkeypatch,
                                            corpus_members):
        # coarse step resolutions keep the scalar loops short
        monkeypatch.setattr(moduli, "_DELTA_GRID", 32)
        monkeypatch.setattr(moduli, "_QUAD_ORDER", 16)
        for fid, f in corpus_members[1:4]:
            for norm in (NormParams(p=0.5), NormParams(p=2.0),
                         NormParams(p=math.inf)):
                r = ModulusRequest(beta=2.5, h=0.7, norm=norm)
                assert classical_modulus(f, r) == scalar_classical(f, r), fid
                assert integral_modulus(f, r) == scalar_integral(f, r), fid


class TestIntegral:
    def test_first_order_single_mode_closed_form(self):
        # (1/h) integral of 2 sin(delta/2) = (4/h)(1 - cos(h/2))
        got = integral_modulus(E1, req(1.0, 0.5, 2))
        assert got == pytest.approx(8.0 * (1.0 - math.cos(0.25)), rel=1e-12)

    def test_small_p_uses_p_th_power(self, monkeypatch):
        # p < 1 averages ||.||^p: quadrature oracle on the closed-form
        # integrand (2 sin(delta/2))^(1/2), whose square-root endpoint
        # keeps fixed-order Gauss-Legendre at ~n^-3 accuracy
        want = (float(mpmath.quad(lambda d: (2 * mpmath.sin(d / 2)) ** 0.5,
                                  [0, 0.8])) / 0.8) ** 2.0
        got = integral_modulus(E1, req(1.0, 0.8, 0.5))
        assert got == pytest.approx(want, rel=2e-5)
        monkeypatch.setattr(moduli, "_QUAD_ORDER", 512)
        fine = integral_modulus(E1, req(1.0, 0.8, 0.5))
        assert fine == pytest.approx(want, rel=1e-7)

    def test_quad_order_converged(self, monkeypatch):
        a = integral_modulus(E1, req(2.5, 1.0, 2))
        monkeypatch.setattr(moduli, "_QUAD_ORDER", 128)
        b = integral_modulus(E1, req(2.5, 1.0, 2))
        assert a == pytest.approx(b, rel=1e-9)

    def test_alpha_not_accepted(self):
        with pytest.raises(InvalidArgumentError):
            integral_modulus(E1, req(2.5, 0.5, 2, alpha=0.5))


class TestLinearized:
    def test_single_mode_is_kernel_magnitude(self):
        # averaging the difference of e_n multiplies it by the averaging
        # symbol at n h
        for n, beta, h in ((1, 1.0, 0.5), (3, 2.5, 0.4)):
            f = corpus("exponential", n)
            got = linearized_modulus(f, req(beta, h, 2))
            want = abs(psi_eval(beta, n * h)) * lp_norm(f, NormParams(p=2))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("p", [1, 2, math.inf])
    def test_small_step_matches_mpmath(self, p):
        # |e_1| = 1, so the modulus is |psi_2.5(0.05)| at every p:
        # 1.59682873057901021e-4 by 30-digit quadrature of the integrand
        with mpmath.workdps(30):
            h = mpmath.mpf(0.05)
            want = float(abs(mpmath.quad(
                lambda phi: (1 - mpmath.expj(phi)) ** 2.5, [0, h])) / h)
        got = linearized_modulus(E1, req(2.5, 0.05, p))
        assert abs(got - want) <= 1e-14 * want

    def test_rejects_p_below_one(self):
        with pytest.raises(UnsupportedParameterError):
            linearized_modulus(E1, req(1.0, 0.5, 0.5))

    def test_constant_annihilated(self):
        c = TrigPoly(0, np.array([2.0 + 0j]))
        assert linearized_modulus(c, req(1.5, 0.7, 2)) == 0.0


class TestStar:
    def test_splits_into_two_symbols(self):
        # beta = 4.5 with alpha = 2.5 averages at orders 2.5 and 2
        got = star_modulus(E1, req(4.5, 1.0, 2, alpha=2.5))
        want = abs(psi_eval(2.5, 1.0)) * abs(psi_eval(2.0, 1.0))
        assert got == pytest.approx(want, rel=1e-10)

    def test_alpha_equal_beta_matches_linearized(self, corpus_members):
        for fid, f in corpus_members[:3]:
            a = star_modulus(f, req(2.5, 0.4, 2, alpha=2.5))
            b = linearized_modulus(f, req(2.5, 0.4, 2))
            assert a == b, fid

    def test_alpha_validation(self):
        with pytest.raises(InvalidArgumentError):
            req(4.85, 0.5, 2, alpha=4.0)  # gap 0.85 is not an integer
        with pytest.raises(InvalidArgumentError):
            req(9.0, 0.5, 2, alpha=5.0)  # alpha beyond 4
        with pytest.raises(InvalidArgumentError):
            req(2.0, 0.5, 2, alpha=-1.0)
        with pytest.raises(InvalidArgumentError):
            star_modulus(E1, req(2.5, 0.5, 2))  # alpha missing

    def test_rejects_p_below_one(self):
        with pytest.raises(UnsupportedParameterError):
            star_modulus(E1, req(2.5, 0.5, 0.5, alpha=2.5))


def rows_of(calls):
    """The row count of each recorded ``symbol_values`` call (its steps)
    or ``signal._synthesis`` call (its coefficients)."""
    return [np.shape(args[1] if len(args) == 3 else args[0])[0]
            for args in calls]


def row_bits(rows):
    """Each row's key and the uint64 bits of its float columns."""
    return [(r.fid, r.error, np.array([getattr(r, name) for name in
                                       CSV_HEADER[1:]]).view(np.uint64)
             .tolist()) for r in rows]


class TestSymbolMemo:
    """``_psi_symbol`` holds the longest psi(order, k h), k >= 0, asked
    for per (order, h) and answers a lower degree with a slice of it; the
    moduli mirror it."""

    @pytest.fixture(autouse=True)
    def cold(self, cold_memos):
        return cold_memos

    def test_mirror_matches_psi_many_bitwise(self, beta0_record):
        # k h runs past pi (h = 3.3) and past 2 pi (h = 7, and 1024 h for
        # every h); degree 0 is the lone k = 0; the degrees rise, so each
        # replaces the entry, then fall, so each is a slice
        orders = (0.5, 1.0, 2.0, 2.5, 4.0, 12.7, beta0_record.beta_k)
        for order in orders:
            for h in (0.05, 0.731, 3.3, 7.0):
                for degree in (0, 1, 8, 1024, 8, 0):
                    got = moduli._mirror(
                        moduli._psi_symbol(order, h, degree))
                    k = np.arange(-degree, degree + 1)
                    want = psi_many(order, k * h)
                    assert np.array_equal(got.view(np.uint64),
                                          want.view(np.uint64)), \
                        (order, h, degree)

    def test_half_spectrum_is_read_only(self, counting):
        # a lower degree is a read-only slice of the same array, bit for
        # bit ``psi_many`` on its own grid
        calls = counting(moduli, "psi_many")
        full = moduli._psi_symbol(2.5, 0.2, 16)
        for degree in (16, 8, 1, 0):
            half = moduli._psi_symbol(2.5, 0.2, degree)
            assert half.shape == (degree + 1,)
            assert half.base is full or half is full
            with pytest.raises(ValueError):
                half[0] = 0.0
            want = psi_many(2.5, np.arange(degree + 1) * 0.2)
            assert np.array_equal(half.view(np.uint64),
                                  want.view(np.uint64)), degree
        assert len(calls) == 1

    def test_higher_degree_replaces_the_entry(self, counting):
        calls = counting(moduli, "psi_many")
        moduli._psi_symbol(2.5, 0.2, 3)
        full = moduli._psi_symbol(2.5, 0.2, 16)
        assert moduli._psi_symbol(2.5, 0.2, 3).base is full
        assert [np.size(ts) for _, ts in calls] == [4, 17]
        assert list(moduli._PSI) == [(2.5, 0.2)]

    @pytest.mark.parametrize("degree", [0, 8])
    def test_invalid_order_is_not_held(self, degree):
        with pytest.raises(InvalidArgumentError):
            moduli._psi_symbol(-1.0, 0.2, degree)
        assert not moduli._PSI
        half = moduli._psi_symbol(1.5, 0.2, degree)
        assert half.shape == (degree + 1,)
        assert list(moduli._PSI) == [(1.5, 0.2)]

    def test_scan_reuses_symbols(self, counting, corpus_members):
        # psi at beta for each of the 9 (beta, h), plus the gap order 2 of
        # beta = 2.5 for each h (its alpha 0.5 is the beta = 0.5 symbol);
        # the members of degree 1, 3, 8 and 16 each lengthen all 12, the
        # two later members of degree 8 read slices, and a second scan
        # makes no call
        calls = counting(moduli, "psi_many")
        grid = ([0.5, 1.0, 2.5], [0.05, 0.2, 1.0], [1.0, 2.0, math.inf])
        rows = equivalence_scan(corpus_members, *grid)
        assert all(r.error is None for r in rows)
        assert len(calls) == 48 and len(moduli._PSI) == 12
        calls.clear()
        equivalence_scan(corpus_members, *grid)
        assert calls == []

    def test_holds_at_most_symbols_at_degree_1024(self):
        half = (1024 + 1) * 16
        # the kernel's table, outside the bound
        psi_many(1.5, np.arange(1025) * 0.3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for h in np.linspace(0.01, 0.3, moduli._SYMBOLS + 6):
                moduli._psi_symbol(1.5, float(h), 1024)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(moduli._PSI) == moduli._SYMBOLS
        assert moduli._SYMBOLS * half < held <= \
            moduli._SYMBOLS * (half + 1024) + (1 << 16)


class TestNormMemo:
    """``_mean_and_peak`` holds the p = 1 and p = inf difference norms of
    one ``_diff_norms`` call from one synthesis, so a p = inf row reads
    the p = 1 row of its (function, beta, h)."""

    @pytest.fixture(autouse=True)
    def cold(self, cold_memos):
        return cold_memos

    def test_p_inf_row_after_p1_row_synthesises_nothing(self, counting):
        f = corpus("random_smooth", 8, seed=1)
        r = req(2.5, 0.2, math.inf)
        want = scalar_classical(f, r), scalar_integral(f, r)
        calls = counting(signal, "_synthesis")
        for p in (1.0, 2.0):
            classical_modulus(f, req(2.5, 0.2, p))
            integral_modulus(f, req(2.5, 0.2, p))
        assert rows_of(calls) == [moduli._DELTA_GRID, _BRACKET_KNOTS,
                                  moduli._QUAD_ORDER]
        calls.clear()
        assert (classical_modulus(f, r), integral_modulus(f, r)) == want
        assert calls == []

    def test_p_inf_rows_of_the_corpus_read_grid_and_nodes(
            self, counting, corpus_members):
        # only polish rounds whose bracket differs from the p = 1 row's
        # are synthesised again
        calls = counting(signal, "_synthesis")
        for fid, f in corpus_members:
            for beta in (0.5, 1.0, 2.5):
                for h in (0.05, 0.2, 1.0):
                    classical_modulus(f, req(beta, h, 1.0))
                    integral_modulus(f, req(beta, h, 1.0))
                    calls.clear()
                    classical_modulus(f, req(beta, h, math.inf))
                    integral_modulus(f, req(beta, h, math.inf))
                    assert set(rows_of(calls)) <= {_BRACKET_KNOTS}, \
                        (fid, beta, h)

    def test_invalid_order_is_not_held(self):
        steps = np.linspace(0.01, 0.2, _BRACKET_KNOTS).tobytes()
        with pytest.raises(InvalidArgumentError):
            moduli._mean_and_peak(-1.0, steps, E1.coeffs.tobytes(), 1)
        assert moduli._mean_and_peak.cache_info().currsize == 0
        pair = moduli._mean_and_peak(1.5, steps, E1.coeffs.tobytes(), 1)
        assert pair.shape == (2, _BRACKET_KNOTS)
        with pytest.raises(ValueError):
            pair[0, 0] = 0.0
        assert moduli._mean_and_peak.cache_info().currsize == 1

    def test_holds_at_most_norm_pairs_at_degree_1024(self, monkeypatch):
        # the symbol blocks are computed afresh, so that only this memo
        # holds memory; each entry's key holds the 32 KiB coefficients
        monkeypatch.setattr(moduli, "_symbol_block",
                            moduli._symbol_block.__wrapped__)
        f = corpus("random_smooth", 1024, seed=4)
        entry = f.coeffs.nbytes + 3 * _BRACKET_KNOTS * 8
        norm = NormParams(p=1.0)
        _diff_norms(f, 2.5, np.linspace(0.1, 0.2, _BRACKET_KNOTS), norm)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for lo in np.linspace(0.01, 0.3, moduli._NORM_PAIRS + 4):
                steps = np.linspace(lo, lo + 0.1, _BRACKET_KNOTS)
                _diff_norms(f, 2.5, steps, norm)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert moduli._mean_and_peak.cache_info().currsize == \
            moduli._NORM_PAIRS
        assert (moduli._NORM_PAIRS - 1) * f.coeffs.nbytes < held <= \
            moduli._NORM_PAIRS * (entry + 1024) + (1 << 16)


class TestMemoSharing:
    """The moduli's memos share work between the rows of a scan and never
    change a bit."""

    def test_default_grid_rows_do_not_depend_on_the_memos(
            self, monkeypatch, cold_memos, corpus_members):
        grid = ([0.5, 1.0, 2.5], [0.05, 0.2, 1.0], [1.0, 2.0, math.inf])
        rows = equivalence_scan(corpus_members, *grid)
        assert len(rows) == 162 and all(r.error is None for r in rows)

        scan_row = moduli._scan_row

        def cold_row(*args):
            cold_memos()
            return scan_row(*args)

        monkeypatch.setattr(moduli, "_scan_row", cold_row)
        cold = equivalence_scan(corpus_members, *grid)
        monkeypatch.setattr(moduli, "_scan_row", scan_row)
        warm = equivalence_scan(corpus_members, *grid)
        threaded = equivalence_scan(corpus_members, *grid, threads=3)
        assert row_bits(cold) == row_bits(rows)
        assert row_bits(warm) == row_bits(rows)
        assert row_bits(threaded) == row_bits(rows)


class TestStepSymbolMemo:
    """``_symbol_block`` holds the mirrored difference symbols of one block
    of steps per (beta, the steps' float64 bytes, degree): the classical
    grid, the integral nodes and the polish rounds alike."""

    @pytest.fixture(autouse=True)
    def cold(self, cold_memos):
        return cold_memos

    @staticmethod
    def block(beta, deltas, degree):
        return moduli._symbol_block(
            beta, np.asarray(deltas, dtype=float).tobytes(), degree)


    def test_step_sets_are_the_moduli_steps(self, monkeypatch):
        seen = []
        inner = moduli._diff_norms

        def wrapper(f, beta, deltas, norm):
            seen.append(np.asarray(deltas).tolist())
            return inner(f, beta, deltas, norm)

        monkeypatch.setattr(moduli, "_diff_norms", wrapper)
        x = gauss_legendre(moduli._QUAD_ORDER)[0]
        for h in (0.05, 0.731, 7.0):
            seen.clear()
            classical_modulus(E1, req(1.5, h, 2.0))
            want = np.linspace(h / moduli._DELTA_GRID, h, moduli._DELTA_GRID)
            assert seen[0] == want.tolist(), h
            seen.clear()
            integral_modulus(E1, req(1.5, h, 2.0))
            assert seen == [(0.5 * h * (x + 1.0)).tolist()], h

    def test_blocks_match_fresh_symbols_bitwise(self):
        x = gauss_legendre(moduli._QUAD_ORDER)[0]
        for degree in (0, 1, 8, 16, 1024):
            rows = moduli._block_rows(degree)
            k = np.arange(degree + 1)
            for h in (0.2, 7.0):
                grid = np.linspace(h / moduli._DELTA_GRID, h,
                                   moduli._DELTA_GRID)
                polish = np.linspace(0.3 * h, 0.4 * h, 17)
                for steps in (grid, 0.5 * h * (x + 1.0), polish):
                    if degree == 1024:
                        assert rows < steps.size  # several blocks
                    for beta in (0.5, 2.5):
                        for lo in range(0, steps.size, rows):
                            part = steps[lo:lo + rows]
                            got = self.block(beta, part, degree)
                            want = moduli._mirror(
                                symbol_values(beta, part[:, None], k))
                            assert got.shape == want.shape
                            assert np.array_equal(
                                got.view(np.uint64), want.view(np.uint64)), \
                                (degree, steps.size, beta, h, lo)

    def test_block_is_read_only(self):
        grid = np.linspace(0.2 / moduli._DELTA_GRID, 0.2, moduli._DELTA_GRID)
        block = self.block(2.5, grid, 8)
        with pytest.raises(ValueError):
            block[0, 1] = 0.0
        assert self.block(2.5, grid.copy(), 8) is block

    @pytest.mark.parametrize("degree", [0, 8])
    def test_invalid_order_is_not_held(self, degree):
        nodes = 0.1 * (gauss_legendre(moduli._QUAD_ORDER)[0] + 1.0)
        with pytest.raises(InvalidArgumentError):
            self.block(-1.0, nodes, degree)
        assert moduli._symbol_block.cache_info().currsize == 0
        block = self.block(1.5, nodes, degree)
        assert block.shape == (moduli._QUAD_ORDER, 2 * degree + 1)
        assert moduli._symbol_block.cache_info().currsize == 1

    def test_scan_reuses_step_symbols(self, counting, corpus_members):
        # 27 rows, 9 (beta, h) pairs: each pair computes its grid and its
        # nodes once (18 calls, one block each at degree 8), and its
        # polish rounds once for its three p (9 calls)
        member = [m for m in corpus_members if m[0] == "random:8:1"]
        grid = ([0.5, 1.0, 2.5], [0.05, 0.2, 1.0], [1.0, 2.0, math.inf])
        calls = counting(moduli, "symbol_values")
        rows = equivalence_scan(member, *grid)
        fixed = (moduli._DELTA_GRID, moduli._QUAD_ORDER)
        steps = rows_of(calls)
        assert len(steps) == 27 and sum(n in fixed for n in steps) == 18
        assert moduli._symbol_block.cache_info().maxsize == \
            moduli._STEP_BLOCKS == 4
        assert all(r.error is None for r in rows)

    def test_polish_round_of_a_second_p_is_a_hit(self, counting):
        # the p = 1 row computes and synthesises its grid and its one
        # polish round; the p = 2 and p = inf rows bracket the same cell
        # and compute nothing
        f = corpus("random_smooth", 8, seed=1)
        want = {p: scalar_classical(f, req(2.5, 0.2, p))
                for p in (1.0, 2.0, math.inf)}
        made = counting(moduli, "symbol_values")
        synth = counting(signal, "_synthesis")
        for p, value in want.items():
            assert classical_modulus(f, req(2.5, 0.2, p)) == value, p
            assert rows_of(made) == [moduli._DELTA_GRID, _BRACKET_KNOTS], p
            assert rows_of(synth) == [moduli._DELTA_GRID, _BRACKET_KNOTS], p

    @pytest.mark.parametrize("degree", [64, 100])
    def test_rows_of_several_blocks_hit(self, degree, counting):
        # the grid spans two blocks from degree 64 on; with the nodes and
        # one polish round the p = 1 row computes and synthesises 4
        # blocks, the p = 2 row reads all 4 symbol blocks from their memo
        # and the p = inf row reads the p = 1 row's norms
        f = corpus("random_smooth", degree, seed=1)
        assert moduli._block_rows(degree) < moduli._DELTA_GRID
        made = counting(moduli, "symbol_values")
        synth = counting(signal, "_synthesis")
        per_row = []
        for p in (1.0, 2.0, math.inf):
            classical_modulus(f, req(2.5, 0.2, p))
            integral_modulus(f, req(2.5, 0.2, p))
            per_row.append((len(made), len(synth)))
        assert per_row == [(4, 4)] * 3

    def test_degree_1024_moduli_cold_and_warm(self, monkeypatch, counting,
                                              cold):
        # a grid of two blocks, a polish round of two and nodes of two (one
        # full, one of a single node), so the warm calls read every block
        # (p = 2) or every norm (p = 1, inf) from the memos
        f = corpus("random_smooth", 1024, seed=4)
        rows = moduli._block_rows(f.degree)
        assert rows < _BRACKET_KNOTS
        monkeypatch.setattr(moduli, "_DELTA_GRID", 2 * rows)
        monkeypatch.setattr(moduli, "_QUAD_ORDER", rows + 1)
        made = counting(moduli, "symbol_values")
        synth = counting(signal, "_synthesis")
        for p in (1.0, 2.0, math.inf):
            r = req(2.5, 0.3, p)
            for modulus, scalar in ((classical_modulus, scalar_classical),
                                    (integral_modulus, scalar_integral)):
                want = scalar(f, r)
                cold()
                made.clear()
                synth.clear()
                assert modulus(f, r) == want, (modulus.__name__, p)
                assert made and len(synth) == (0 if p == 2.0 else len(made))
                made.clear()
                synth.clear()
                assert modulus(f, r) == want, (modulus.__name__, p)
                assert made == [] and synth == [], (modulus.__name__, p)

    def test_holds_at_most_step_blocks_at_degree_1024(self):
        f = corpus("random_smooth", 1024, seed=4)
        block = moduli._block_rows(f.degree) * (2 * f.degree + 1) * 16
        r = req(2.5, 0.3, 2.0)
        gauss_legendre(moduli._QUAD_ORDER)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            classical_modulus(f, r)
            integral_modulus(f, r)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert moduli._symbol_block.cache_info().currsize == \
            moduli._STEP_BLOCKS
        assert block < held <= moduli._STEP_BLOCKS * block + (1 << 16)


class TestDefaultAlpha:
    def test_splitting_rule(self):
        assert default_alpha(0.5) == pytest.approx(0.5)
        assert default_alpha(2.5) == pytest.approx(0.5)
        assert default_alpha(3.0) == 3.0
        assert default_alpha(4.0) == 4.0
        assert default_alpha(6.0) == 4.0

    def test_always_admissible(self):
        for beta in (0.3, 1.0, 2.7, 4.0, 4.85, 7.25, 12.0):
            a = default_alpha(beta)
            assert 0.0 < a <= 4.0
            gap = beta - a
            assert abs(gap - round(gap)) < 1e-9 and round(gap) >= 0


class TestChain:
    def test_linearized_below_integral_below_classical(self, corpus_members):
        # averaging can only shrink: tilde <= w <= omega up to the
        # evaluation slack
        slack = 1.0 + 1e-6
        for fid, f in corpus_members:
            for beta in (0.5, 1.0, 2.5, 3.0):
                for h in (0.05, 0.3, 1.0):
                    for p in (1.0, 2.0, math.inf):
                        r = req(beta, h, p)
                        omega = classical_modulus(f, r)
                        w_val = integral_modulus(f, r)
                        tilde = linearized_modulus(f, r)
                        assert tilde <= w_val * slack, (fid, beta, h, p)
                        assert w_val <= omega * slack, (fid, beta, h, p)


class TestEquivalenceRatios:
    BOUNDS = {
        0.5: 1.4986809790546054,
        1.5: 2.496615122222788,
        2.5: 3.4957942781525,
        3.5: 4.496013366568365,
        4.0: 4.996423966015815,
    }

    def test_ratio_to_linearized_frozen(self, corpus_members):
        # the worst classical/linearized quotient at h = 0.3 hugs
        # beta + 1 — frozen per order
        for beta, frozen in self.BOUNDS.items():
            worst = 0.0
            for fid, f in corpus_members:
                r = req(beta, 0.3, 2)
                ratio = _ratio(classical_modulus(f, r),
                               linearized_modulus(f, r))
                worst = max(worst, ratio)
            assert worst == pytest.approx(frozen, rel=1e-8), beta

    def test_degenerate_row_is_flagged_infinite(self, beta0_record):
        # at the located pathological pair the linearized modulus of e_1
        # collapses while the classical one stays of unit size
        r = req(beta0_record.beta_k, beta0_record.t_k, 2)
        omega = classical_modulus(E1, r)
        tilde = linearized_modulus(E1, r)
        assert omega >= 1.0
        assert tilde <= 1e-7
        assert math.isinf(_ratio(omega, tilde))

    def test_ratio_semantics(self):
        assert math.isnan(_ratio(0.0, 0.0))
        assert _ratio(0.0, 1.0) == 0.0
        assert _ratio(3.0, 2.0) == 1.5
        assert math.isinf(_ratio(1.0, 1e-10))


class TestScan:
    def small_scan(self, threads=1):
        members = [("exp:1", E1),
                   ("sawtooth:8", corpus("sawtooth_truncated", 8))]
        return equivalence_scan(members, [1.0, 2.5], [0.3], [2.0, math.inf],
                                threads=threads)

    def test_rows_and_order(self):
        rows = self.small_scan()
        assert len(rows) == 8
        keys = [(r.fid, r.beta, r.h, r.p) for r in rows]
        assert keys == sorted(keys)
        for r in rows:
            assert r.error is None
            assert r.omega_tilde <= r.w * (1.0 + 1e-6) <= \
                r.omega * (1.0 + 1e-6) ** 2

    def test_thread_pool_matches_serial(self):
        assert self.small_scan(threads=3) == self.small_scan(threads=1)

    def test_star_column_is_the_star_modulus(self, corpus_members):
        # default_alpha gives alpha = beta at 0.5 and 1.0, where the scan
        # reuses the linearized value, and alpha = 0.5 at 2.5
        rows = equivalence_scan(corpus_members[:3], [0.5, 1.0, 2.5], [0.2],
                                [1.0, math.inf])
        fs = dict(corpus_members)
        for r in rows:
            star = star_modulus(fs[r.fid], req(r.beta, r.h, r.p,
                                               alpha=r.alpha))
            assert r.omega_star == star, r
            if r.alpha == r.beta:
                assert r.omega_star == r.omega_tilde, r

    def test_invalid_alpha_equal_to_beta_fails_the_row(self):
        # alpha = beta = 5 lies outside (0, 4]: the row fails although
        # the star value itself would be the linearized one
        rows = equivalence_scan([("exp:1", E1)], [5.0], [0.3], [2.0],
                                alpha=5.0)
        assert rows[0].error is not None and "(0, 4]" in rows[0].error
        assert math.isnan(rows[0].omega_star)

    def test_failing_row_is_recorded_not_raised(self):
        rows = equivalence_scan([("exp:1", E1)], [1.0], [0.3], [0.5])
        assert len(rows) == 1
        assert rows[0].error is not None and "p >= 1" in rows[0].error
        assert math.isnan(rows[0].omega_tilde)

    def test_csv_round_trip(self):
        rows = self.small_scan()
        buf = io.StringIO()
        write_report_csv(buf, rows)
        text = buf.getvalue()
        assert text.splitlines()[0] == ",".join(CSV_HEADER)
        back = read_report_csv(io.StringIO(text))
        assert back == rows

    def test_csv_header_checked(self):
        for text in ("a,b,c\n1,2,3\n", ""):
            with pytest.raises(InvalidArgumentError):
                read_report_csv(io.StringIO(text))

    def test_csv_malformed_rows_rejected(self):
        buf = io.StringIO()
        write_report_csv(buf, self.small_scan())
        header, row = buf.getvalue().splitlines()[:2]
        cells = row.split(",")
        # a short row, an extra cell, a cell that is not a number
        for bad in (cells[:3], cells + ["1"], cells[:4] + ["x"] + cells[5:]):
            text = f"{header}\n{row}\n{','.join(bad)}\n"
            with pytest.raises(InvalidArgumentError, match="line 3"):
                read_report_csv(io.StringIO(text))

    def test_json_schema(self):
        rows = self.small_scan()
        buf = io.StringIO()
        write_report_json(buf, rows)
        payload = json.loads(buf.getvalue())
        assert len(payload) == len(rows)
        assert all(set(item) == set(CSV_HEADER) for item in payload)
        assert float(payload[0]["omega"]) == rows[0].omega


class TestRequestValidation:
    def test_bounds(self):
        with pytest.raises(InvalidArgumentError):
            req(0.0, 0.5, 2)
        with pytest.raises(InvalidArgumentError):
            req(1.0, 0.0, 2)
        with pytest.raises(InvalidArgumentError):
            req(1.0, math.inf, 2)
