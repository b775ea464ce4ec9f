"""Tests for the zero set of the kernel curve and the smallest
pathological order."""

import io
import json
import math

import mpmath
import pytest

from fracsmooth import (
    InvalidArgumentError,
    ModulusRequest,
    NormParams,
    ZeroRecord,
    corpus,
    curve_F,
    linearized_modulus,
    read_registry,
    scan_zero_set,
    write_registry,
    xy_prime,
    y_zeros,
    z_many,
    z_series,
)
import fracsmooth.kernel as kernel
import fracsmooth.zeros as zeros
from fracsmooth.zeros import (
    _column,
    _piece_bounds,
    _piece_zeros,
    _stop_floor,
    _zero_in_window,
)
from test_kernel import counting_builds, z_mpmath

TWO_PI = 2.0 * math.pi


#: Zeros in the wide scan window, all of them and those with order <= 16.
#: Established independently of the scan's own output: the 120-column
#: and the 240-column scans return the same 215 records with the same
#: shift indices (orders within 1e-10 below 16), and at each of the 63
#: records with order <= 16 both the series route and an mpmath
#: quadrature give |z| < 4e-9.  The
#: set contains all 200 records of the earlier scan that read signs of y
#: out of rounding noise, plus 15 that it lost.
WIDE_SCAN_ZEROS = 215
WIDE_SCAN_ZEROS_TO_16 = 63


@pytest.fixture(scope="module")
def wide_scan():
    """Every zero with order up to 40 and argument up to 40 pi."""
    return scan_zero_set(40.0, 40.0 * math.pi, 120, 512, beta_min=4.0)


def mpmath_crossing(beta, t, k):
    """The root (beta_k, t_k) of z(beta, s) + 2pi k = 0 near (beta, t),
    s = t - 2pi k in the base period, by ``mpmath.findroot`` on 30-digit
    quadrature of the polar integrand; shares no code with the library."""
    with mpmath.workdps(30):
        cache = {}

        def f(b, s):
            if (b, s) not in cache:
                cache[b, s] = mpmath.quad(
                    lambda phi: (2 * mpmath.sin(phi / 2)) ** b
                    * mpmath.expj(b * (phi - mpmath.pi) / 2),
                    [0, s]) + 2 * mpmath.pi * k
            return cache[b, s]

        b, s = mpmath.findroot(
            [lambda b, s: f(b, s).real, lambda b, s: f(b, s).imag],
            (mpmath.mpf(beta), mpmath.mpf(t) - 2 * mpmath.pi * k))
        return float(b), float(s + 2 * mpmath.pi * k)


@pytest.fixture(scope="module")
def first_crossings():
    """The roots (beta_k, t_k) of the shift indices k = 1, 2, 3, from
    starts good to two decimals."""
    return [mpmath_crossing(4.84, 8.48, 1), mpmath_crossing(5.74, 14.96, 2),
            mpmath_crossing(6.32, 21.33, 3)]


def record_noise(rec):
    """Cancellation floor of one z evaluation at the record's point."""
    _, noise = z_many(rec.beta_k, [rec.t_k], with_noise=True)
    return float(noise[0])


class TestSmallestOrder:
    def test_frozen_location(self, beta0_record, first_crossings):
        r = beta0_record
        beta, t = first_crossings[0]
        assert r.beta_k == pytest.approx(beta, abs=1e-13)
        assert r.t_k == pytest.approx(t, abs=1e-13)
        assert r.residual <= 1e-8
        assert r.branch_index == 1

    def test_is_a_zero_of_the_series_route(self, beta0_record):
        # the series route shares no code with the quadrature behind z_eval
        r = beta0_record
        assert abs(z_series(r.beta_k, r.t_k, tol=1e-11)) <= 1e-8

    def test_window_assertions(self, beta0_record):
        r = beta0_record
        assert 4.0 < r.beta_k < 5.0
        assert abs(r.beta_k - 4.85) <= 0.05
        assert r.t_k > TWO_PI
        assert math.pi * (3.0 - 2.0 / r.beta_k) < r.t_k < 3.0 * math.pi

    def test_bracket_encloses_location(self, beta0_record):
        r = beta0_record
        b_lo, b_hi, t_lo, t_hi = r.bracket
        assert b_lo <= r.beta_k <= b_hi
        assert t_lo <= r.t_k <= t_hi
        assert b_hi - b_lo <= 2e-10

    def test_x_sign_change_on_the_shifted_branch(self):
        assert curve_F(4.0) > 0.0 > curve_F(5.0)

    def test_x_along_branch_is_continuous(self):
        assert abs(curve_F(4.5 + 1e-4) - curve_F(4.5)) < 0.01

    def test_branch_function_domain(self):
        with pytest.raises(InvalidArgumentError):
            curve_F(3.0)


class TestYZeros:
    def test_order_one_has_no_crossings(self):
        # y(1, t) = cos t - 1 only touches zero at the lattice
        assert y_zeros(1.0, 0.05, TWO_PI - 0.05, 512) == []
        assert y_zeros(1.0, 0.05, 2.0 * TWO_PI, 700) == []

    def test_order_five_base_period(self):
        want = [0.7341775358277134, 2.236206733067182,
                4.046978574112405, 5.549007771351873]
        got = y_zeros(5.0, 0.05, TWO_PI - 0.05, 512)
        assert len(got) == 4
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-7)

    def test_zeros_shift_with_the_period(self):
        # one base-period column serves every period of the window, so
        # the shift is exact
        base = y_zeros(5.0, 0.05, TWO_PI - 0.05, 512)
        shifted = y_zeros(5.0, 0.05 + TWO_PI, 2.0 * TWO_PI - 0.05, 512)
        assert len(base) == 4
        assert shifted == [t + TWO_PI for t in base]

    def test_single_zero_on_shifted_branch_window(self):
        got = y_zeros(5.0, math.pi * (3.0 - 2.0 / 5.0), 3.0 * math.pi, 128)
        assert len(got) == 1
        assert got[0] == pytest.approx(8.51939204024677, abs=1e-7)

    def test_narrow_window_costs_one_column(self, monkeypatch):
        # a window shorter than the period gets the knot spacing of grid
        # points on one period: at most 511 + 2 knots on each of the six
        # pieces of order five, however narrow the window
        points = []
        inner = zeros.z_many

        def counted(beta, ts, **kwargs):
            points.append(len(ts))
            return inner(beta, ts, **kwargs)

        monkeypatch.setattr(zeros, "z_many", counted)
        got = y_zeros(5.0, 2.236, 2.2364, 512)
        assert got == pytest.approx([2.236206733067182], abs=1e-7)
        assert sum(points) <= 511 + 2 * 6

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            y_zeros(5.0, 0.0, 1.0, 64)
        with pytest.raises(InvalidArgumentError):
            y_zeros(5.0, 0.5, 1.0, 1)

    @pytest.mark.parametrize("t_lo, t_hi", [(0.1, math.inf), (0.1, math.nan),
                                            (math.nan, 1.0)])
    def test_non_finite_window(self, t_lo, t_hi):
        with pytest.raises(InvalidArgumentError):
            y_zeros(5.0, t_lo, t_hi, 10)

    @pytest.mark.parametrize("grid", [math.inf, math.nan, 10.5])
    def test_bad_grid(self, grid):
        with pytest.raises(InvalidArgumentError):
            y_zeros(5.0, 0.1, 1.0, grid)


class TestScan:
    def test_census(self, wide_scan):
        assert len(wide_scan) == WIDE_SCAN_ZEROS
        betas = [r.beta_k for r in wide_scan]
        assert all(b > 4.0 for b in betas)
        assert all(b2 > b1 for b1, b2 in zip(betas, betas[1:]))
        assert all(r.t_k > TWO_PI for r in wide_scan)
        # the series route shares no code with the quadrature behind z_eval
        for r in wide_scan:
            if r.beta_k <= 16.0:
                assert abs(z_series(r.beta_k, r.t_k, tol=1e-11)) <= 1e-8, \
                    r.beta_k

    def test_first_orders_frozen(self, wide_scan, first_crossings):
        for k, (r, (beta, t)) in enumerate(
                zip(wide_scan[:3], first_crossings), 1):
            assert r.branch_index == k
            assert r.beta_k == pytest.approx(beta, abs=1e-13)
            assert r.t_k == pytest.approx(t, abs=1e-13)

    def test_scan_agrees_with_direct_search(self, wide_scan, beta0_record):
        assert wide_scan[0].beta_k == pytest.approx(
            beta0_record.beta_k, abs=1e-9)
        assert wide_scan[0].t_k == pytest.approx(beta0_record.t_k, abs=1e-8)

    def test_residuals_scale_aware(self, wide_scan):
        # amplitudes grow like 2^beta, but z past pi is the mirror image
        # of z before it, whose quadrature leaves the peak 2^beta at pi
        # out, so one absolute bound holds up to order 40
        small = [r for r in wide_scan if r.beta_k <= 16.0]
        assert len(small) == WIDE_SCAN_ZEROS_TO_16
        for r in wide_scan:
            assert r.residual <= 1e-10, r.beta_k

    def test_residual_stable_under_tighter_quadrature(self, wide_scan):
        # the residual is |z| at the record by the library's quadrature;
        # the series route (orders <= 16) and 30-digit mpmath (every 8th
        # record above) share no code with it
        for r in wide_scan:
            if r.beta_k <= 16.0:
                want = abs(z_series(r.beta_k, r.t_k, tol=1e-13))
                assert abs(want - r.residual) < 1e-10, r.beta_k
        for r in [r for r in wide_scan if r.beta_k > 16.0][::8]:
            want = abs(z_mpmath(r.beta_k, r.t_k))
            assert abs(want - r.residual) <= 4.0 * record_noise(r), r.beta_k

    def test_linearized_modulus_closes_at_each_record(self, wide_scan):
        # at a zero the linearized modulus of e^(it) degenerates:
        # its value is |z(beta_k, t_k)| / t_k
        e1 = corpus("exponential", 1)
        for r in wide_scan:
            req = ModulusRequest(beta=r.beta_k, h=r.t_k, norm=NormParams(p=2))
            got = linearized_modulus(e1, req)
            if r.beta_k <= 16.0:
                assert got < 1e-7, r.beta_k
            else:
                limit = max(1e-8, 64.0 * record_noise(r)) / r.t_k
                assert got <= limit, r.beta_k

    def test_grid_doubling_is_stable(self):
        coarse = scan_zero_set(8.0, 6.0 * math.pi, 40, 512, beta_min=4.0)
        fine = scan_zero_set(8.0, 6.0 * math.pi, 80, 1024, beta_min=4.0)
        assert len(coarse) == len(fine)
        assert len(coarse) > 0
        for a, b in zip(coarse, fine):
            assert a.beta_k == pytest.approx(b.beta_k, abs=1e-6)
            assert a.t_k == pytest.approx(b.t_k, abs=1e-6)

    def test_grid_doubling_keeps_high_shifts(self):
        # orders 8-8.5 carry shift indices 9-12, where zeros were lost
        coarse = scan_zero_set(8.5, 26.0 * math.pi, 6, 512, beta_min=7.9)
        fine = scan_zero_set(8.5, 26.0 * math.pi, 12, 512, beta_min=7.9)
        assert [r.branch_index for r in coarse] == [9, 10, 11, 12]
        assert [r.branch_index for r in fine] == [9, 10, 11, 12]
        for a, b in zip(coarse, fine):
            assert a.beta_k == pytest.approx(b.beta_k, abs=1e-6)
            assert a.t_k == pytest.approx(b.t_k, abs=1e-6)
            assert abs(z_series(a.beta_k, a.t_k, tol=1e-11)) <= 1e-8

    def test_four_columns_find_every_zero_of_sixty_four(self):
        # the piece index pairs a branch across a column step of 3 in the
        # order, so four columns find the 39 zeros of sixty-four
        fine = scan_zero_set(16.0, 24.0 * math.pi, 64, 384, beta_min=4.0)
        coarse = scan_zero_set(16.0, 24.0 * math.pi, 4, 384, beta_min=4.0)
        assert len(fine) == 39
        assert [r.branch_index for r in coarse] == [
            r.branch_index for r in fine]
        for a, b in zip(coarse, fine):
            assert a.beta_k == pytest.approx(b.beta_k, abs=1e-9)
            assert a.t_k == pytest.approx(b.t_k, abs=1e-8)

    def test_coarse_census_matches_the_fine_one(self, wide_scan):
        # the 12-column census splits 73 crossing cells before Newton
        # converges; its records are those of the 120-column census
        coarse = scan_zero_set(40.0, 40.0 * math.pi, 12, 128, beta_min=4.0)
        assert len(coarse) == WIDE_SCAN_ZEROS
        for a, b in zip(coarse, wide_scan):
            assert a.branch_index == b.branch_index
            assert a.beta_k == pytest.approx(b.beta_k, abs=1e-14)
            assert a.t_k == pytest.approx(b.t_k, abs=1e-13)

    def test_two_columns_find_zeros_of_eight(self):
        # two columns miss 5 of the 63 zeros (completeness), but every
        # zero they find is one of the eight-column scan's
        fine = scan_zero_set(16.0, 40.0 * math.pi, 8, 512, beta_min=4.0)
        coarse = scan_zero_set(16.0, 40.0 * math.pi, 2, 64, beta_min=4.0)
        assert (len(fine), len(coarse)) == (63, 58)
        for a in coarse:
            b = min(fine, key=lambda r: abs(r.beta_k - a.beta_k)
                    + abs(r.t_k - a.t_k))
            assert a.branch_index == b.branch_index
            assert a.beta_k == pytest.approx(b.beta_k, abs=1e-14)
            assert a.t_k == pytest.approx(b.t_k, abs=1e-13)

    def test_huge_t_max_costs_only_the_shifts_x_reaches(self):
        # x is bounded on a piece, so the shift indices searched stop where
        # x + 2pi k has no sign change left, whatever t_max
        assert (scan_zero_set(8.0, 100.0, 2, 64, beta_min=4.0)
                == scan_zero_set(8.0, 1e300, 2, 64, beta_min=4.0))

    def test_no_zeros_at_low_order(self):
        assert scan_zero_set(4.0, 40.0 * math.pi, 40, 256) == []

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            scan_zero_set(4.0, 10.0, beta_min=4.0)
        with pytest.raises(InvalidArgumentError):
            scan_zero_set(8.0, 0.0)
        with pytest.raises(InvalidArgumentError):
            scan_zero_set(8.0, 10.0, beta_grid=1)

    @pytest.mark.parametrize("beta_grid", [2.9, 120.5, math.inf, math.nan])
    def test_fractional_beta_grid(self, beta_grid):
        """A fractional beta_grid would stop the columns short of beta_max
        (2.9 ends them at beta = 9.52 of 12), so it is rejected."""
        with pytest.raises(InvalidArgumentError):
            scan_zero_set(12.0, 24.0 * math.pi, beta_grid, 384, beta_min=4.0)

    @pytest.mark.parametrize("t_grid", [math.inf, math.nan, 511.5])
    def test_bad_t_grid(self, t_grid):
        # t_grid must be a whole number >= 2
        with pytest.raises(InvalidArgumentError):
            scan_zero_set(8.0, 10.0, 4, t_grid, beta_min=4.0)

    @pytest.mark.parametrize("beta_max, t_max, beta_min", [
        (8.0, math.nan, 0.0), (8.0, math.inf, 0.0), (math.inf, 10.0, 0.0),
        (math.nan, 10.0, 0.0), (8.0, 10.0, math.nan), (8.0, 10.0, -math.inf)])
    def test_non_finite_bounds(self, beta_max, t_max, beta_min):
        with pytest.raises(InvalidArgumentError):
            scan_zero_set(beta_max, t_max, 4, 64, beta_min=beta_min)


class TestPastForty:
    """Orders from 40 to 60, where a batch of z values converges only by
    the rounding floor of its panels, 8 eps times their absolute mass."""

    def test_column_at_fifty_nine(self):
        col = _column(59.0, 512)
        assert len(col) > 0
        for m, (t, _, _, _) in col.items():
            lo, hi = _piece_bounds(59.0, m)
            assert lo <= t <= hi, m
        # the y-zeros are zeros of 30-digit mpmath to the stop of the
        # Newton refinement in t, 8 times the noise or 1e-12
        for m, (t, _, _, _) in list(col.items())[::9]:
            _, noise = z_many(59.0, [t], with_noise=True)
            assert abs(z_mpmath(59.0, t).imag) <= max(1e-12, 8.0 * noise[0])

    def test_census_to_sixty_does_not_depend_on_the_grid(self):
        coarse = scan_zero_set(60.0, 40.0 * math.pi, 20, 512, beta_min=40.0)
        fine = scan_zero_set(60.0, 40.0 * math.pi, 30, 512, beta_min=40.0)
        assert len(coarse) == len(fine) > 0
        assert coarse[-1].beta_k > 59.0
        for a, b in zip(coarse, fine):
            assert a.branch_index == b.branch_index
            assert a.beta_k == pytest.approx(b.beta_k, abs=1e-13)
            assert a.t_k == pytest.approx(b.t_k, abs=1e-12)
        for r in coarse[::16]:
            assert abs(z_mpmath(r.beta_k, r.t_k)) <= 1e-10, r.beta_k


def window_scan():
    """The zeros-scan benchmark window: orders (7, 8.875] in ten columns."""
    return scan_zero_set(8.875, 24.0 * math.pi, 10, 384, beta_min=7.0)


def counting(monkeypatch, name):
    """Replace ``zeros.<name>`` by a wrapper that counts its calls."""
    calls = []
    inner = getattr(zeros, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(zeros, name, wrapper)
    return calls


class TestFirstColumn:
    """The first beta column sits at beta_min (at step when beta_min = 0)."""

    def test_crossing_in_the_first_cell_is_found(self, beta0_record):
        # beta0 = 4.8432 lies between the first two columns, 4.8 and 4.85
        got = scan_zero_set(5.0, 6.0 * math.pi, 4, 512, beta_min=4.8)
        assert len(got) == 1
        assert got[0].branch_index == 1
        assert got[0].beta_k == pytest.approx(beta0_record.beta_k, abs=1e-9)
        assert got[0].t_k == pytest.approx(beta0_record.t_k, abs=1e-8)

    def test_columns_start_at_beta_min(self, monkeypatch):
        calls = counting(monkeypatch, "_column")
        scan_zero_set(5.0, 6.0 * math.pi, 4, 64, beta_min=4.8)
        assert [c[0] for c in calls] == pytest.approx(
            [4.8, 4.85, 4.9, 4.95, 5.0], abs=1e-12)

    def test_columns_start_at_step_when_beta_min_is_zero(self, monkeypatch):
        # z is undefined at order 0, so no column is placed there
        calls = counting(monkeypatch, "_column")
        assert scan_zero_set(4.0, 12.0, 4, 64) == []
        assert [c[0] for c in calls] == pytest.approx([1.0, 2.0, 3.0, 4.0],
                                                      abs=1e-12)

    def test_window_gains_the_record_of_its_first_cell(self):
        got = window_scan()
        assert [r.branch_index for r in got] == [5, 6, 7, 8, 9, 10, 11, 1]
        assert got[0].beta_k == pytest.approx(7.0934, abs=1e-4)
        for r in got:
            assert abs(z_series(r.beta_k, r.t_k, tol=1e-11)) <= 1e-8


class TestRootFinders:
    """Safeguarded Newton in t, and in (beta, t) for a crossing."""

    @pytest.mark.parametrize("beta", [4.6, 5.3, 8.2, 12.7])
    def test_column_zeros_are_zeros_of_the_series_route(self, beta):
        # the series route shares no code with the quadrature behind _column
        col = _column(beta, 384)
        assert col
        for t, x, t_lo, t_hi in col.values():
            assert t_lo <= t <= t_hi
            z = z_series(beta, t, tol=1e-11)
            assert abs(z.imag) <= 1e-9, t
            assert x == pytest.approx(z.real, abs=1e-9)

    @pytest.mark.parametrize("beta", [4.6, 5.3, 8.2, 12.7])
    def test_pieces_ending_at_an_extremum_converge(self, beta):
        # knots at the two ends of each interior piece only: the bracket
        # runs from one extremum of y to the next, where y' = 0 and a
        # Newton step is undefined
        half = math.ceil(beta / 2.0)
        ends = {m: _piece_bounds(beta, m) for m in range(1 - half, half - 1)}
        for a, b in ends.values():
            for e in (a, b):
                dx, dy = xy_prime(beta, e)
                assert abs(dy) <= 1e-9 * abs(dx)
        found = _piece_zeros(beta, ends)
        assert len(found) >= 2
        for m, (t, t_lo, t_hi, z, noise) in found.items():
            a, b = ends[m]
            assert a <= t_lo <= t <= t_hi <= b
            assert abs(z.imag) <= _stop_floor(noise)
            assert abs(z_series(beta, t, tol=1e-11).imag) <= 1e-9

    def test_crossing_brackets_hold_a_sign_change(self, beta0_record):
        tol_beta = 1e-10
        recs = window_scan() + [beta0_record]
        for r in recs:
            b_lo, b_hi = r.bracket[:2]
            assert 0.0 < b_hi - b_lo <= tol_beta
            # the record's piece: y' vanishes at pi(1 + 2m/beta)
            t0 = r.t_k - TWO_PI * r.branch_index
            m = math.floor(r.beta_k * (t0 - math.pi) / TWO_PI)
            g = [_zero_in_window(b, m)[3].real + TWO_PI * r.branch_index
                 for b in (b_lo, b_hi)]
            assert g[0] * g[1] < 0.0, (r.beta_k, g)


class TestStepBudget:
    """Root-finder step counts, far below those of plain bisection."""

    def test_column_evaluations(self, monkeypatch):
        # plain bisection needs about 30 z_span calls per zero; y(2pi - t)
        # = y(t), so the column holds 4 zeros below pi and their mirrors
        calls = counting(monkeypatch, "z_span")
        assert len(_column(8.2, 384)) == 8
        assert len(calls) <= 40

    def test_beta_steps_per_crossing(self, monkeypatch):
        # bisection took about 33 window searches per crossing
        steps, crossings = [], []
        inner_window = zeros._zero_in_window
        inner_crossing = zeros._bisect_crossing

        def window(*args):
            steps[-1] += 1
            return inner_window(*args)

        def crossing(*args):
            steps.append(0)
            rec = inner_crossing(*args)
            crossings.append(rec)
            return rec

        monkeypatch.setattr(zeros, "_zero_in_window", window)
        monkeypatch.setattr(zeros, "_bisect_crossing", crossing)
        window_scan()
        assert len(steps) == 8
        assert all(rec is not None for rec in crossings)
        assert max(steps) <= 12, steps

    def test_newton_evaluations_per_crossing(self, monkeypatch):
        # one z point per Newton step in (beta, t) and one at each end of
        # the record's bracket (the record's residual comes on top); no
        # crossing of the window splits its cell, so no window search runs
        # inside the crossing search
        evals = counting(monkeypatch, "z_many")
        windows = counting(monkeypatch, "_zero_in_window")
        per_crossing = []
        inner = zeros._bisect_crossing

        def crossing(*args):
            before, windows_before = len(evals), len(windows)
            rec = inner(*args)
            points = sum(len(ts) for _, ts in evals[before:])
            per_crossing.append((points, len(windows) - windows_before, rec))
            return rec

        monkeypatch.setattr(zeros, "_bisect_crossing", crossing)
        window_scan()
        assert len(per_crossing) == 8
        assert all(rec is not None for _, _, rec in per_crossing)
        assert max(n for n, _, _ in per_crossing) <= 6, per_crossing
        assert sum(w for _, w, _ in per_crossing) == 0

    def test_table_builds_per_job(self, monkeypatch):
        # d z / d beta builds no table, so a job of the zeros-scan
        # benchmark (window scan, then find_beta0) builds one per order
        # that z reads, from an empty cache
        builds = counting_builds(monkeypatch)
        kernel._TABLES.clear()
        window_scan()
        zeros.find_beta0()
        assert len(builds) == 67

    @staticmethod
    def beta0_cell():
        """Arguments of the beta0 crossing: the cell (4, 5), g and the
        zeros of y at its ends."""
        (t4, _, _, z4, _), (t5, _, _, z5, _) = (
            _zero_in_window(b, -1) for b in (4.0, 5.0))
        return 4.0, 5.0, z4.real + TWO_PI, z5.real + TWO_PI, t4, t5

    def assert_split_closes(self, monkeypatch, first_crossings, max_windows):
        """The crossing search closes the beta0 cell to the mpmath root
        within ``max_windows`` window searches, to a bracket of width
        <= _TOL_BETA that holds a strict sign change of g, and with t_k the
        zero of y at beta_k."""
        cell = self.beta0_cell()
        windows = counting(monkeypatch, "_zero_in_window")
        got = zeros._bisect_crossing(*cell, -1, 1)
        assert 0 < len(windows) <= max_windows
        assert got.beta_k == pytest.approx(first_crossings[0][0], abs=1e-10)
        assert got.t_k == pytest.approx(first_crossings[0][1], abs=1e-10)
        b_lo, b_hi, t_lo, t_hi = got.bracket
        assert 0.0 < b_hi - b_lo <= zeros._TOL_BETA
        assert b_lo <= got.beta_k <= b_hi
        assert t_lo <= got.t_k <= t_hi
        found = [_zero_in_window(b, -1) for b in (b_lo, got.beta_k, b_hi)]
        g = [f[3].real + TWO_PI for f in found]
        assert g[0] * g[2] < 0.0, g
        # a t read at an end of the bracket, such as a stale t_a, is off
        # by twice this bound
        t_end, t_mid, t_end2 = (f[0] + TWO_PI for f in found)
        assert abs(got.t_k - t_mid) <= 0.25 * abs(t_end2 - t_end), (
            got.t_k, t_end, t_mid, t_end2)

    def test_newton_out_of_its_cell_splits_the_cell(
            self, monkeypatch, first_crossings):
        # d z / d beta shrunk 1000-fold makes the Newton steps in beta
        # 1000 times too long, out of the cell until a split cell is so
        # narrow that the first step already starts at the noise floor
        inner = zeros._z_dbeta
        monkeypatch.setattr(zeros, "_z_dbeta",
                            lambda beta, t: 1e-3 * inner(beta, t))
        self.assert_split_closes(monkeypatch, first_crossings, 25)

    def test_bracket_without_a_sign_change_splits_the_cell(
            self, monkeypatch, first_crossings):
        # g read 1e-8 too high near the Newton point moves its zero about
        # 1e-8 away, so the two ends of the record's bracket, 0.49 _TOL_BETA
        # from the Newton point, read the same sign; the split runs until
        # the cell itself is the bracket, whose g is read without _g_near
        inner = zeros._g_near

        def biased(beta, t, k):
            g, t_zero = inner(beta, t, k)
            return g + 1e-8, t_zero

        monkeypatch.setattr(zeros, "_g_near", biased)
        self.assert_split_closes(monkeypatch, first_crossings, 40)

    def test_split_alone_closes_the_beta0_cell(
            self, monkeypatch, first_crossings):
        # halving (4, 5) to 1e-10 takes 34 splits and one window search
        # at the last cell's midpoint
        monkeypatch.setattr(zeros, "_newton_crossing", lambda *args: None)
        self.assert_split_closes(monkeypatch, first_crossings, 40)


class TestPieces:
    """A branch is a monotone piece of y, named by its index."""

    @pytest.mark.parametrize("beta", [4.6, 6.4, 8.2, 12.7, 27.3, 39.5])
    def test_column_zeros_lie_inside_their_piece(self, beta):
        # the key of each zero names the piece that holds it
        col = _column(beta, 512)
        assert col
        for m, (t, _, _, _) in col.items():
            assert (math.pi * (1.0 + 2.0 * m / beta) < t
                    < math.pi * (1.0 + 2.0 * (m + 1) / beta)), (t, m)

    def test_base_branch_is_the_piece_below_pi(self):
        for beta in (4.0, 4.5, 5.0):
            t = _zero_in_window(beta, -1)[0]
            assert math.pi * (1.0 - 2.0 / beta) < t < math.pi


class TestExtremaPoints:
    """The ends of the monotone pieces are the zeros of the closed-form y'."""

    @pytest.mark.parametrize("beta", [4.1 + 35.9 * i / 49 for i in range(50)])
    def test_y_prime_vanishes_off_the_lattice(self, beta):
        half = math.ceil(beta / 2.0)
        ends = [_piece_bounds(beta, m) for m in range(-half, half)]
        assert ends[0][0] == 0.0
        assert ends[-1][1] == TWO_PI
        for (_, hi), (lo, _) in zip(ends, ends[1:]):
            assert hi == lo
            assert 0.0 < lo < TWO_PI
            dx, dy = xy_prime(beta, lo)
            assert abs(dy) <= 1e-9 * math.hypot(dx, dy), lo

    def test_lattice_is_included(self):
        # the outer pieces are clipped to the lattice t = 0, 2pi
        assert _piece_bounds(4.2, -3)[0] == 0.0
        assert _piece_bounds(4.2, 2)[1] == TWO_PI
        assert _piece_bounds(4.2, -1) == (math.pi * (1.0 - 2.0 / 4.2),
                                          math.pi)


class TestSignRule:
    """y has a sign only above the cancellation noise of its evaluation."""

    def test_column_has_no_zero_in_the_noise_near_two_pi(self):
        # y(2pi - t) = y(t), so the zeros on the base period are symmetric
        # about pi.  Near 2pi, y of order 6.4 falls below the noise of the
        # quadrature (|y| = 3.8e-14 at t = 6.26479 against a noise of
        # 2.9e-13), and a sign read there made a zero without a mirror.
        col = [t for t, _, _, _ in _column(6.4, 512).values()]
        assert len(col) == 6
        for t in col:
            assert min(abs(TWO_PI - t - s) for s in col) < 1e-6, t

    @pytest.mark.parametrize("beta, t_grid", [(6.1, 512), (6.4, 512),
                                              (8.2, 384)])
    def test_column_is_symmetric_about_pi(self, beta, t_grid):
        # y(2pi - t) = y(t): each zero past pi is the mirror of one below it
        col = [t for t, _, _, _ in _column(beta, t_grid).values()]
        low = [t for t in col if t < math.pi]
        high = [t for t in col if t > math.pi]
        assert len(low) == len(high) > 0
        for s, t in zip(reversed(low), high):
            assert abs(TWO_PI - s - t) <= 1e-12, (s, t)

    @pytest.mark.parametrize("beta_a, beta_b",
                             [(6.1, 6.4), (6.4, 6.7), (12.4, 12.7)])
    def test_adjacent_columns_match_every_branch(self, beta_a, beta_b):
        # a column is keyed by piece, and the column with fewer zeros
        # shares every piece with the other one
        keys = [set(_column(b, 512)) for b in (beta_a, beta_b)]
        assert len(keys[0] & keys[1]) == min(len(k) for k in keys)


class TestRegistry:
    RECORDS = [
        ZeroRecord(beta_k=4.85, t_k=8.48, residual=1e-10,
                   bracket=(4.84, 4.86, 8.47, 8.49), branch_index=1),
        ZeroRecord(beta_k=5.74, t_k=9.1, residual=2e-10,
                   bracket=(5.73, 5.75, 9.0, 9.2), branch_index=1),
    ]

    def test_round_trip(self):
        buf = io.StringIO()
        write_registry(buf, self.RECORDS)
        back = read_registry(io.StringIO(buf.getvalue()))
        assert back == self.RECORDS

    def test_malformed_registry_rejected(self):
        buf = io.StringIO()
        write_registry(buf, self.RECORDS)
        good = json.loads(buf.getvalue())[0]
        with pytest.raises(InvalidArgumentError, match="JSON array"):
            read_registry(io.StringIO("{}"))
        # a missing field, a bad value type, a short bracket
        for bad in ({k: v for k, v in good.items() if k != "t"},
                    {**good, "beta": [4.85]},
                    {**good, "bracket": good["bracket"][:3]}):
            text = json.dumps([good, bad])
            with pytest.raises(InvalidArgumentError, match="record 1"):
                read_registry(io.StringIO(text))

    def test_bytes_deterministic(self):
        a, b = io.StringIO(), io.StringIO()
        write_registry(a, self.RECORDS)
        write_registry(b, self.RECORDS)
        assert a.getvalue() == b.getvalue()
        assert a.getvalue().endswith("\n")
