"""Release gate: one printed verdict line per shipped guarantee.

Each test below checks one numbered guarantee end to end and prints a
single ``[ACCEPT]`` line outside pytest's capture, so running this file
always produces a readable pass/fail report even under ``-q``.  The
tolerances are pinned here, next to the checks, and the frozen baseline
numbers were recorded from verified runs of the independent oracles in
the per-module test files.

Known failure that is reported, not masked: 12b.  The far component of
the split comparison pair levels off instead of decaying, so no finite
window can certify its smoothness bound by direct integration; the
check states what it needed and fails honestly.
"""
import functools
import math

import mpmath
import numpy as np
import pytest

from fracsmooth import (
    ModulusRequest,
    apply_diff,
    apply_diff_series,
    beurling_bound,
    classical_modulus,
    curve_F,
    equivalence_scan,
    jackson_ratio,
    linearized_modulus,
    make_g1_g2,
    make_g_tau,
    near_best_error,
    star_modulus,
    verify_nonvanishing,
    xn_divergence_probe,
    xy_prime,
    z_eval,
    z_series,
)
from fracsmooth.errors import DomainTooSmallError
from fracsmooth.signal import NormParams, corpus, evaluate
from mpmath_oracles import bracket_mpmath, cutoff_mpmath, psis_mpmath

# pinned tolerances, one place
TOL_CHECKPOINT = 2e-3       # three-decimal reference points
TOL_RESIDUAL = 1e-8         # |z| at a refined zero
TOL_DEGENERATE = 1e-7       # linearized modulus at the bad step
TOL_ORACLE = 1e-8           # independent-route agreement
TOL_IDENTITY = 1e-9         # exact kernel identities
TOL_DERIV = 1e-6            # closed-form derivative vs differences
TOL_SEMIGROUP = 1e-12       # composition of difference operators
TOL_REGRESSION = 1e-2       # drift allowed on recorded ratio baselines
TOL_FLOOR_REGRESSION = 1e-9
RATIO_CAP = 50.0
RESCUE_CAP = 32.0           # 2 ** beta0, rounded up

# recorded baselines (regression, not oracles): frozen from the first
# verified run and required to reproduce within TOL_* above
BASE_MAX_OMEGA_OVER_W = 3.9995833311636146
# max omega/tilde and max omega/star of gate 08, computed with every L_p
# grid doubled (signal.grid_size times 2) as the oracle, not taken from a
# run on the native grid; both maxima sit at exp:1, h = 0.05 (orders 3
# and 5 = 4 + 1).  These three exp:1 maxima are checked against closed
# forms in test_c08_baselines_match_closed_forms
BASE_MAX_OMEGA_OVER_TILDE = 3.999883327524368
BASE_MAX_STAR_OVER_OMEGA = 0.35009168633836624
BASE_MAX_OMEGA_OVER_STAR = 9.999454354031359
# max classical over linearized modulus of gate 09 at steps 1/(2n) and
# 1/(4n); checked against a Parseval oracle in
# test_c09_baseline_matches_parseval
BASE_REGIME_HALF = 6.998752744772975
BASE_REGIME_QUARTER = 6.9996743142368745
BASE_PROBE_20 = -4118670861.0726085
# max Jackson ratio of gate 11 (sawtooth:8, n = 4); checked against a
# Parseval oracle in test_c11_baseline_matches_parseval
BASE_JACKSON = 0.2811733882019196
# sup of gate 12a, at (beta, tau) = (3.9, 0.9); checked against an
# mpmath oracle in test_c12a_baseline_matches_oracle
BASE_GTAU_SUP = 11.666914150298086
BASE_FLOORS_WIDE = {0.5: 0.007453353622552306,
                    1.0: 0.001249913196855684,
                    2.5: 7.984143652895052e-06,
                    3.9: 8.601803821797022e-08}
BASE_FLOORS_HIGH = {4.85: 4.184123012158149e-09,
                    6.0: 1.1153765064563083e-10,
                    8.0: 2.1683048663339964e-13}


@pytest.fixture
def accept(capfd):
    """Print one verdict line per criterion, then assert it."""

    def emit(cid, label, ok, detail=""):
        with capfd.disabled():
            line = f"[ACCEPT] {cid:>3}  {label}: {'PASS' if ok else 'FAIL'}"
            if detail:
                line += f"  ({detail})"
            print(line)
        assert ok, f"{cid} {label}: {detail}"

    return emit


@pytest.fixture(scope="module")
def scan_rows(corpus_members):
    return equivalence_scan(corpus_members,
                            [0.5, 1.0, 1.5, 2.5, 3.0],
                            [0.05, 0.2, 1.0],
                            [1.0, 2.0, math.inf])


def test_c01_kernel_checkpoints(accept):
    targets = [
        (13 * math.pi / 5, 3.622 + 2.327j),
        (14 * math.pi / 5, -2.803 - 5.632j),
        (27 * math.pi / 10, -0.413 + 0.504j),
    ]
    errs = [abs(z_eval(5.0, t) - ref) for t, ref in targets]
    accept("01", "order-five kernel checkpoints",
           max(errs) <= TOL_CHECKPOINT, f"max |dz| {max(errs):.2e}")


def test_c02_smallest_degenerate_order(accept, beta0_record):
    rec = beta0_record
    ok = (4.0 < rec.beta_k < 5.0
          and abs(rec.beta_k - 4.85) <= 0.05
          and rec.t_k > 2 * math.pi
          and math.pi * (3.0 - 2.0 / rec.beta_k) < rec.t_k < 3 * math.pi
          and rec.residual <= TOL_RESIDUAL
          and curve_F(4.0) > 0.0
          and curve_F(5.0) < 0.0)
    accept("02", "smallest degenerate order located",
           ok, f"beta0 {rec.beta_k:.9f}, t0 {rec.t_k:.9f}")


def test_c03_degenerate_step_collapses(accept, beta0_record):
    e1 = corpus("exponential", 1)
    row = equivalence_scan([("exp:1", e1)],
                           [beta0_record.beta_k], [beta0_record.t_k],
                           [2.0])[0]
    ok = (row.omega_tilde <= TOL_DEGENERATE
          and row.omega >= 1.0
          and math.isinf(row.r_tilde))
    accept("03", "averaged modulus collapses at the bad step",
           ok, f"tilde {row.omega_tilde:.2e}, omega {row.omega:.3f}, "
               f"ratio flagged {row.r_tilde}")


def test_c04_rescue_with_approximation_error(accept, beta0_record):
    e1 = corpus("exponential", 1)
    req = ModulusRequest(beta=beta0_record.beta_k, h=beta0_record.t_k,
                         norm=NormParams(p=2))
    omega = classical_modulus(e1, req)
    tilde = linearized_modulus(e1, req)
    e0 = near_best_error(e1, 0, 2.0)
    constant = omega / (tilde + e0)
    ok = e0 == 1.0 and constant <= RESCUE_CAP
    accept("04", "degree-zero error term restores the bound",
           ok, f"C {constant:.4f} <= {RESCUE_CAP}")


def test_c05_independent_route_agreement(accept, corpus_members):
    worst_z = 0.0
    for beta in (0.5, 1.5, 2.5, 4.85, 6.0):
        for t in (0.3, math.pi, 2 * math.pi - 0.1, 7.0, 13.0):
            worst_z = max(worst_z,
                          abs(z_eval(beta, t) - z_series(beta, t, tol=1e-10)))
    rng = np.random.default_rng(20260817)
    worst_d = 0.0
    for _ in range(20):
        _, f = corpus_members[int(rng.integers(len(corpus_members)))]
        beta = float(rng.uniform(1.5, 4.0))
        delta = float(rng.uniform(0.1, 1.5))
        x = float(rng.uniform(0.0, 2 * math.pi))
        via_mult = evaluate(apply_diff(f, beta, delta), [x])[0]
        via_series = apply_diff_series(f, beta, delta, x, tol=1e-10)
        worst_d = max(worst_d, abs(via_mult - via_series))
    ok = worst_z <= TOL_ORACLE and worst_d <= TOL_ORACLE
    accept("05", "quadrature, series, and multiplier routes agree",
           ok, f"kernel {worst_z:.2e}, difference {worst_d:.2e}")


def test_c06_identity_suite(accept):
    worst_id = 0.0
    for beta in (0.5, 2.5, 4.85):
        for t in (0.7, 2.9, 5.3):
            z = z_eval(beta, t)
            worst_id = max(
                worst_id,
                abs(z_eval(beta, -t) + z.conjugate()),
                abs(z_eval(beta, t + 2 * math.pi) - z - 2 * math.pi),
                abs((z_eval(beta, 2 * math.pi - t).real) - (2 * math.pi - z.real)),
            )
        for k in (1, 2):
            worst_id = max(
                worst_id,
                abs(z_eval(beta, math.pi * k).real - math.pi * k),
                abs(z_eval(beta, 2 * math.pi * k).imag),
            )
    worst_fd = 0.0
    step = 1e-4
    for beta, t in ((2.5, 3.3), (3.3, 2.0), (1.5, 4.4)):
        xp, yp = xy_prime(beta, t)
        hi = z_eval(beta, t + step)
        lo = z_eval(beta, t - step)
        worst_fd = max(worst_fd,
                       abs((hi.real - lo.real) / (2 * step) - xp),
                       abs((hi.imag - lo.imag) / (2 * step) - yp))
    f = corpus("random_smooth", 8, seed=3)
    worst_sg = 0.0
    for alpha, beta in ((0.5, 1.2), (1.0, 2.5)):
        combined = apply_diff(f, alpha + beta, 0.37)
        stacked = apply_diff(apply_diff(f, alpha, 0.37), beta, 0.37)
        worst_sg = max(worst_sg,
                       float(np.max(np.abs(combined.coeffs - stacked.coeffs))))
    ok = (worst_id <= TOL_IDENTITY and worst_fd <= TOL_DERIV
          and worst_sg <= TOL_SEMIGROUP)
    accept("06", "kernel identity suite",
           ok, f"identities {worst_id:.2e}, derivatives {worst_fd:.2e}, "
               f"composition {worst_sg:.2e}")


def test_c07_nonvanishing_floors(accept):
    floors = {}
    for beta in BASE_FLOORS_WIDE:
        floors[beta] = verify_nonvanishing(beta, 0.05, 8 * math.pi, 2048)
    for beta in BASE_FLOORS_HIGH:
        floors[beta] = verify_nonvanishing(beta, 0.05, math.pi - 0.05, 3042)
    baseline = {**BASE_FLOORS_WIDE, **BASE_FLOORS_HIGH}
    positive = all(v > 0.0 for v in floors.values())
    stable = all(abs(floors[b] - baseline[b]) <= TOL_FLOOR_REGRESSION
                 for b in baseline)
    accept("07", "kernel magnitude floors are positive and reproducible",
           positive and stable,
           f"min floor {min(floors.values()):.3e}")


def test_c08_equivalence_scan_bounds(accept, scan_rows, corpus_members):
    rows = scan_rows
    clean = all(r.error is None for r in rows)
    chain = all(r.omega_tilde <= r.w * (1 + 1e-6)
                and r.w <= r.omega * (1 + 1e-6) for r in rows)
    max_w = max(r.omega / r.w for r in rows)
    max_t = max(r.omega / r.omega_tilde for r in rows)
    star_up, star_dn = [], []
    for beta, alpha in ((2.5, 2.5), (3.5, 2.5), (5.0, 4.0)):
        for _, f in corpus_members:
            for h in (0.05, 0.2, 1.0):
                for p in (1.0, 2.0, math.inf):
                    st = star_modulus(f, ModulusRequest(
                        beta=beta, h=h, norm=NormParams(p=p), alpha=alpha))
                    om = classical_modulus(f, ModulusRequest(
                        beta=beta, h=h, norm=NormParams(p=p)))
                    star_up.append(st / om)
                    star_dn.append(om / st)
    ok = (clean and chain
          and max_w <= RATIO_CAP
          and abs(max_w - BASE_MAX_OMEGA_OVER_W)
          <= TOL_REGRESSION * BASE_MAX_OMEGA_OVER_W
          and math.isfinite(max_t)
          and abs(max_t - BASE_MAX_OMEGA_OVER_TILDE)
          <= TOL_REGRESSION * BASE_MAX_OMEGA_OVER_TILDE
          and max(star_up) <= RATIO_CAP and max(star_dn) <= RATIO_CAP
          and abs(max(star_up) - BASE_MAX_STAR_OVER_OMEGA)
          <= TOL_REGRESSION * BASE_MAX_STAR_OVER_OMEGA
          and abs(max(star_dn) - BASE_MAX_OMEGA_OVER_STAR)
          <= TOL_REGRESSION * BASE_MAX_OMEGA_OVER_STAR)
    accept("08", "modulus chain and bounded ratios on the corpus",
           ok, f"{len(rows)} rows, omega/w {max_w:.3f}, "
               f"omega/tilde {max_t:.3f}")


def _psi_integer(n, h):
    """psi_n(h) = (1/h) int_0^h (1 - e^{i phi})^n dphi at an integer order
    n, by the finite binomial sum (mpmath at the working precision)."""
    acc = h
    for j in range(1, n + 1):
        acc += (mpmath.binomial(n, j) * (-1) ** j
                * (mpmath.expj(j * h) - 1) / (1j * j))
    return acc / h


def _z_quad(beta, t):
    """z_beta(t) by mpmath quadrature of the principal-branch integrand.

    t is reduced modulo 2 pi first, with z(t + 2 pi) = z(t) + 2 pi: the
    integrand has a branch point at every multiple of 2 pi."""
    shifts = mpmath.floor(t / (2 * mpmath.pi))
    t0 = t - 2 * mpmath.pi * shifts
    return (mpmath.quad(lambda phi: (1 - mpmath.expj(phi)) ** beta, [0, t0])
            + 2 * mpmath.pi * shifts)


def _star_over_omega_sawtooth():
    """omega*/omega of sawtooth:8 at beta = alpha = 2.5, h = 1, p = 2, by
    Parseval: |c_k|^2 = 1/(4 k^2) for 1 <= |k| <= 8, omega* has the
    symbol psi_2.5(k h), and omega, whose sum over k peaks at delta = h
    (checked in the test), has the symbol |2 sin(k h/2)|^2.5 there."""
    beta = mpmath.mpf(2.5)
    star = mpmath.fsum(abs(_z_quad(beta, k) / k) ** 2 / k ** 2
                       for k in range(1, 9))
    omega = mpmath.fsum((2 * abs(mpmath.sin(mpmath.mpf(k) / 2))) ** (2 * beta)
                        / k ** 2 for k in range(1, 9))
    return mpmath.sqrt(star / omega)


def test_c08_baselines_match_closed_forms(scan_rows, corpus_members):
    # |e_1| is constant, so every L_p norm of a modulus of e_1 is the
    # modulus of its symbol; the difference norm (2 sin(delta/2))^beta
    # increases on (0, pi], so omega at h = 0.05 is its value at h
    with mpmath.workdps(30):
        h = mpmath.mpf(0.05)
        c = mpmath.cos(h / 2)
        s = 2 * mpmath.sin(h / 2)
        over_w = float(s ** 3 * h / (16 * (mpmath.mpf(2) / 3 - c
                                           + c ** 3 / 3)))
        over_tilde = float(s ** 3 / abs(_psi_integer(3, h)))
        over_star = float(s ** 5 / abs(_psi_integer(4, h)
                                       * _psi_integer(1, h)))
    with mpmath.workdps(25):
        star_over = float(_star_over_omega_sawtooth())
    assert over_w == pytest.approx(BASE_MAX_OMEGA_OVER_W, rel=1e-15)
    assert over_tilde == pytest.approx(BASE_MAX_OMEGA_OVER_TILDE, rel=1e-15)
    assert over_star == pytest.approx(BASE_MAX_OMEGA_OVER_STAR, rel=1e-15)
    assert star_over == pytest.approx(BASE_MAX_STAR_OVER_OMEGA, rel=1e-15)
    # the classical sum over k of |2 sin(k delta/2)|^5 / k^2 peaks at h = 1
    k = np.arange(1, 9)
    deltas = np.linspace(1e-3, 1.0, 4000)
    sums = ((2.0 * np.abs(np.sin(np.outer(deltas, k) / 2.0))) ** 5
            / k ** 2).sum(1)
    assert int(np.argmax(sums)) == deltas.size - 1
    saw = dict(corpus_members)["sawtooth:8"]
    st = star_modulus(saw, ModulusRequest(
        beta=2.5, h=1.0, norm=NormParams(p=2.0), alpha=2.5))
    om = classical_modulus(saw, ModulusRequest(
        beta=2.5, h=1.0, norm=NormParams(p=2.0)))
    assert st / om == pytest.approx(star_over, rel=1e-12)
    # the maxima of gate 08 are these cells
    assert max(r.omega / r.w for r in scan_rows) == pytest.approx(
        over_w, rel=1e-12)
    assert max(r.omega / r.omega_tilde for r in scan_rows) == pytest.approx(
        over_tilde, rel=1e-12)
    e1 = dict(corpus_members)["exp:1"]
    for p in (1.0, 2.0, math.inf):
        st = star_modulus(e1, ModulusRequest(
            beta=5.0, h=0.05, norm=NormParams(p=p), alpha=4.0))
        om = classical_modulus(e1, ModulusRequest(
            beta=5.0, h=0.05, norm=NormParams(p=p)))
        assert om / st == pytest.approx(over_star, rel=1e-12), p


#: the cells of gate 09: degree n, orders beta and the two corpus members
#: at p = 2, each with the step h = scale/n
REGIME_DEGREES = (4, 8, 16)
REGIME_ORDERS = (0.5, 2.5, 4.85, 6.0)


def _regime_max(scale):
    """The largest classical over linearized modulus of gate 09."""
    worst = 0.0
    for n in REGIME_DEGREES:
        fs = [corpus("random_smooth", n, seed=5),
              corpus("sawtooth_truncated", n)]
        h = scale / n
        for beta in REGIME_ORDERS:
            for f in fs:
                req = ModulusRequest(beta=beta, h=h, norm=NormParams(p=2))
                worst = max(worst, classical_modulus(f, req)
                            / linearized_modulus(f, req))
    return worst


@functools.cache
def _abs_psi2_mpmath(beta, t):
    """|psi_beta(t)|^2 by ``mpmath.quad`` at 30 digits, memoised: the
    steps of gate 09 are powers of two, so its two scales share half of
    their points."""
    with mpmath.workdps(30):
        return abs(psis_mpmath((beta,), t)[0]) ** 2


def _regime_parseval(scale):
    """``_regime_max`` by Parseval at 30 digits.  Every k h is at most
    scale <= 1/2, so each |2 sin(k delta/2)| increases on (0, h] and the
    classical sup sits at delta = h; the ratio is then (sum_k |c_k|^2
    (2 sin(k h/2))^(2 beta) / sum_k |c_k|^2 |psi_beta(k h)|^2)^(1/2), over
    k = 1..n (-k gives the same terms, and k = 0 none), with |c_k|^2 =
    (1 + k)^-4 for random_smooth, whose phases drop out, and 1/(4 k^2)
    for the sawtooth, and |psi|^2 from ``_abs_psi2_mpmath``."""
    worst = 0.0
    with mpmath.workdps(30):
        for n in REGIME_DEGREES:
            ks = [mpmath.mpf(k) for k in range(1, n + 1)]
            h = mpmath.mpf(scale) / n
            members = ([(1 + k) ** -4 for k in ks],
                       [1 / (4 * k * k) for k in ks])
            for beta in REGIME_ORDERS:
                diff = [(2 * mpmath.sin(k * h / 2)) ** (2 * beta) for k in ks]
                avg = [_abs_psi2_mpmath(beta, k * h) for k in ks]
                for c2 in members:
                    worst = max(worst, float(mpmath.sqrt(
                        mpmath.fdot(c2, diff) / mpmath.fdot(c2, avg))))
    return worst


def test_c09_polynomial_regime_stability(accept):
    r_half = _regime_max(0.5)
    r_quarter = _regime_max(0.25)
    drift = abs(r_quarter - r_half) / r_half
    ok = (math.isfinite(r_half) and drift < 0.10
          and abs(r_half - BASE_REGIME_HALF)
          <= TOL_REGRESSION * BASE_REGIME_HALF
          and abs(r_quarter - BASE_REGIME_QUARTER)
          <= TOL_REGRESSION * BASE_REGIME_QUARTER)
    accept("09", "short-step ratios stable for polynomials",
           ok, f"R(h/2n) {r_half:.4f}, halved {r_quarter:.4f}, "
               f"drift {drift:.2%}")


def test_c09_baseline_matches_parseval():
    for scale, base in ((0.5, BASE_REGIME_HALF),
                        (0.25, BASE_REGIME_QUARTER)):
        oracle = _regime_parseval(scale)
        assert oracle == pytest.approx(base, rel=1e-12)
        assert _regime_max(scale) == pytest.approx(oracle, rel=1e-10,
                                                   abs=0.0), scale


def test_c10_divergence_trend(accept):
    vals = [xn_divergence_probe(n) for n in range(5, 21)]
    decreasing = all(b < a for a, b in zip(vals, vals[1:]))
    ok = (decreasing and vals[-1] < -10.0
          and abs(vals[-1] - BASE_PROBE_20) <= 1e-10 * abs(BASE_PROBE_20))
    accept("10", "near-period samples diverge with the order",
           ok, f"probe(20) {vals[-1]:.6e}")


def test_c11_jackson_ratio(accept, corpus_members):
    worst = max(jackson_ratio(f, 2, n, 2.0)
                for _, f in corpus_members for n in (4, 8, 16))
    ok = (math.isfinite(worst)
          and abs(worst - BASE_JACKSON) <= TOL_REGRESSION * BASE_JACKSON)
    accept("11", "near-best error against the second-order modulus",
           ok, f"max ratio {worst:.6f}")


def _jackson_parseval(f, n):
    """The Jackson ratio of gate 11 at p = 2 by Parseval: the error of the
    de la Vallee-Poussin mean, (sum |c_k|^2 (1 - v(k/n))^2)^(1/2), over the
    sup in delta in (0, 1/n] of (sum |c_k|^2 (2 sin(k delta/2))^4)^(1/2),
    the second-order modulus.  The sup is the largest of a grid of 2000
    steps, refined by ``findroot`` on the derivative in delta."""
    mask = f.freqs != 0
    k = f.freqs[mask]
    c2 = np.abs(f.coeffs[mask]) ** 2
    with mpmath.workdps(30):
        terms = [(mpmath.mpf(int(j)), mpmath.mpf(float(c)))
                 for j, c in zip(k, c2)]
        num = mpmath.fsum(c * (1 - cutoff_mpmath(j / n)) ** 2
                          for j, c in terms)
        if num == 0:
            return 0.0

        def modulus(d):
            return mpmath.fsum(c * (2 * mpmath.sin(j * d / 2)) ** 4
                               for j, c in terms)

        def slope(d):
            return mpmath.fsum(c * 32 * j * mpmath.sin(j * d / 2) ** 3
                               * mpmath.cos(j * d / 2) for j, c in terms)

        h = mpmath.mpf(1) / n
        grid = np.linspace(0.0, 1.0 / n, 2001)[1:]
        i = int(np.argmax(((2.0 * np.sin(np.outer(grid, k) / 2.0)) ** 4
                           * c2).sum(1)))
        best = modulus(h)
        if i < grid.size - 1:
            best = max(best, modulus(mpmath.findroot(slope, grid[i])))
        return float(mpmath.sqrt(num / best))


def test_c11_baseline_matches_parseval(corpus_members):
    oracle = {(fid, n): _jackson_parseval(f, n)
              for fid, f in corpus_members for n in (4, 8, 16)}
    assert max(oracle.values()) == pytest.approx(BASE_JACKSON, rel=1e-12)
    for fid, f in corpus_members:
        for n in (4, 8, 16):
            assert jackson_ratio(f, 2, n, 2.0) == pytest.approx(
                oracle[fid, n], rel=1e-12, abs=0.0), (fid, n)


def test_c12a_baseline_matches_oracle():
    oracle = bracket_mpmath(3.9, 0.9, (3.9,))
    assert oracle == pytest.approx(BASE_GTAU_SUP, rel=1e-12)
    assert beurling_bound(make_g_tau(3.9, 0.9), 3.0) == pytest.approx(
        oracle, rel=1e-10, abs=0.0)


def test_c12a_comparison_function_bounds(accept):
    worst = 0.0
    for beta in (0.5, 2.5, 3.9):
        for tau in np.arange(0.1, 0.95, 0.1):
            worst = max(worst,
                        beurling_bound(make_g_tau(beta, float(tau)), 3.0))
    ok = (math.isfinite(worst)
          and abs(worst - BASE_GTAU_SUP) <= TOL_REGRESSION * BASE_GTAU_SUP)
    accept("12a", "compact comparison family stays bounded",
           ok, f"sup {worst:.6f}")


def test_c12b_split_tail_window_stability(accept):
    _, g2 = make_g1_g2(3.5, 2.5, 0.5)
    bounds = {}
    errors = {}
    for half_width in (200.0, 400.0):
        try:
            bounds[half_width] = beurling_bound(g2, half_width)
        except DomainTooSmallError as exc:
            errors[half_width] = str(exc)
    if len(bounds) == 2:
        drift = abs(bounds[400.0] - bounds[200.0]) / bounds[200.0]
        accept("12b", "far-component bound stable under window doubling",
               drift <= 1e-3, f"drift {drift:.2e}")
    else:
        accept("12b", "far-component bound stable under window doubling",
               False,
               "no finite window admits the bound: the far component "
               "levels off near one instead of decaying, so doubling the "
               f"window keeps failing ({errors[400.0]})")
