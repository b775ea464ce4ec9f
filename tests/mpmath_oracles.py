"""Independent mpmath oracles shared by the test modules.

Closed forms and quadratures at mpmath's working precision: the cutoff v,
the kernel curve z, the averaging symbols psi, the comparison functions
and their Beurling bracket.  This module imports nothing from
``fracsmooth``, so an oracle shares no code with what it checks.
"""
import mpmath
import numpy as np


def cutoff_mpmath(t):
    """``approx.CutoffV`` in closed form: w(2 - |t|), with the transition
    w(u) = s(u) / (s(u) + s(1 - u)) and s(u) = exp(-1/u)."""
    u = 2 - abs(t)
    if u >= 1:
        return mpmath.mpf(1)
    if u <= 0:
        return mpmath.mpf(0)
    a, b = mpmath.exp(-1 / u), mpmath.exp(-1 / (1 - u))
    return a / (a + b)


def integrand(order, t):
    """(1 - e^{it})^order on the principal branch, in polar form."""
    return (2 * mpmath.sin(t / 2)) ** order * mpmath.expj(
        order * (t - mpmath.pi) / 2)


def z_mpmath(beta, t):
    """z(beta, t) by mpmath quadrature of the principal-branch integrand at
    30 digits, with t reduced by the exact multiple of 2pi
    (z(t + 2pi) = z(t) + 2pi)."""
    with mpmath.workdps(30):
        two_pi = 2 * mpmath.pi
        turns = mpmath.floor(mpmath.mpf(t) / two_pi)
        t0 = mpmath.mpf(t) - two_pi * turns
        return complex(mpmath.quad(lambda phi: integrand(beta, phi), [0, t0])
                       + two_pi * turns)


def psis_mpmath(orders, t):
    """psi_a(t) = z_a(t)/t for each order a, by ``mpmath.quad`` at the
    working precision."""
    return [mpmath.quad(lambda s: integrand(a, s), [0, t]) / t
            for a in orders]


def g_mpmath(beta, tau, orders, t):
    """(1 - e^{i tau t})^beta v(t) / prod_a psi_a(t) at the mpmath working
    precision, with each z_a by ``mpmath.quad`` of its integrand."""
    t = mpmath.mpf(t)
    return (integrand(beta, tau * t) * cutoff_mpmath(t)
            / mpmath.fprod(psis_mpmath(orders, t)))


def g_and_deriv_mpmath(beta, tau, orders, t):
    """``g_mpmath`` and its derivative by the closed form
    g (N'/N - sum_a psi_a'/psi_a) + N v'/D, with v' by ``mpmath.diff``."""
    t = mpmath.mpf(t)
    psis = psis_mpmath(orders, t)
    num = integrand(beta, tau * t)
    den = mpmath.fprod(psis)
    g = num * cutoff_mpmath(t) / den
    dlog = beta * tau / 2 * (mpmath.cot(tau * t / 2) + 1j) - mpmath.fsum(
        (integrand(a, t) / p - 1) / t for a, p in zip(orders, psis))
    return g, g * dlog + num * mpmath.diff(cutoff_mpmath, t) / den


def bracket_mpmath(beta, tau, orders):
    """The Beurling bracket of ``g_mpmath`` on [-2, 2] at 20 digits.

    |g|^2 and |g'|^2 are even, so each integral is twice the one over
    [0, 2], taken by 24 Gauss-Legendre nodes on each of 8 panels, twice
    the panels of ``beurling_bound``; with 16 panels the bracket of
    g_tau(3.9, 0.9) moves by 2e-14.
    """
    x, w = np.polynomial.legendre.leggauss(24)
    edges = np.linspace(0.0, 2.0, 9)
    with mpmath.workdps(20):
        sums = [mpmath.mpf(0), mpmath.mpf(0)]
        for lo, hi in zip(edges[:-1], edges[1:]):
            for xi, wi in zip(x, w):
                vals = g_and_deriv_mpmath(
                    beta, tau, orders, 0.5 * (lo + hi + (hi - lo) * xi))
                for k in (0, 1):
                    sums[k] += 0.5 * (hi - lo) * wi * abs(vals[k]) ** 2
        return float(mpmath.sqrt(2 * sums[0]) + mpmath.sqrt(2 * sums[1]))
