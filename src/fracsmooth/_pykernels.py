"""The 15-point Gauss-Kronrod panel rule, kept for the benchmark alone.

``gk15_panels(beta, a, b)``
    15-point Gauss-Kronrod rule applied to the polar-form integrand
    (2 sin(phi/2))^beta * exp(i beta (phi - pi)/2) on each panel [a_j, b_j],
    returning the Kronrod values, the |K - G| error estimates and the
    Kronrod rule applied to the magnitude of the integrand.

The library calls nothing here: z and its derivative in beta come from
the Gauss-Legendre rule of ``kernel``, and the series sums live in
``kernel`` and ``fracdiff``.  The rule stays only because the benchmark
in ``perfbench/`` traces it as a span; the benchmark's own change listed
in ROADMAP.md drops that span, and this module with it.
"""
import numpy as np

# 15-point Kronrod abscissae (positive half) and weights, with the embedded
# 7-point Gauss weights on the odd-indexed nodes.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# full 15-node layout: mirror the positive abscissae
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])           # ascending, 15
_WK = np.concatenate([_WGK[:-1], _WGK[::-1]])               # Kronrod weights
_WG_FULL = np.zeros(15)
_WG_FULL[1:15:2] = np.concatenate([_WG[:-1], _WG[::-1]])    # Gauss on odd slots


def gk15_panels(beta, a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    mid = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    phi = mid[:, None] + hw[:, None] * _NODES[None, :]
    s = np.maximum(2.0 * np.sin(0.5 * phi), 0.0)
    mag = s ** beta
    ang = 0.5 * beta * (phi - np.pi)
    fr = mag * np.cos(ang)
    fi = mag * np.sin(ang)
    kr = hw * (fr @ _WK)
    ki = hw * (fi @ _WK)
    gr = hw * (fr @ _WG_FULL)
    gi = hw * (fi @ _WG_FULL)
    vals = kr + 1j * ki
    errs = np.hypot(kr - gr, ki - gi)
    # magnitude of the rule applied to |f|, for conditioning estimates
    absmag = hw * (mag @ _WK)
    return vals, errs, absmag
