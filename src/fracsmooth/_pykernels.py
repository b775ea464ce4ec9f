"""The NumPy kernels: the package's one numerical core.

``kernel`` imports this module and calls its three primitives:

``z_series_sum_batch(beta, ts, nterms)``
    Partial sums of the sine/cosine series for the accumulated difference
    kernel at each t of a vector:
    x = t + sum_{v=1..n} s_v sin(v t)/v, y = sum s_v (1 - cos(v t))/v
    with s_v = (-1)^v binom(beta, v) obtained from the recurrence
    s_v = s_{v-1} (v - 1 - beta)/v.

``gk15_panels(beta, a, b)``
    15-point Gauss-Kronrod rule applied to the polar-form integrand
    (2 sin(phi/2))^beta * exp(i beta (phi - pi)/2) on each panel [a_j, b_j],
    returning the Kronrod values, the |K - G| error estimates and the
    Kronrod rule applied to the magnitude of the integrand.

``gk15_dbeta(beta, a, b)``
    The Kronrod values of the beta-derivative of the same integrand,
    f(phi) (log(2 sin(phi/2)) + i (phi - pi)/2), on panels inside
    (0, 2pi).  Only the beta-crossing search of ``zeros`` calls it, through
    ``kernel._z_dbeta``.
"""
import numpy as np

_CHUNK = 1 << 16

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


def z_series_sum_batch(beta, ts, nterms):
    ts = np.asarray(ts, dtype=np.float64)
    xs = ts.copy()
    ys = np.zeros_like(ts)
    # keep the nu x t work matrix at a sane size
    chunk = max(1, min(_CHUNK, int(5e7) // max(1, ts.size)))
    carry = 1.0
    lo = 1
    while lo <= nterms:
        hi = min(lo + chunk, nterms + 1)
        nu = np.arange(lo, hi, dtype=np.float64)
        s = carry * np.cumprod((nu - 1.0 - beta) / nu)
        carry = s[-1]
        ang = np.multiply.outer(nu, ts)
        w = s / nu
        xs += w @ np.sin(ang)
        ys += w @ (1.0 - np.cos(ang))
        lo = hi
    return xs, ys


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


def gk15_dbeta(beta, a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    hw = 0.5 * (b - a)
    phi = (0.5 * (a + b))[:, None] + hw[:, None] * _NODES[None, :]
    s = 2.0 * np.sin(0.5 * phi)
    mag = s ** beta
    ang = 0.5 * beta * (phi - np.pi)
    fr = mag * np.cos(ang)
    fi = mag * np.sin(ang)
    # f times log(1 - e^(i phi)) = log(s) + i (phi - pi)/2
    ls = np.log(s)
    half = 0.5 * (phi - np.pi)
    return hw * ((fr * ls - fi * half) @ _WK) + 1j * hw * (
        (fr * half + fi * ls) @ _WK)
