"""Trigonometric polynomials: representation, L_p norms, test corpus.

A polynomial of degree M is stored as the dense coefficient vector
c[-M..M] (index k + M), so that f(x) = sum_k c_k exp(i k x).
``lp_norms`` measures a batch of them at several exponents from one
synthesis on the uniform grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError

TWO_PI = 2.0 * math.pi

#: grid points per coefficient of the rectangle rule (``grid_size``)
_OVERSAMPLE = 8


@dataclass(frozen=True, eq=False)
class TrigPoly:
    """Dense trigonometric polynomial sum_{|k| <= degree} c_k e^{ikx}."""
    degree: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not float(self.degree).is_integer():
            raise InvalidArgumentError(
                f"degree must be a whole number, got {self.degree}")
        if self.degree < 0:
            raise InvalidArgumentError("degree must be nonnegative")
        object.__setattr__(self, "degree", int(self.degree))
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (2 * self.degree + 1,):
            raise InvalidArgumentError(
                f"coefficient vector must have length {2 * self.degree + 1}, "
                f"got shape {c.shape}")
        if not np.isfinite(c).all():
            raise InvalidArgumentError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def freqs(self) -> np.ndarray:
        return np.arange(-self.degree, self.degree + 1)

    @property
    def is_real(self) -> bool:
        """Whether the coefficients carry the conjugate symmetry
        c_{-k} = conj(c_k) of a real-valued function (flag, not enforced)."""
        return bool(np.array_equal(np.conj(self.coeffs[::-1]), self.coeffs))

    def coeff(self, k: int) -> complex:
        """Coefficient of e^{ikx} (0 outside the stored band)."""
        if abs(k) > self.degree:
            return 0.0j
        return complex(self.coeffs[k + self.degree])

    def with_coeffs(self, coeffs) -> "TrigPoly":
        return TrigPoly(self.degree, coeffs)

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        m = max(self.degree, other.degree)
        c = np.zeros(2 * m + 1, dtype=complex)
        c[m - self.degree:m + self.degree + 1] += self.coeffs
        c[m - other.degree:m + other.degree + 1] += other.coeffs
        return TrigPoly(m, c)

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "TrigPoly":
        return TrigPoly(self.degree, scalar * self.coeffs)


@dataclass(frozen=True)
class NormParams:
    """How to measure: the exponent p in (0, inf].

    p = 2 is exact: Parseval's sum of |c_k|^2, with no grid.  Every other
    p is read on a uniform grid (``grid_size``); p = inf (the grid
    maximum) and p = 1 (a rectangle rule over |f|, which has a kink at
    each zero of f) are O(dx^2) there, about 1e-2 relative on the grid of
    ``_OVERSAMPLE`` = 8 points per coefficient (see ``lp_norm``).
    """
    p: float

    def __post_init__(self):
        if not (self.p > 0.0):
            raise InvalidArgumentError("p must be positive (math.inf allowed)")

    @property
    def p1(self) -> float:
        """min(1, p) — the exponent for outer step averages."""
        return min(1.0, self.p)


def evaluate(f: TrigPoly, points) -> np.ndarray:
    """Evaluate f at arbitrary points (complex values)."""
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    out = np.zeros(pts.shape, dtype=complex)
    # chunk the (points x modes) work matrix
    step = max(1, int(2e6) // (2 * f.degree + 1))
    for lo in range(0, pts.size, step):
        chunk = pts[lo:lo + step]
        out[lo:lo + step] = np.exp(1j * np.outer(chunk, f.freqs)) @ f.coeffs
    return out


def _synthesis(c, n: int):
    """Values on the uniform grid x_j = 2 pi j / n of the rows of the 2-D
    array ``c`` of coefficients c[-M..M], n >= 2M + 1, as (u, v): the real
    part u and the imaginary part v, each a row-wise real inverse FFT of
    the k = 0..M half spectrum of (f + conj f)/2 and (f - conj f)/(2i).

    v is None when every row is exactly Hermitian (c_{-k} = conj(c_k), a
    real function), so a real batch costs one ``irfft``; in a batch that
    needs v, a Hermitian row gets a v of exact zeros.
    """
    degree = (c.shape[1] - 1) // 2
    pos = c[:, degree:]
    neg = np.conj(c[:, degree::-1])
    u = np.fft.irfft((pos + neg) * 0.5, n, axis=1, norm="forward")
    diff = pos - neg
    if not diff.any():
        return u, None
    return u, np.fft.irfft(diff * -0.5j, n, axis=1, norm="forward")


def grid_values(f: TrigPoly, n: int) -> np.ndarray:
    """Values on the uniform grid x_j = 2 pi j / n (complex), from the
    real-input synthesis of the real and imaginary parts that the L_p
    norms use (``_synthesis``)."""
    if n < 2 * f.degree + 1:
        raise InvalidArgumentError("grid too coarse for the degree")
    u, v = _synthesis(f.coeffs[None, :], n)
    out = u[0].astype(complex)
    if v is not None:
        out.imag = v[0]
    return out


@lru_cache(maxsize=64)
def _smooth_length(n: int) -> int:
    """Smallest integer >= n whose prime factors are all at most 11 (the
    radices with their own passes in NumPy's pocketfft)."""
    while True:
        m = n
        for q in (2, 3, 5, 7, 11):
            while m % q == 0:
                m //= q
        if m == 1:
            return n
        n += 1


def grid_size(degree: int) -> int:
    """Points of the rectangle rule that the L_p norms use at this degree:
    max(64, _OVERSAMPLE*(2*degree+1)), rounded up to an 11-smooth FFT
    length (at degree 1024, 16392 = 2^3*3*683 becomes 16464 = 2^4*3*7^3,
    so the inverse FFT avoids a slow pass for the prime factor 683)."""
    return _smooth_length(max(64, _OVERSAMPLE * (2 * degree + 1)))


def lp_norms(coeffs, ps) -> np.ndarray:
    """L_p norm at each exponent of ``ps`` of each polynomial whose
    coefficients c[-M..M] are a row of the 2-D array ``coeffs``, as an
    array of shape (len(ps), rows): one row of norms per exponent.

    At p = 2 the value is Parseval's (sum_k |c_k|^2)^(1/2), which is what
    the grid rule below computes in exact arithmetic, and no grid is
    built.  Every other p reads |f| of the rows on the uniform grid of
    ``grid_size`` points, |u| or hypot(u, v) of one ``_synthesis`` shared
    by all of them, and reduces each row by the rectangle rule: the row
    maximum ``vals.max(axis=1)`` at p = inf, the row mean
    ``np.mean(vals, axis=1)`` at p = 1, with no power and no root.
    ``lp_norm`` is the one-row, one-p case, so a batch of rows and
    exponents gives bit for bit the values of one ``lp_norm`` call per
    row and p, with the accuracy stated there.
    """
    c = np.asarray(coeffs, dtype=complex)
    out = np.empty((len(ps), c.shape[0]))
    vals = None
    for i, p in enumerate(ps):
        if p == 2.0:
            out[i] = np.sqrt(np.sum(c.real ** 2 + c.imag ** 2, axis=1))
            continue
        if vals is None:
            u, v = _synthesis(c, grid_size((c.shape[1] - 1) // 2))
            vals = np.abs(u, out=u) if v is None else np.hypot(u, v, out=u)
        if math.isinf(p):
            out[i] = vals.max(axis=1)
        elif p == 1.0:
            # |f| ** 1 and m ** 1 are |f| and m bit for bit
            out[i] = np.mean(vals, axis=1)
        else:
            # the root is taken row by row with the scalar power: NumPy's
            # vectorised power loop can differ from it in the last bit
            out[i] = [m ** (1.0 / p) for m in np.mean(vals ** p, axis=1)]
    return out


def lp_norm(f: TrigPoly, params: NormParams) -> float:
    """L_p norm (quasi-norm for p < 1) on the circle.

    At p = 2 it is exact: Parseval's sum of |c_k|^2.  Other p use the
    uniform rectangle rule on the ``grid_size`` points.  At p = inf it is
    the grid maximum, O(dx^2) below a smooth maximum.  At other p it is a
    rectangle rule over |f|^p, which is smooth only where f has no zero;
    at p = 1, |f| has a kink at each simple zero of f and the rule is
    O(dx^2).  Against a grid of 64 points per coefficient, over
    ``default_corpus()`` with the difference ``apply_diff(f, beta, h)``
    at beta in {0.5, 1, 2.5, 3.5, 5} and 40 steps h in [0.01, 1], the
    grid of ``_OVERSAMPLE`` = 8 was off by at most 1.2e-2 relative at
    p = inf and 6.7e-3 at p = 1.
    """
    return float(lp_norms(f.coeffs[None, :], (params.p,))[0, 0])


def from_samples(values) -> TrigPoly:
    """Interpolating polynomial of degree floor((N-1)/2) from N uniform samples.

    Samples live on x_j = 2 pi j / N.  For even N the Nyquist bin is
    dropped, so the round trip through ``grid_values`` is exact whenever
    the samples come from a polynomial of degree <= floor((N-1)/2).
    """
    v = np.asarray(values, dtype=complex)
    if v.ndim != 1 or v.size < 1:
        raise InvalidArgumentError("need a 1-D sample vector")
    if not np.isfinite(v).all():
        raise InvalidArgumentError("samples must be finite")
    n = v.size
    m = (n - 1) // 2
    c = np.fft.fft(v) / n
    k = np.arange(-m, m + 1)
    return TrigPoly(m, c[np.mod(k, n)])


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def corpus(kind: str, degree: int, seed: int = 0) -> TrigPoly:
    """Named test functions.

    kind:
      'exponential'        e_n (``degree`` is the mode index, may be negative)
      'random_smooth'      real-valued, |c_k| = (1+|k|)^-2, seeded phases
      'sawtooth_truncated' sum_{k<=M} sin(kx)/k
      'abs_sin_truncated'  Fourier truncation of |sin x|

    A ``degree`` that is not a whole number (2.5, nan, inf) raises
    InvalidArgumentError, as in ``TrigPoly``.
    """
    if not float(degree).is_integer():
        raise InvalidArgumentError(
            f"degree must be a whole number, got {degree}")
    if kind == "exponential":
        n = int(degree)
        m = abs(n)
        c = np.zeros(2 * m + 1, dtype=complex)
        c[n + m] = 1.0
        return TrigPoly(m, c)
    if degree < 0:
        raise InvalidArgumentError("degree must be nonnegative")
    m = int(degree)
    if kind == "random_smooth":
        rng = np.random.default_rng(seed)
        c = np.zeros(2 * m + 1, dtype=complex)
        c[m] = 1.0
        for k in range(1, m + 1):
            phase = rng.uniform(0.0, TWO_PI)
            c[m + k] = (1.0 + k) ** -2.0 * np.exp(1j * phase)
            c[m - k] = np.conj(c[m + k])
        return TrigPoly(m, c)
    if kind == "sawtooth_truncated":
        c = np.zeros(2 * m + 1, dtype=complex)
        for k in range(1, m + 1):
            c[m + k] = -0.5j / k
            c[m - k] = 0.5j / k
        return TrigPoly(m, c)
    if kind == "abs_sin_truncated":
        c = np.zeros(2 * m + 1, dtype=complex)
        c[m] = 2.0 / math.pi
        for mm in range(1, m // 2 + 1):
            c[m + 2 * mm] = c[m - 2 * mm] = \
                -2.0 / (math.pi * (4.0 * mm * mm - 1.0))
        return TrigPoly(m, c)
    raise InvalidArgumentError(f"unknown corpus kind: {kind!r}")


def default_corpus() -> list[tuple[str, TrigPoly]]:
    """The standard (fid, function) list used by scans and the CLI."""
    return [
        ("exp:1", corpus("exponential", 1)),
        ("exp:3", corpus("exponential", 3)),
        ("random:8:1", corpus("random_smooth", 8, seed=1)),
        ("random:16:2", corpus("random_smooth", 16, seed=2)),
        ("sawtooth:8", corpus("sawtooth_truncated", 8)),
        ("abssin:8", corpus("abs_sin_truncated", 8)),
    ]
