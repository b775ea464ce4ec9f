"""Small shared helpers."""
import functools
import math

import numpy as np
from numpy.polynomial import legendre

from .errors import InvalidArgumentError

#: knots per round of ``bracket_max``; the next bracket spans the two knots
#: beside the argmax, 2/16 = 1/8 of the bracket
_BRACKET_KNOTS = 17
#: rounds of ``bracket_max``: the last bracket is (1/8)^5 = 3.1e-5 of the
#: first
_BRACKET_ROUNDS = 5

#: ``fmt17_rows`` hands a value to ``'%.17g'`` when the fraction of its
#: scaled value y lies this close to 1/2; y is known to about 1e-14
_TIE_BAND = 1e-12
#: bytes of one rendered value, the longest '%.17g' text:
#: '-1.2345678901234567e-308'
_FIELD = 24
#: Veltkamp's splitter 2^27 + 1: the two halves of a double multiply exactly
_SPLIT = 134217729.0
#: the powers 10^q of ``fmt17_rows``, q from _Q_MIN to _Q_MAX: row
#: q - _Q_MIN of ``_Q_TABLE`` holds hi, its halves hi1 + hi2 of 26 bits,
#: and lo, where 10^q = (hi + lo) * 2^exp2 with hi in [1, 2) and exp2 in
#: ``_Q_EXP2``.  Rows are filled on first use, one exponent at a time;
#: ``_Q_BUILT`` marks the filled ones.
_Q_MIN, _Q_MAX = -300, 350
_Q_TABLE = np.zeros((4, _Q_MAX - _Q_MIN + 1))
_Q_EXP2 = np.zeros(_Q_MAX - _Q_MIN + 1, dtype=np.int32)
_Q_BUILT = np.zeros(_Q_MAX - _Q_MIN + 1, dtype=bool)
#: storage of ``_digit_tables``: reserved at import, while the heap is
#: small, and filled on first use.  Tables allocated in the middle of a
#: job pin the heap above the job's freed arrays: the benchmark's
#: kernel-batch ``peak_rss_mib`` read up to 56.1 MiB with them, 51.8 to
#: 52.0 MiB with this storage, and 51.4 to 51.6 MiB at the row-wise ``%``
#: writer
_ASCII4 = np.zeros(10000, dtype="<u4")
_TZ4 = np.zeros(10000, dtype=np.uint8)
#: sort keys of ``_fields`` past the fixed classes X + 4 in 0..20
_SCIENTIFIC, _FALLBACK = 21, 22


def check_beta(beta):
    """An order as a float; one that is not positive and finite raises
    InvalidArgumentError."""
    beta = float(beta)
    if not (beta > 0.0 and math.isfinite(beta)):
        raise InvalidArgumentError(
            f"beta must be positive and finite, got {beta}")
    return beta


def fmt17(x):
    """Format a float with 17 significant digits (round-trip safe)."""
    return format(float(x), ".17g")


def fmt17_rows(prefix, cols):
    """``prefix`` + the values of each row in ``'%.17g'``, comma-separated.

    ``cols`` is a 2-D float array and ``prefix`` a string without NUL
    characters; the result is the text
    ``prefix + ",".join("%.17g" % v for v in row) + "\\n"`` for every row,
    byte for byte, rendered by NumPy instead of one dtoa call per value.

    Method: a finite nonzero v is m * 2^e (``frexp``).  Its scaled value
    y = |v| * 10^q, with q = 16 - floor(log10 |v|), is formed as the
    double-double product of m and a (hi, lo) pair for 10^q and is exact
    to about 1e-14; the pairs are built exactly from Python integers, one
    exponent at a time on first use.  The decimal exponent X = 16 - q is
    taken only where floor(y) lies in [10^16, 10^17), decided from floor(y)
    and not from the rounded digits: for a float just below a power of
    ten, such as 1e-304 = 9.9999999999999997e-305, floor(y) is
    10^16 - 1, although y rounds to 10^16.  The 17 digits are D =
    round(y), with D = 10^17 carried into X.  They come from a 10,000-entry
    4-digit ASCII table and are laid out by class of X (fixed for
    -4 <= X < 17, scientific otherwise) with slice copies over the values
    sorted by class.  Trailing zeros are masked out, and one boolean
    compaction of the byte matrix joins the text.

    Fallback to ``'%.17g'`` itself: every zero, NaN and infinity; every
    value whose fraction of y lies within ``_TIE_BAND`` = 1e-12 of 1/2,
    where the product cannot decide the rounding (the exact ties such as
    2^-25 among them); and every value whose floor(y) falls outside
    [10^16, 10^17) because log10 rounded across a power of ten (floats
    within a few units in the last place of one).
    """
    cols = np.asarray(cols, dtype=float)
    n, k = cols.shape
    head = prefix.encode()
    order, text = _fields(cols.ravel())
    slot = np.empty_like(order)
    slot[order] = np.arange(order.size)
    slot = slot.reshape(n, k)
    # one row of _FIELD bytes per value, in the order of ``order``
    text = np.ascontiguousarray(text.T).view(f"V{_FIELD}")[:, 0]
    rows = np.empty((n, len(head) + k * (_FIELD + 1)), dtype=np.uint8)
    rows[:, :len(head)] = np.frombuffer(head, dtype=np.uint8)
    for j in range(k):
        at = len(head) + j * (_FIELD + 1)
        rows[:, at:at + _FIELD].view(text.dtype)[:, 0] = text.take(slot[:, j])
        rows[:, at + _FIELD] = ord("\n" if j == k - 1 else ",")
    return rows[rows != 0].tobytes().decode()


def _fields(v):
    """The '%.17g' text of each value of ``v``, sorted by ``order``.

    Returns ``order`` and a (``_FIELD``, v.size) byte matrix whose column i
    holds the text of ``v[order[i]]``, left-aligned and with a zero byte
    at each place that is not part of the text.
    """
    a = np.abs(v)
    fast = np.isfinite(a) & (a != 0.0)
    a = np.where(fast, a, 1.0)
    m, e = np.frexp(a)
    q = 16 - np.floor(np.log10(a)).astype(np.int32)
    y, frac = _scaled(m, e, q)
    fast &= (np.abs(frac - 0.5) >= _TIE_BAND) & (y >= 10**16) & (y < 10**17)
    d = y + (frac > 0.5)
    top = d == 10**17
    d[top] = 10**16
    x = 16 - q + top
    key = np.where((x >= -4) & (x < 17), x + 4, _SCIENTIFIC)
    key[~fast] = _FALLBACK
    order = np.argsort(key.astype(np.uint8), kind="stable")
    cuts = np.searchsorted(key[order], np.arange(_FALLBACK + 1)).tolist()
    n_fast = cuts[_FALLBACK]
    x = x[order[:n_fast]]
    digits, nd = _digits(d[order[:n_fast]])
    text = np.zeros((_FIELD, v.size), dtype=np.uint8)
    text[0] = np.signbit(v[order]) * np.uint8(ord("-"))
    for c in range(_FALLBACK):
        lo, hi = cuts[c], cuts[c + 1]
        if lo < hi:
            _layout(c - 4, text[:, lo:hi], digits[:, lo:hi], nd[lo:hi],
                    x[lo:hi])
    for i in range(n_fast, v.size):
        s = ("%.17g" % v[order[i]]).encode()
        text[:len(s), i] = np.frombuffer(s, dtype=np.uint8)
    return order, text


def _layout(c, text, digits, nd, x):
    """Lay out the columns of one class: fixed notation with decimal
    exponent ``c`` in -4..16, else scientific with exponents ``x``.  Row 0
    holds the sign; ``digits`` and ``nd`` are as ``_digits`` gives them."""
    if c < 0:
        # '0.', -c - 1 zeros, then the significant digits
        lead = 1 - c
        text[1:1 + lead] = np.frombuffer(b"0.000"[:lead],
                                         dtype=np.uint8)[:, None]
        text[1 + lead:18 + lead] = digits * (np.arange(17)[:, None] < nd)
        return
    # p integer digits, '.', the other 17 - p digits; the point and each
    # fraction digit stay only if a nonzero digit follows or is at them
    scientific = c + 4 == _SCIENTIFIC
    p = 1 if scientific else c + 1
    text[1:p + 1] = digits[:p]
    text[p + 1] = (nd > p) * np.uint8(ord("."))
    text[p + 2:19] = digits[p:] * (np.arange(p, 17)[:, None] < nd)
    if scientific:
        # 'e', the sign and two or three digits of |x|: the last three
        # of its 4-digit group, where the sign overwrites the first
        ascii4, _ = _digit_tables()
        text[19] = ord("e")
        text[20:24] = _chars(ascii4.take(np.abs(x)))
        text[20] = np.where(x < 0, ord("-"), ord("+"))
        text[21] *= np.abs(x) >= 100


@functools.cache
def _digit_tables():
    """The 10,000-entry 4-digit ASCII table, as little-endian 4-byte words
    (``_chars`` turns words into rows of characters), and the number of
    trailing zeros of each 4-digit group (4 for 0000), filled on first
    use into ``_ASCII4`` and ``_TZ4``."""
    text = "".join(["%04d" % g for g in range(10000)]).encode()
    _ASCII4[:] = np.frombuffer(text, dtype="<u4")
    g = np.arange(10000)
    _TZ4[:] = sum(g % 10**j == 0 for j in range(1, 5))
    return _ASCII4, _TZ4


def _chars(words):
    """The 4 characters of each 4-digit ASCII word, one row per place."""
    return words.view(np.uint8).reshape(-1, 4).T


def _digits(d):
    """The 17 ASCII digits of each D in [10^16, 10^17), one row per digit
    place, and how many of them are left once trailing zeros are
    dropped."""
    ascii4, tz4 = _digit_tables()
    high = d // 10**8
    low = (d - high * 10**8).astype(np.int32)
    high = high.astype(np.int32)
    lead = high // 10**8
    high -= lead * 10**8
    groups = (high // 10**4, high % 10**4, low // 10**4, low % 10**4)
    digits = np.empty((17, d.size), dtype=np.uint8)
    digits[0] = lead + ord("0")
    for j, g in enumerate(groups):
        digits[1 + 4 * j:5 + 4 * j] = _chars(ascii4.take(g))
    # trailing zeros: those of the last group, and of each earlier group
    # behind groups that are all zero
    tz = tz4.take(groups[3]).astype(np.int64)
    for j in (2, 1, 0):
        tz += np.where(tz == 4 * (3 - j), tz4.take(groups[j]), 0)
    return digits, 17 - tz


def _scaled(m, e, q):
    """floor(y) and y - floor(y) for y = m * 2^e * 10^q, with m in [0.5, 1).

    m times the (hi, lo) pair of 10^q as a double-double: the product
    m * hi is exact as p + err (Dekker), and m * lo is added to err, so
    y is known to a few units in 2^-104 of itself.
    """
    idx = q - _Q_MIN
    built = _Q_BUILT.take(idx)
    if not built.all():
        for i in set(idx[~built].tolist()):
            _pow10(i)
    hi, hi1, hi2, lo = (row.take(idx) for row in _Q_TABLE)
    p = m * hi
    t = _SPLIT * m
    m1 = t - (t - m)
    m2 = m - m1
    r = ((m1 * hi1 - p) + m1 * hi2 + m2 * hi1) + m2 * hi2 + m * lo
    s = p + r
    r -= s - p
    k = e + _Q_EXP2.take(idx)
    s = np.ldexp(s, k)
    r = np.ldexp(r, k)
    whole = np.floor(r)
    return s.astype(np.int64) + whole.astype(np.int64), r - whole


def _pow10(i):
    """Fill row ``i`` (q = i + _Q_MIN) of the 10^q table, exactly."""
    q = i + _Q_MIN
    num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
    # c = cn / cd = 10^q / 2^exp2 in [1, 2)
    exp2 = num.bit_length() - den.bit_length()
    cn, cd = num << max(-exp2, 0), den << max(exp2, 0)
    if cn < cd:
        exp2 -= 1
        cn, cd = num << max(-exp2, 0), den << max(exp2, 0)
    # int / int rounds correctly; hi has 52 fraction bits
    hi = cn / cd
    t = _SPLIT * hi
    hi1 = t - (t - hi)
    lo = (cn * 2**52 - int(hi * 2**52) * cd) / (cd << 52)
    _Q_TABLE[:, i] = hi, hi1, hi - hi1, lo
    _Q_EXP2[i] = exp2
    _Q_BUILT[i] = True


def bracket_max(fn, lo, hi, best):
    """Largest value of ``fn`` found by shrinking [lo, hi] around its argmax.

    ``fn`` maps an array of points to an array of values.  Each round
    evaluates it once, at ``_BRACKET_KNOTS`` uniform knots of the bracket
    (the ends included), and shrinks the bracket to the two knots beside
    the round's argmax.  The search stops when the argmax is an end of the
    bracket, a point whose value the caller (or the previous round)
    already had, or after ``_BRACKET_ROUNDS`` rounds.  Returns the maximum
    of ``best`` and every value seen, so never less than ``best``.  The
    search is local: callers pass the cell around a grid argmax.
    """
    for _ in range(_BRACKET_ROUNDS):
        xs = np.linspace(lo, hi, _BRACKET_KNOTS)
        vals = fn(xs)
        j = int(np.argmax(vals))
        best = max(best, float(vals[j]))
        if j == 0 or j == _BRACKET_KNOTS - 1:
            break
        lo, hi = xs[j - 1], xs[j + 1]
    return best


@functools.cache
def gauss_legendre(n):
    """The n-point Gauss-Legendre rule on [-1, 1], read-only and cached:
    the ascending nodes, their weights, and P_0 to P_(n-1) at the nodes,
    one row per node, as the last Newton step evaluated them.

    Five Newton steps on P_n from the asymptotic guess
    cos(pi (i + 3/4)/(n + 1/2)) (Hale and Townsend, SIAM J. Sci. Comput.
    35, 2013), with no LAPACK call, whose set-up costs a mebibyte; the
    weights are 2 (1 - x^2)/(n P_(n-1)(x))^2.  The nodes lie within an
    ulp of ``leggauss``'s, and up to n = 64 the rule integrates every
    x^j, j < 2n, to 1e-14 of the integral 2 of 1 (its weights sum to 2
    within 1.8e-14, where ``leggauss`` normalises them).
    """
    x = -np.cos(math.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(5):
        p = legendre.legvander(x, n)
        x -= (1.0 - x * x) * p[:, -1] / (n * (p[:, -2] - x * p[:, -1]))
    rule = x, 2.0 * (1.0 - x * x) / (n * p[:, -2]) ** 2, p[:, :-1].copy()
    for a in rule:
        a.setflags(write=False)
    return rule
