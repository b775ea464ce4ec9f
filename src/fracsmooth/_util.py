"""Small shared helpers."""
import numpy as np

#: knots per round of ``bracket_max``; the next bracket spans the two knots
#: beside the argmax, 2/16 = 1/8 of the bracket
_BRACKET_KNOTS = 17
#: rounds of ``bracket_max``: the last bracket is (1/8)^5 = 3.1e-5 of the
#: first
_BRACKET_ROUNDS = 5


def fmt17(x):
    """Format a float with 17 significant digits (round-trip safe)."""
    return format(float(x), ".17g")


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
