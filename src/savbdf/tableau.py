"""Backward differentiation formula coefficients for orders 1 through 5.

The order-k scheme is the paper's unified backward-difference form: for a
uniform step dt,

    du/dt(t^{n+1})  ~  sum_{j=1..k} (1/j) * nabla^j u^{n+1} / dt
                    =  (alpha * u^{n+1} - sum_i a_i * u^{n+1-i}) / dt

while the explicit extrapolation of a history to t^{n+1} is

    u(t^{n+1})  ~  sum_{j=0..k-1} nabla^j u^n  =  sum_i b_i * u^{n+1-i}

with i = 1..k, histories ordered most recent first.  Expanding the
differences gives

    alpha = sum_{j=1..k} 1/j
    a_i   = (-1)^(i+1) * sum_{j=i..k} C(j, i) / j
    b_i   = (-1)^(i+1) * C(k, i)

The a-weights reproduce the derivative of any polynomial of degree <= k
exactly; the b-weights are exact on degree <= k-1.

Coefficients are computed as `fractions.Fraction` so they carry no rounding
at all; :attr:`BdfTableau.floats` converts them once per tableau for the time
loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import comb

from .spectral import SettingError, _is_integer

__all__ = ["BdfTableau", "tableau", "combine_history"]

#: BDF6 and higher are not zero-stable in this family's stability framework
MAX_ORDER = 5


@dataclass(frozen=True)
class BdfTableau:
    """Coefficients of one implicit-explicit BDF scheme.

    Immutable value type; safe to share across threads.

    Attributes
    ----------
    order : int
        Scheme order k, 1..5.
    alpha : Fraction
        Leading coefficient of the implicit derivative formula.
    a_weights : tuple[Fraction, ...]
        History weights of the derivative formula, most recent first.
    b_weights : tuple[Fraction, ...]
        Extrapolation weights, most recent first.
    eta_exponent : int
        Exponent p in the solution-correction factor eta = 1 - (1 - xi)**p,
        fixed by the order: 3 for order 1 and order + 1 otherwise.  p = order
        + 1 is the smallest exponent that keeps order-k accuracy (the paper's
        eta = 1 - (1 - xi)^(k+1)): |1 - xi| is O(dt), so each step's
        correction error is O(dt^p) and their sum over a run O(dt^(p-1)).
        p = order loses about one order.
    """

    order: int
    alpha: Fraction
    a_weights: tuple[Fraction, ...]
    b_weights: tuple[Fraction, ...]
    eta_exponent: int

    @cached_property
    def floats(self) -> tuple[float, tuple[float, ...], tuple[float, ...]]:
        """(alpha, a_weights, b_weights) as floats, converted once per tableau."""
        return (float(self.alpha), tuple(float(w) for w in self.a_weights),
                tuple(float(w) for w in self.b_weights))


def tableau(order: int) -> BdfTableau:
    """Return the order-`order` tableau, whose eta exponent follows the order;
    the order may be a numpy integer, held as a plain int.  Each order's
    tableau is built once per process and shared, as it is immutable."""
    if not _is_integer(order) or not 1 <= order <= MAX_ORDER:
        raise SettingError("order", f"unsupported order {order!r}: must be an integer in 1..{MAX_ORDER}")
    return _build_tableau(int(order))


@cache  # keyed by the validated int, as a cache keyed by the argument would take 2.0 for 2
def _build_tableau(order: int) -> BdfTableau:
    terms = range(1, order + 1)
    return BdfTableau(
        order=order,
        alpha=sum(Fraction(1, j) for j in terms),
        a_weights=tuple((-1) ** (i + 1) * sum(Fraction(comb(j, i), j) for j in range(i, order + 1))
                        for i in terms),
        b_weights=tuple((-1) ** (i + 1) * Fraction(comb(order, i)) for i in terms),
        eta_exponent=3 if order == 1 else order + 1,
    )


def combine_history(weights, history):
    """Weighted combination  sum_i weights[i] * history[i]  (most recent first).

    Works on anything supporting scalar multiplication and addition (fields,
    ndarrays, plain floats).  Only the leading ``len(weights)`` history
    entries are consumed.  Every weight multiplies its entry.  The sum
    accumulates in place into the first product (a new object, so no entry
    is written), which saves an array per term on an array history.
    """
    if len(weights) == 0:
        raise SettingError("weights", "combine_history needs at least one weight")
    if len(weights) > len(history):
        raise SettingError(
            "history", f"insufficient history: {len(weights)} weights but only {len(history)} entries"
        )
    acc = float(weights[0]) * history[0]
    for w, h in zip(weights[1:], history[1:]):
        acc += float(w) * h
    return acc
