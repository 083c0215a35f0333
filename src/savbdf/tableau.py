"""Backward differentiation formula coefficients for orders 1 through 5.

For a uniform step dt the order-k scheme approximates

    du/dt(t^{n+1})  ~  (alpha_k * u^{n+1} - sum_i a_i * u^{n-i}) / dt

while the explicit extrapolation of a history to t^{n+1} is

    u(t^{n+1})  ~  sum_i b_i * u^{n-i}

with histories ordered most recent first.  The a-weights reproduce the
derivative of any polynomial of degree <= k exactly; the b-weights are the
binomial extrapolation weights, exact on degree <= k-1.

Coefficients are stored as `fractions.Fraction` so they carry no rounding at
all; :attr:`BdfTableau.floats` converts them once per tableau for the time
loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

__all__ = ["BdfTableau", "tableau", "combine_history", "UnsupportedOrderError"]

MAX_ORDER = 5


class UnsupportedOrderError(ValueError):
    """Raised for orders outside 1..5 (BDF6+ is not zero-stable in this family's stability framework)."""


_ALPHA = {
    1: Fraction(1),
    2: Fraction(3, 2),
    3: Fraction(11, 6),
    4: Fraction(25, 12),
    5: Fraction(137, 60),
}

_A_WEIGHTS = {
    1: (Fraction(1),),
    2: (Fraction(2), Fraction(-1, 2)),
    3: (Fraction(3), Fraction(-3, 2), Fraction(1, 3)),
    4: (Fraction(4), Fraction(-3), Fraction(4, 3), Fraction(-1, 4)),
    5: (Fraction(5), Fraction(-5), Fraction(10, 3), Fraction(-5, 4), Fraction(1, 5)),
}

_B_WEIGHTS = {
    1: (Fraction(1),),
    2: (Fraction(2), Fraction(-1)),
    3: (Fraction(3), Fraction(-3), Fraction(1)),
    4: (Fraction(4), Fraction(-6), Fraction(4), Fraction(-1)),
    5: (Fraction(5), Fraction(-10), Fraction(10), Fraction(-5), Fraction(1)),
}


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
        Exponent p in the solution-correction factor eta = 1 - (1 - xi)**p.
        Defaults to 3 for order 1 and order+1 otherwise; overridable for
        experiments.  p = order + 1 is the smallest exponent that keeps
        order-k accuracy (the paper's eta = 1 - (1 - xi)^(k+1)): |1 - xi| is
        O(dt), so each step's correction error is O(dt^p) and their sum
        over a run O(dt^(p-1)).  p = order loses about one order.
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


def tableau(order: int, eta_exponent: int | None = None) -> BdfTableau:
    """Return the order-`order` tableau, optionally overriding the eta exponent."""
    if not isinstance(order, int) or isinstance(order, bool):
        raise UnsupportedOrderError(f"unsupported order {order!r}: must be an integer in 1..{MAX_ORDER}")
    if not 1 <= order <= MAX_ORDER:
        raise UnsupportedOrderError(f"unsupported order {order}: must be in 1..{MAX_ORDER}")
    if eta_exponent is None:
        eta_exponent = 3 if order == 1 else order + 1
    elif eta_exponent < 1:
        raise ValueError(f"eta_exponent must be a positive integer, got {eta_exponent}")
    return BdfTableau(
        order=order,
        alpha=_ALPHA[order],
        a_weights=_A_WEIGHTS[order],
        b_weights=_B_WEIGHTS[order],
        eta_exponent=eta_exponent,
    )


def combine_history(weights, history):
    """Weighted combination  sum_i weights[i] * history[i]  (most recent first).

    Works on anything supporting scalar multiplication and addition (fields,
    ndarrays, plain floats).  Only the leading ``len(weights)`` history
    entries are consumed.
    """
    if len(weights) == 0:
        raise ValueError("combine_history needs at least one weight")
    if len(weights) > len(history):
        raise ValueError(
            f"insufficient history: {len(weights)} weights but only {len(history)} entries"
        )
    acc = float(weights[0]) * history[0]
    for w, h in zip(weights[1:], history[1:]):
        acc = acc + float(w) * h
    return acc
