"""Lusztig data, the one transport layer, and the transition maps.

A Lusztig datum assigns a natural number to every tile of a tiling (every
positive root), stored in the anchor word's root order.  Moving the anchor
from i to j runs a flip rule along the hexagon flips of words.braid_steps,
compiled once into positions in i's root order; commutation moves only
permute coordinates, and the result does not depend on the flip path.  At a
hexagon s < t < u the rules send (a, b, c) = (x_st, x_su, x_tu), over a
semiring (add, mul, div), to

    additive:        (a*b/(a+c), a+c, b*c/(a+c)),
    multiplicative:  ((a*c+b)/c, a*c, b*c/(a*c+b)) in left form, its inverse
                     (a*b/(b+a*c), a*c, (b+a*c)/a) in right form.

Over the rationals these are the geometric lifts of the potentials module.
Over min-plus the additive rule is the transition map (a + b - m, m,
c + b - m) with m = min(a, c), an involution preserving nonnegativity, and
the multiplicative rule carries string data between words.

The module also provides transport-based oracles for the crystal operators:
move to a word where the operator is a one-coordinate base-case rule, apply
it, move back.  These oracles are definitionally faithful and independent of
the crossing machinery, which is validated against them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

from .words import (
    braid_steps,
    compose,
    convex_order,
    longest_element,
    rank_of_word,
    reduced_word_of_permutation,
    root_span,
    star_word,
)

__all__ = [
    "LusztigDatum",
    "transition",
    "word_starting_with",
    "word_ending_with",
    "oracle_op",
    "oracle_star_op",
    "star_datum",
    "weight",
]


@dataclass(frozen=True)
class LusztigDatum:
    """Nonnegative integers on the tiles of T_word, in the word's root order."""

    word: tuple[int, ...]
    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(self.word))
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != len(self.word):
            raise ValueError("need one value per positive root")
        if any(v < 0 for v in self.values):
            raise ValueError("Lusztig data are nonnegative")

    @property
    def n(self) -> int:
        return rank_of_word(self.word)

    def as_dict(self) -> dict[tuple[int, int], int]:
        """Values keyed by root pair (s, t)."""
        return dict(zip(convex_order(self.word), self.values))

    def __repr__(self):
        return f"LusztigDatum({self.word}, {self.values})"


_RATIONALS = (operator.add, operator.mul, operator.truediv)
_MIN_PLUS = (min, operator.add, operator.sub)


def _additive_flip(ring, a, b, c, left_form):
    """The additive lift of one flip; an involution, blind to the form."""
    add, mul, div = ring
    s = add(a, c)
    return div(mul(a, b), s), s, div(mul(b, c), s)


def _multiplicative_flip(ring, a, b, c, left_form):
    """The multiplicative lift of one flip; the right form inverts the left."""
    add, mul, div = ring
    ac = mul(a, c)
    if left_form:
        s = add(ac, b)
        return div(s, c), ac, div(mul(b, c), s)
    s = add(b, ac)
    return div(mul(a, b), s), ac, div(s, a)


@lru_cache(maxsize=1024)
def _flip_program(i: tuple[int, ...], j: tuple[int, ...]) -> tuple:
    """The flips of braid_steps(i, j) as (p, q, r, left_form), with p, q, r
    the positions of ([s,t], [s,u], [t,u]) in i's root order, and the
    position in i's root order of each root of j."""
    index = {root: k for k, root in enumerate(convex_order(i))}
    flips = tuple((*map(index.get, pairs), left) for pairs, left, *_ in braid_steps(i, j))
    return flips, tuple(map(index.get, convex_order(j)))


def _transport(rule, ring, i, j, values) -> list:
    """Carry values from the root order of word i to word j's, by rule over ring."""
    if i == j:
        return list(values)
    flips, order = _flip_program(i, j)
    vals = list(values)
    for p, q, r, left_form in flips:
        vals[p], vals[q], vals[r] = rule(ring, vals[p], vals[q], vals[r], left_form)
    return [vals[k] for k in order]


def transition(x: LusztigDatum, j) -> LusztigDatum:
    """Re-anchor the datum x to the word j: the additive rule over min-plus.

    >>> x = LusztigDatum((2, 1, 2), (3, 1, 2))
    >>> transition(x, (1, 2, 1)).values
    (1, 2, 2)
    """
    j = tuple(j)
    return LusztigDatum(j, _transport(_additive_flip, _MIN_PLUS, x.word, j, x.values))


@lru_cache(maxsize=None)
def word_starting_with(a: int, n: int) -> tuple[int, ...]:
    """A canonical reduced word for w0 beginning with the letter a.

    The cache holds n - 1 words per rank n, so it stays unbounded.
    """
    w0 = longest_element(n)
    s_a = tuple(a + 1 if b == a else a if b == a + 1 else b for b in range(1, n + 1))
    return (a,) + reduced_word_of_permutation(compose(s_a, w0))


@lru_cache(maxsize=None)
def word_ending_with(a: int, n: int) -> tuple[int, ...]:
    """A canonical reduced word for w0 ending with the letter a.

    The cache holds n - 1 words per rank n, so it stays unbounded.
    """
    w0 = longest_element(n)
    lst = list(w0)
    lst[a - 1], lst[a] = lst[a], lst[a - 1]
    return reduced_word_of_permutation(tuple(lst)) + (a,)


def _transported_op(kind: str, a: int, x: LusztigDatum, star: bool):
    """Apply the base-case rule to x moved to a word starting with a (ending
    with n - a when star), where the root [a, a+1] sits at position 0 (N - 1),
    and move a resulting datum back."""
    n = x.n
    if not 1 <= a <= n - 1:
        raise ValueError(f"a must lie in [n-1] = [{n - 1}]")
    if kind not in ("f", "e", "eps"):
        raise ValueError(f"unknown operator kind {kind!r}")
    j = word_ending_with(n - a, n) if star else word_starting_with(a, n)
    k = -1 if star else 0
    vals = _transport(_additive_flip, _MIN_PLUS, x.word, j, x.values)
    if kind == "eps":
        return vals[k]
    if kind == "e" and vals[k] == 0:
        return None
    vals[k] += 1 if kind == "f" else -1
    return LusztigDatum(x.word, _transport(_additive_flip, _MIN_PLUS, j, x.word, vals))


def oracle_op(kind: str, a: int, x: LusztigDatum):
    """Crystal operator via transport to a word starting with a.

    kind "f" adds 1 at the tile [a,a+1] of the transported datum, "e"
    subtracts 1 (None when the coordinate is 0, i.e. eps_a(x) = 0), "eps"
    reads the coordinate.  The result is transported back to x's word.

    >>> oracle_op("f", 1, LusztigDatum((1, 2, 1), (0, 0, 0))).values
    (1, 0, 0)
    >>> oracle_op("eps", 1, LusztigDatum((2, 1, 2), (3, 1, 2)))
    1
    """
    return _transported_op(kind, a, x, star=False)


def oracle_star_op(kind: str, a: int, x: LusztigDatum):
    """Starred crystal operator via transport to a word ending with n - a.

    The Kashiwara involution transfers values along equal pairs to the
    reversed-complemented word i* = (n-i_N, ..., n-i_1), where the starred
    operators become the plain ones; i* starts with a exactly when i ends
    with n - a, and there the rule is again the one-coordinate change at
    [a, a+1].

    >>> oracle_star_op("f", 2, LusztigDatum((1, 2, 1), (0, 0, 0))).values
    (0, 0, 1)
    >>> oracle_star_op("f", 1, LusztigDatum((1, 2, 1), (0, 0, 1))).values
    (0, 1, 0)
    """
    return _transported_op(kind, a, x, star=True)


def star_datum(x: LusztigDatum) -> LusztigDatum:
    """The Kashiwara involution: transfer values by pair to the star word.

    Involutive together with transition: star_datum(star_datum(x)) comes back
    to x after re-anchoring.  The crossing formula does not go through it:
    the starred operators read the dual tables of x's own tiling, whose
    crossings descend kappa_a (crossings._crossings; the opposite-order rule
    is checked in tests/test_tiling.py), and tests/test_crossings.py checks
    them against the primal formula moved here and back.
    """
    j = star_word(x.word)
    values = x.as_dict()
    return LusztigDatum(j, tuple(values[root] for root in convex_order(j)))


def weight(x: LusztigDatum) -> tuple[int, ...]:
    """Coefficients over the simple roots of sum_T x_T root(T).

    Grows by alpha_a under f_a; used to bucket crystal elements.
    """
    n = x.n
    out = [0] * (n - 1)
    for pair, v in zip(convex_order(x.word), x.values):
        for b in root_span(pair):
            out[b - 1] += v
    return tuple(out)
