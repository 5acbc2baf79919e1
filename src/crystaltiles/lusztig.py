"""Lusztig data and the piecewise-linear transition maps between words.

A Lusztig datum assigns a natural number to every tile of a tiling (every
positive root).  Coordinates are stored in the anchor word's order; moving
the anchor is the piecewise-linear transition map: commutation moves only
permute coordinates, a braid move at a hexagon with support s < t < u maps

    y_[s,t] = x_[s,t] + x_[s,u] - m,   y_[s,u] = m,
    y_[t,u] = x_[t,u] + x_[s,u] - m,   m = min(x_[s,t], x_[t,u]),

an involution preserving nonnegativity.

The module also provides transport-based oracles for the crystal operators:
move to a word where the operator is a one-coordinate base-case rule, apply
it, move back.  These oracles are definitionally faithful and independent of
the crossing machinery, which is validated against them.
"""

from __future__ import annotations

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

    def value(self, pair: tuple[int, int]) -> int:
        return self.as_dict()[tuple(sorted(pair))]

    @classmethod
    def from_dict(cls, word, values: dict) -> "LusztigDatum":
        word = tuple(word)
        vals = {tuple(sorted(k)): v for k, v in values.items()}
        return cls(word, tuple(vals[p] for p in convex_order(word)))

    def replace(self, pair: tuple[int, int], value: int) -> "LusztigDatum":
        k = convex_order(self.word).index(tuple(sorted(pair)))
        vals = list(self.values)
        vals[k] = value
        return LusztigDatum(self.word, tuple(vals))

    def __repr__(self):
        return f"LusztigDatum({self.word}, {self.values})"


@lru_cache(maxsize=None)
def _transition_program(i: tuple[int, ...], j: tuple[int, ...]) -> tuple:
    """The ([s,t], [s,u], [t,u]) pair triples of the flips along i -> j.

    Only the triples are cached: keeping the full braid_steps records, with
    their words and vertices, raises the peak memory of a sweep over all S5
    words by about 11%.
    """
    return tuple(pairs for pairs, *_ in braid_steps(i, j))


def transition(x: LusztigDatum, j) -> LusztigDatum:
    """Re-anchor the datum x to the word j along a move path.

    >>> x = LusztigDatum((2, 1, 2), (3, 1, 2))
    >>> transition(x, (1, 2, 1)).values
    (1, 2, 2)
    """
    j = tuple(j)
    if j == x.word:
        return x
    vals = x.as_dict()
    for st, su, tu in _transition_program(x.word, j):
        a, b, c = vals[st], vals[su], vals[tu]
        m = min(a, c)
        vals[st], vals[su], vals[tu] = a + b - m, m, c + b - m
    return LusztigDatum(j, tuple(vals[p] for p in convex_order(j)))


@lru_cache(maxsize=None)
def word_starting_with(a: int, n: int) -> tuple[int, ...]:
    """A canonical reduced word for w0 beginning with the letter a."""
    w0 = longest_element(n)
    s_a = tuple(a + 1 if b == a else a if b == a + 1 else b for b in range(1, n + 1))
    return (a,) + reduced_word_of_permutation(compose(s_a, w0))


@lru_cache(maxsize=None)
def word_ending_with(a: int, n: int) -> tuple[int, ...]:
    """A canonical reduced word for w0 ending with the letter a."""
    w0 = longest_element(n)
    lst = list(w0)
    lst[a - 1], lst[a] = lst[a], lst[a - 1]
    return reduced_word_of_permutation(tuple(lst)) + (a,)


def _base_case(kind: str, a: int, y: LusztigDatum):
    """Apply the one-coordinate rule at the tile [a, a+1]."""
    v = y.value((a, a + 1))
    if kind == "f":
        return y.replace((a, a + 1), v + 1)
    if kind == "e":
        return y.replace((a, a + 1), v - 1) if v > 0 else None
    if kind == "eps":
        return v
    raise ValueError(f"unknown operator kind {kind!r}")


def _transported_op(kind: str, a: int, x: LusztigDatum, target, letter: int):
    """Apply the base-case rule at [a, a+1] to x moved to target(letter, n),
    and move a resulting datum back to x's word."""
    n = x.n
    if not 1 <= a <= n - 1:
        raise ValueError(f"a must lie in [n-1] = [{n - 1}]")
    res = _base_case(kind, a, transition(x, target(letter, n)))
    return transition(res, x.word) if isinstance(res, LusztigDatum) else res


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
    return _transported_op(kind, a, x, word_starting_with, a)


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
    return _transported_op(kind, a, x, word_ending_with, x.n - a)


def star_datum(x: LusztigDatum) -> LusztigDatum:
    """The Kashiwara involution: transfer values by pair to the star word.

    Involutive together with transition: star_datum(star_datum(x)) comes back
    to x after re-anchoring.
    """
    j = star_word(x.word)
    vals = x.as_dict()
    return LusztigDatum(j, tuple(vals[p] for p in convex_order(j)))


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
