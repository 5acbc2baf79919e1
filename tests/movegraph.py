"""Test-side references: the move graph of reduced words and the hexagons of
a tiling, as the package carried them before flip paths were built directly
by words.braid_steps.

move_path is a breadth-first search over every reduced word of the rank
(feasible for n <= 5 only); criterion 5 selects its word pairs by the length
of that path, and the flip-path tests compare braid_steps with it.  hexagons
finds the hexagons of a tiling from its tiles alone, and
Hexagon.flipped_tiles is the flip rule that the braid steps must follow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from crystaltiles.tiling import Tile, Tiling, _vertex
from crystaltiles.words import is_reduced_word, rank_of_word

Word = tuple[int, ...]


@dataclass(frozen=True, order=True)
class WordMove:
    """A local rewrite at a 1-based position of a word.

    kind 'commutation' swaps letters at positions (position, position+1);
    kind 'braid' rewrites (a, b, a) -> (b, a, b) at positions
    (position, position+1, position+2).  Both are involutive.
    """

    kind: str
    position: int

    def __post_init__(self):
        if self.kind not in ("commutation", "braid"):
            raise ValueError(f"unknown move kind {self.kind!r}")
        if self.position < 1:
            raise ValueError("positions are 1-based")


def applicable_moves(word: Word) -> tuple[WordMove, ...]:
    """All moves applicable to word, sorted by (position, kind)."""
    moves = []
    for p in range(len(word) - 1):
        if abs(word[p] - word[p + 1]) >= 2:
            moves.append(WordMove("commutation", p + 1))
    for p in range(len(word) - 2):
        if word[p] == word[p + 2] and abs(word[p] - word[p + 1]) == 1:
            moves.append(WordMove("braid", p + 1))
    return tuple(sorted(moves, key=lambda m: (m.position, m.kind)))


def apply_move(word: Word, move: WordMove) -> Word:
    """Apply a commutation or braid move; ValueError if not applicable there.

    >>> apply_move((2, 1, 2), WordMove("braid", 1))
    (1, 2, 1)
    """
    word = tuple(word)
    p = move.position - 1
    if move.kind == "commutation":
        if p + 1 >= len(word) or abs(word[p] - word[p + 1]) < 2:
            raise ValueError(f"no commutation applies at position {move.position}")
        return word[:p] + (word[p + 1], word[p]) + word[p + 2 :]
    if p + 2 >= len(word) or word[p] != word[p + 2] or abs(word[p] - word[p + 1]) != 1:
        raise ValueError(f"no braid move applies at position {move.position}")
    a, b = word[p], word[p + 1]
    return word[:p] + (b, a, b) + word[p + 3 :]


@lru_cache(maxsize=16)
def _move_tree(root: Word) -> dict[Word, tuple[Word, WordMove] | None]:
    """BFS predecessor tree of the move graph rooted at root.

    Neighbours are explored in sorted move order, so shortest paths extracted
    from the tree are deterministic.  A tree holds every word of the rank, so
    only the 16 most recently used trees stay cached.
    """
    tree: dict[Word, tuple[Word, WordMove] | None] = {root: None}
    frontier = [root]
    while frontier:
        nxt = []
        for w in frontier:
            for mv in applicable_moves(w):
                u = apply_move(w, mv)
                if u not in tree:
                    tree[u] = (w, mv)
                    nxt.append(u)
        frontier = nxt
    return tree


def move_path(i: Word, j: Word) -> tuple[WordMove, ...]:
    """A shortest move sequence transforming word i into word j.

    Ties are broken deterministically (breadth-first order with moves sorted
    by position).  ValueError if the words are not reduced words for the same
    longest element.

    >>> move_path((2, 1, 2), (1, 2, 1))
    (WordMove(kind='braid', position=1),)
    """
    i, j = tuple(i), tuple(j)
    n = rank_of_word(i)
    if rank_of_word(j) != n:
        raise ValueError("words have different ranks")
    for w in (i, j):
        if not is_reduced_word(w, n):
            raise ValueError(f"{w} is not a reduced word for w0")
    tree = _move_tree(i)
    if j not in tree:
        raise ValueError("words are not connected by moves")  # unreachable
    path = []
    cur = j
    while tree[cur] is not None:
        prev, mv = tree[cur]
        path.append(mv)
        cur = prev
    return tuple(reversed(path))


@dataclass(frozen=True)
class Hexagon:
    """Three tiles [s,t], [s,u], [t,u] (s < t < u) filling a regular 6-gon.

    left_form means the bases are ([s,t;S], [s,u;S+{t}], [t,u;S]); the flip
    exchanges this with the right form ([s,t;S+{u}], [s,u;S], [t,u;S+{s}]).
    """

    tiles: tuple[Tile, Tile, Tile]
    support: tuple[int, int, int]
    base: tuple[int, ...]
    left_form: bool

    def flipped_tiles(self) -> tuple[Tile, Tile, Tile]:
        s, t, u = self.support
        if self.left_form:
            return (
                Tile((s, t), _vertex(self.base + (u,))),
                Tile((s, u), self.base),
                Tile((t, u), _vertex(self.base + (s,))),
            )
        return (
            Tile((s, t), self.base),
            Tile((s, u), _vertex(self.base + (t,))),
            Tile((t, u), self.base),
        )


def hexagons(tiling: Tiling) -> tuple[Hexagon, ...]:
    """All hexagons of the tiling, sorted by support triple."""
    out = []
    n = tiling.n
    for s in range(1, n + 1):
        for t in range(s + 1, n + 1):
            for u in range(t + 1, n + 1):
                st, su, tu = (
                    tiling.by_pair[(s, t)],
                    tiling.by_pair[(s, u)],
                    tiling.by_pair[(t, u)],
                )
                if st.base == tu.base and su.base == _vertex(st.base + (t,)):
                    out.append(Hexagon((st, su, tu), (s, t, u), st.base, True))
                elif st.base == _vertex(su.base + (u,)) and tu.base == _vertex(
                    su.base + (s,)
                ):
                    out.append(Hexagon((st, su, tu), (s, t, u), su.base, False))
    return tuple(out)
