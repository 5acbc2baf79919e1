"""Reduced words for the longest permutation and the hexagon flips joining them.

Permutations of [n] = {1, ..., n} are stored in one-line notation as tuples
``(w(1), ..., w(n))``.  A word ``(i_1, ..., i_k)`` denotes the product
``s_{i_1} s_{i_2} ... s_{i_k}`` of simple transpositions, applied right to
left: the letter ``i_k`` acts first.

The longest element w0 (the order-reversing permutation) has length
N = n(n-1)/2, and every word for w0 of length N is automatically reduced.
Any two reduced words for w0 are connected by commutation moves
(swap adjacent letters a, b with |a-b| >= 2) and braid moves
(replace a, b, a by b, a, b for |a-b| = 1).

braid_steps is the one place flip paths are built: every transition map,
lift and mutation walks its hexagon flips, one per triple s < t < u whose
roots (s,t), (t,u) come in opposite orders in the two words, at most
C(n, 3) flips, with no search over the words of the rank.  expose_hexagon
brings a hexagon's three letters together by commutation moves for it.
"""

from __future__ import annotations

import math
from functools import lru_cache

__all__ = [
    "MAX_ENUM_RANK",
    "MAX_ENUM_WORDS",
    "identity",
    "longest_element",
    "compose",
    "inverse",
    "permutation_of_word",
    "reduced_word_of_permutation",
    "rank_of_word",
    "is_reduced_word",
    "enumerate_reduced_words",
    "count_reduced_words",
    "too_many_words",
    "expose_hexagon",
    "braid_steps",
    "prefix_permutations",
    "convex_order",
    "star_word",
    "cartan_pairing",
    "root_span",
]

# Resource guards: crossings and BZ subset tables up to rank 7, word lists up
# to 10**6 words (n = 6 has 292864 reduced words, n = 7 has 1.1e9).
MAX_ENUM_RANK = 7
MAX_ENUM_WORDS = 10**6

Permutation = tuple[int, ...]
Word = tuple[int, ...]


def identity(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def longest_element(n: int) -> Permutation:
    """The order-reversing permutation w0, mapping a to n + 1 - a."""
    return tuple(range(n, 0, -1))


def compose(u: Permutation, v: Permutation) -> Permutation:
    """(u o v)(a) = u(v(a))."""
    return tuple(u[b - 1] for b in v)


def inverse(w: Permutation) -> Permutation:
    out = [0] * len(w)
    for a, b in enumerate(w, start=1):
        out[b - 1] = a
    return tuple(out)


def _right_multiply(w: Permutation, a: int) -> Permutation:
    """w o s_a: swaps the entries at positions a, a+1 of one-line notation."""
    if not 1 <= a <= len(w) - 1:
        raise ValueError(f"letter {a} outside [{len(w) - 1}]")
    lst = list(w)
    lst[a - 1], lst[a] = lst[a], lst[a - 1]
    return tuple(lst)


def permutation_of_word(word: Word, n: int) -> Permutation:
    """Evaluate s_{i_1} ... s_{i_k} as a permutation of [n].

    >>> permutation_of_word((1, 2, 1), 3)
    (3, 2, 1)
    """
    w = identity(n)
    for a in word:
        w = _right_multiply(w, a)
    return w


def reduced_word_of_permutation(w: Permutation) -> Word:
    """Some reduced word for w (lexicographically smallest factor choices).

    Peels descents on the right: if w(a) > w(a+1) then w s_a is shorter.

    >>> reduced_word_of_permutation((3, 2, 1))
    (1, 2, 1)
    """
    n = len(w)
    suffix = []
    cur = w
    while True:
        a = next((a for a in range(1, n) if cur[a - 1] > cur[a]), None)
        if a is None:
            break
        suffix.append(a)
        cur = _right_multiply(cur, a)
    return tuple(reversed(suffix))


def length(w: Permutation) -> int:
    """Coxeter length: the number of inversions of w."""
    n = len(w)
    return sum(1 for a in range(n) for b in range(a + 1, n) if w[a] > w[b])


def num_positive_roots(n: int) -> int:
    return n * (n - 1) // 2


def rank_of_word(word: Word) -> int:
    """Recover n from the length N = n(n-1)/2 of a reduced word for w0."""
    big_n = len(word)
    n = (1 + math.isqrt(1 + 8 * big_n)) // 2
    if num_positive_roots(n) != big_n:
        raise ValueError(f"word length {big_n} is not n(n-1)/2 for any n")
    return n


def is_reduced_word(word, n: int) -> bool:
    """True iff word is a reduced word for the longest element of S_n.

    A word of length n(n-1)/2 with product w0 is automatically reduced, so no
    length-descent bookkeeping is needed.  Letters outside [n-1] are malformed
    input and raise ValueError.

    >>> is_reduced_word((1, 2, 1), 3)
    True
    >>> is_reduced_word((1, 2, 2), 3)
    False
    """
    word = tuple(word)
    if len(word) != num_positive_roots(n):
        for a in word:
            if not (isinstance(a, int) and 1 <= a <= n - 1):
                raise ValueError(f"letter {a!r} outside [{n - 1}]")
        return False
    return permutation_of_word(word, n) == longest_element(n)


@lru_cache(maxsize=None)
def enumerate_reduced_words(n: int) -> tuple[Word, ...]:
    """All reduced words for w0 in S_n, sorted lexicographically.

    A reduced word for w0 is a maximal chain e < w_1 < ... < w0 of the right
    weak order: each letter a is an ascent w(a) < w(a+1) of the prefix
    permutation w.  The depth-first walk tries the ascents in increasing
    order, so it lists the words lexicographically.  Refuses ranks with
    more than MAX_ENUM_WORDS words.  The cache is keyed by n alone, so it
    stays unbounded: it holds one list per rank asked for.
    """
    if n < 2:
        raise ValueError("rank must be at least 2")
    if too_many_words(n):
        raise ValueError(
            f"enumerating reduced words for n = {n} exceeds the resource guard"
            f" (MAX_ENUM_WORDS = {MAX_ENUM_WORDS})"
        )
    top = longest_element(n)
    out = []

    def extend(w: Permutation, word: Word) -> None:
        if w == top:
            out.append(word)
            return
        for a in range(1, n):
            if w[a - 1] < w[a]:
                extend(_right_multiply(w, a), word + (a,))

    extend(identity(n), ())
    return tuple(out)


def count_reduced_words(n: int) -> int:
    """Number of reduced words for w0 via the staircase hook length formula:
    N! divided by 1^(n-1) 3^(n-2) 5^(n-3) ... (2n-3)^1.
    """
    big_n = num_positive_roots(n)
    denom = 1
    for k in range(1, n):
        denom *= (2 * k - 1) ** (n - k)
    return math.factorial(big_n) // denom


def too_many_words(n: int, limit: int = MAX_ENUM_WORDS) -> bool:
    """count_reduced_words(n) > limit.  The count grows with n, so ranks are
    tried upwards and no count past the first one over the limit is computed."""
    return any(count_reduced_words(k) > limit for k in range(2, n + 1))


def expose_hexagon(word: Word, first: int, mid: int, last: int) -> tuple[Word, int] | None:
    """Bring the letters at 0-based positions first < mid < last together.

    Letters at distance >= 2 commute, so within the stretch word[first..last]
    the letters not above word[first] in the heap order move in front of it
    and the letters not below word[last] move behind it.  This is possible
    iff mid is the only heap element strictly between first and last; then
    the returned pair is the moved word, reached from word by commutation
    moves alone, and the 0-based position of the three now-consecutive
    letters.  Otherwise the result is None.

    >>> expose_hexagon((1, 2, 3, 1), 0, 1, 3)
    ((1, 2, 1, 3), 0)
    >>> expose_hexagon((1, 2, 3, 2, 1), 0, 1, 4) is None
    True
    """
    above, below = {first}, {last}
    reach = {word[first] - 1, word[first], word[first] + 1}
    for k in range(first + 1, last):
        if word[k] in reach:
            above.add(k)
            reach.update((word[k] - 1, word[k] + 1))
    reach = {word[last] - 1, word[last], word[last] + 1}
    for k in range(last - 1, first, -1):
        if word[k] in reach:
            below.add(k)
            reach.update((word[k] - 1, word[k] + 1))
    inside = range(first + 1, last)
    if [k for k in inside if k in above and k in below] != [mid]:
        return None
    front = [k for k in inside if k not in above]
    back = [k for k in inside if k in above and k not in below]
    window = tuple(word[k] for k in front + [first, mid, last] + back)
    return word[:first] + window + word[last + 1 :], first + len(front)


def _triple_orientations(order, n: int) -> dict[tuple[int, int, int], bool]:
    """For each triple s < t < u: does the root (s,t) precede (t,u) in order?

    These orientations (the inversion set in the higher Bruhat order B(n,2))
    determine the commutation class of a reduced word, that is its tiling.
    """
    index = {root: k for k, root in enumerate(order)}
    return {
        (s, t, u): index[(s, t)] < index[(t, u)]
        for s in range(1, n + 1)
        for t in range(s + 1, n + 1)
        for u in range(t + 1, n + 1)
    }


def braid_steps(i: Word, j: Word) -> tuple:
    """A shortest sequence of hexagon flips from the tiling of i to that of j.

    Each entry is (pairs, left_form, inner, ninner, before, after): the pair
    triple ([s,t], [s,u], [t,u]) of the hexagon with s < t < u, whether the
    hexagon has left form before the flip, its interior vertex before and
    after the flip, and the words before and after the braid move.  The
    first before is commutation-equivalent to i, each before to the previous
    after, and the last after to j; commutation moves change no tile.

    The path is built directly.  A flip at (s, t, u) reverses the order of
    the roots (s,t) and (t,u) and no other triple's, so the triples whose
    orientation differs between i and j (the set D) must each flip once.
    While D is not empty, the first triple of D whose three roots form a
    hexagon of the current word's heap is brought together by
    expose_hexagon and braided.  The path has exactly |D| <= C(n, 3) flips;
    AssertionError if no triple of D forms a hexagon.

    With w the prefix permutation in front of the braid (a, b, a), the
    hexagon has left form iff a < b, and its interior vertex is w s_a([a])
    before and w s_b([b]) after.

    >>> braid_steps((2, 1, 2), (1, 2, 1))
    ((((1, 2), (1, 3), (2, 3)), False, (1, 3), (2,), (2, 1, 2), (1, 2, 1)),)
    """
    i, j = tuple(i), tuple(j)
    n = rank_of_word(i)
    if rank_of_word(j) != n:
        raise ValueError("words have different ranks")
    target = _triple_orientations(convex_order(j), n)
    todo = [
        triple
        for triple, ahead in _triple_orientations(convex_order(i), n).items()
        if ahead != target[triple]
    ]
    steps = []
    cur = i
    while todo:
        index = {root: k for k, root in enumerate(_roots(cur, n))}
        for triple in todo:
            s, t, u = triple
            exposed = expose_hexagon(
                cur, *sorted((index[(s, t)], index[(s, u)], index[(t, u)]))
            )
            if exposed is not None:
                break
        else:
            raise AssertionError(f"no hexagon of {cur} flips a triple toward {j}")
        todo.remove(triple)
        before, p = exposed
        a, b = before[p], before[p + 1]
        after = before[:p] + (b, a, b) + before[p + 3 :]
        w = permutation_of_word(before[:p], n)
        inner = tuple(sorted(_right_multiply(w, a)[:a]))
        ninner = tuple(sorted(_right_multiply(w, b)[:b]))
        steps.append((((s, t), (s, u), (t, u)), a < b, inner, ninner, before, after))
        cur = after
    return tuple(steps)


def prefix_permutations(word: Word, n: int) -> tuple[Permutation, ...]:
    """(w_0 = e, w_1, ..., w_k) with w_m = s_{i_1} ... s_{i_m}."""
    out = [identity(n)]
    for a in word:
        out.append(_right_multiply(out[-1], a))
    return tuple(out)


def convex_order(word: Word) -> tuple[tuple[int, int], ...]:
    """The total order on positive roots induced by a reduced word for w0.

    The k-th root is the transposition pair {w_{k-1}(i_k), w_{k-1}(i_k + 1)},
    returned as a sorted pair.  Every positive root occurs exactly once.

    >>> convex_order((1, 2, 1))
    ((1, 2), (1, 3), (2, 3))
    >>> convex_order((2, 1, 2))
    ((2, 3), (1, 3), (1, 2))
    """
    return _convex_order(tuple(word))


@lru_cache(maxsize=1024)
def _convex_order(word: Word) -> tuple[tuple[int, int], ...]:
    roots = _roots(word, rank_of_word(word))
    if len(set(roots)) != len(word):
        raise ValueError(f"{word} is not a reduced word for w0")
    return roots


def _roots(word: Word, n: int) -> tuple[tuple[int, int], ...]:
    """The roots of word in order, uncached, so that the intermediate words
    of a flip path leave the convex_order cache alone."""
    w = list(identity(n))
    roots = []
    for a in word:
        if not 1 <= a <= n - 1:
            raise ValueError(f"letter {a} outside [{n - 1}]")
        s, t = w[a - 1], w[a]
        roots.append((s, t) if s < t else (t, s))
        w[a - 1], w[a] = t, s
    return tuple(roots)


def star_word(word: Word) -> Word:
    """The reversed-complemented word (n - i_N, ..., n - i_1).

    Conjugation by w0 sends s_a to s_{n-a}, so this is again a reduced word
    for w0; it carries the Kashiwara involution on Lusztig data.

    >>> star_word((1, 2, 1))
    (2, 1, 2)
    """
    n = rank_of_word(word)
    return tuple(n - a for a in reversed(word))


def cartan_pairing(a: int, b: int) -> int:
    """<h_a, alpha_b> for the type A Cartan matrix: 2, -1 or 0."""
    if a == b:
        return 2
    return -1 if abs(a - b) == 1 else 0


def root_span(pair: tuple[int, int]) -> tuple[int, ...]:
    """Simple-root support of the positive root (s, t): indices s, ..., t-1."""
    s, t = pair
    return tuple(range(s, t))
