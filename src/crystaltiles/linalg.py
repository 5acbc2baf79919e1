"""Exact inverses of unimodular integer matrices.

One fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968)
runs on [M | I] over Python integers.  Every division in it is exact; at the
end the left block is d * I and the right block d * M^-1, where det M = +-d
by the parity of the row swaps.
"""

from operator import index

__all__ = ["unimodular_inverse"]


def _eliminate(rows) -> tuple[int, int, list[list[int]]]:
    """(sign, d, d * M^-1) with det M = sign * d; (1, 0, []) if M is singular."""
    k = len(rows)
    if any(len(r) != k for r in rows):
        raise ValueError("matrix must be square")
    aug = [[index(e) for e in r] + [int(i == j) for j in range(k)] for i, r in enumerate(rows)]
    sign, prev = 1, 1
    for c in range(k):
        pivot = next((r for r in range(c, k) if aug[r][c]), None)
        if pivot is None:
            return 1, 0, []
        if pivot != c:
            aug[c], aug[pivot] = aug[pivot], aug[c]
            sign = -sign
        p, prow = aug[c][c], aug[c]
        for i in range(k):
            if i != c:
                f = aug[i][c]
                aug[i] = [(p * x - f * y) // prev for x, y in zip(aug[i], prow)]
        prev = p
    return sign, prev, [r[k:] for r in aug]


def unimodular_inverse(rows) -> tuple[tuple[int, ...], ...]:
    """Integer inverse of a square integer matrix; ValueError unless det is +-1."""
    sign, d, scaled = _eliminate(rows)
    if d not in (1, -1):
        raise ValueError(f"matrix is not unimodular (det {sign * d})")
    return tuple(tuple(d * x for x in r) for r in scaled)
