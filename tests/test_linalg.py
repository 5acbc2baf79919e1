"""The exact integer kernels against sympy, and the dependency they replace.

The tile-vertex maps of a tiling are triangular along its word, so
bz_from_lusztig fills the anchor vertices by one sweep and the potentials
layer inverts chamber_ansatz_dual and neighbour_ansatz by substitution; both
are checked here against sympy's inverses, and so are the flag minors.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
import sympy

import crystaltiles
from crystaltiles.bz import bz_from_lusztig
from crystaltiles.lusztig import LusztigDatum
from crystaltiles.potentials import (
    MonomialMap,
    UnitriangularMatrix,
    _unimodular_inverse,
    chamber_ansatz_dual,
    chamber_minor,
    neighbour_ansatz,
)
from crystaltiles.tiling import build_tiling
from crystaltiles.words import enumerate_reduced_words
from test_paths import weak_order_word


def _tile_system(word):
    """Rows x_T = z_upper + z_lower - z_left - z_right over the unpinned vertices."""
    tiling = build_tiling(word)
    n = tiling.n
    pinned = {tuple(range(k, n + 1)) for k in range(1, n + 2)}  # full, suffixes, empty
    unknowns = sorted(v for v in tiling.vertices if v not in pinned)
    rows = []
    for tile in tiling.tiles:
        row = dict.fromkeys(unknowns, 0)
        for v, c in ((tile.upper, 1), (tile.lower, 1), (tile.left, -1), (tile.right, -1)):
            if v in row:
                row[v] += c
        rows.append([row[v] for v in unknowns])
    return unknowns, rows


def _inverse(rows):
    """The inverse monomial map's rows by substitution."""
    size = len(rows)
    return _unimodular_inverse(MonomialMap(range(size), range(size), rows)).rows


def _assert_inverses_match_sympy(word):
    for mm in (chamber_ansatz_dual(word), neighbour_ansatz(word)):
        assert sympy.Matrix(_unimodular_inverse(mm).rows) == sympy.Matrix(mm.rows).inv(), word


@pytest.mark.parametrize("word", [w for n in (2, 3, 4) for w in enumerate_reduced_words(n)])
def test_kernel_matches_sympy_on_s4_systems(word):
    """Both substitution inverses, and the sweep of bz_from_lusztig on unit
    data, which fills column k of the tile-system inverse, against sympy."""
    _assert_inverses_match_sympy(word)
    unknowns, tiles = _tile_system(word)
    inverse = sympy.Matrix(tiles).inv()
    for k in range(len(word)):
        z = bz_from_lusztig(LusztigDatum(word, [int(j == k) for j in range(len(word))]))
        assert [z.value(v) for v in unknowns] == list(inverse.col(k)), (word, k)


def test_substitution_inverses_match_sympy_on_sampled_words():
    rng = random.Random("linalg:substitution")
    for n, count in ((5, 20), (6, 10), (7, 5)):
        for _ in range(count):
            _assert_inverses_match_sympy(weak_order_word(n, rng))


def _seeded_unitriangular(rng, n):
    """Small entries, a third of them zero, so that many minors vanish."""
    return [
        [
            Fraction(int(r == c))
            if c <= r or rng.random() < 0.34
            else Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            for c in range(n)
        ]
        for r in range(n)
    ]


def test_chamber_minor_matches_sympy():
    """Every flag minor of 305 seeded matrices at n = 2..6 equals sympy's determinant."""
    rng = random.Random("linalg:minor")
    matrices = [
        [[Fraction(int(r == c)) for c in range(n)] for r in range(n)] for n in range(2, 7)
    ]
    matrices += [_seeded_unitriangular(rng, n) for n in range(2, 7) for _ in range(60)]
    vanishing = 0
    for rows in matrices:
        n = len(rows)
        u = UnitriangularMatrix(rows)
        for k in range(n + 1):
            for cols in combinations(range(1, n + 1), k):
                want = sympy.Matrix([[rows[r][c - 1] for c in cols] for r in range(k)]).det()
                got = chamber_minor(u, cols)
                assert got == want, (rows, cols)
                vanishing += got == 0
    assert vanishing > 1000


def test_non_triangular_matrix_rejected():
    """Unimodular, but no row has a single nonzero entry: substitution stops."""
    rows = [[0, 1, 2], [1, 0, 3], [4, -3, 7]]
    assert sympy.Matrix(rows).det() == -1
    with pytest.raises(ValueError, match="no row has a single unsolved entry"):
        _inverse(rows)


def test_pivot_of_two_rejected():
    with pytest.raises(ValueError, match="pivot 2 is not a unit"):
        _inverse([[1, 0], [1, 2]])


@pytest.mark.parametrize(
    "rows, want", [([[1, 2], [2, 4]], 0), ([[2, 0], [0, 1]], 2), ([[1, 3], [1, 1]], -2)]
)
def test_non_unimodular_rejected(rows, want):
    assert sympy.Matrix(rows).det() == want
    with pytest.raises(ValueError):
        _inverse(rows)


def test_non_square_rejected():
    with pytest.raises(ValueError, match="square"):
        _unimodular_inverse(MonomialMap((1, 2), (1,), [[1, 0]]))


def test_cli_import_leaves_sympy_out():
    src = str(Path(crystaltiles.__file__).resolve().parents[1])
    code = "import sys, crystaltiles.cli; print('sympy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "False"
