"""The exact integer-matrix kernels against sympy, and the dependency they replace."""

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
from crystaltiles.bz import _vertex_solver
from crystaltiles.linalg import unimodular_inverse
from crystaltiles.potentials import (
    UnitriangularMatrix,
    chamber_ansatz_dual,
    chamber_minor,
    neighbour_ansatz,
)
from crystaltiles.tiling import build_tiling
from crystaltiles.words import enumerate_reduced_words


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


@pytest.mark.parametrize("word", enumerate_reduced_words(4))
def test_kernel_matches_sympy_on_s4_systems(word):
    unknowns, tiles = _tile_system(word)
    chamber = [list(r) for r in chamber_ansatz_dual(word).rows]
    neighbour = [list(r) for r in neighbour_ansatz(word).rows]
    for rows in (tiles, chamber, neighbour):
        m = sympy.Matrix(rows)
        assert sympy.Matrix(unimodular_inverse(rows)) == m.inv()
    solved_unknowns, inverse = _vertex_solver(word)
    assert list(solved_unknowns) == unknowns
    assert sympy.Matrix(inverse) == sympy.Matrix(tiles).inv()


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


def test_zero_pivot_needs_a_row_swap():
    rows = [[0, 1, 2], [1, 0, 3], [4, -3, 7]]
    assert sympy.Matrix(rows).det() == -1
    assert sympy.Matrix(unimodular_inverse(rows)) == sympy.Matrix(rows).inv()


@pytest.mark.parametrize(
    "rows, want", [([[1, 2], [2, 4]], 0), ([[2, 0], [0, 1]], 2), ([[1, 3], [1, 1]], -2)]
)
def test_non_unimodular_rejected(rows, want):
    with pytest.raises(ValueError, match=rf"\(det {want}\)"):
        unimodular_inverse(rows)


def test_non_square_rejected():
    with pytest.raises(ValueError):
        unimodular_inverse([[1, 2]])


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
