"""The exact integer-matrix kernel against sympy, and the dependency it replaces."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

import crystaltiles
from crystaltiles.bz import _vertex_solver
from crystaltiles.linalg import det, unimodular_inverse
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
        assert det(rows) == m.det()
        assert sympy.Matrix(unimodular_inverse(rows)) == m.inv()
    solved_unknowns, inverse = _vertex_solver(word)
    assert list(solved_unknowns) == unknowns
    assert sympy.Matrix(inverse) == sympy.Matrix(tiles).inv()


def test_chamber_minor_matches_sympy():
    rng = random.Random("linalg:minor")
    for n in (3, 4, 5):
        for _ in range(10):
            rows = [
                [
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if c > r else Fraction(r == c)
                    for c in range(n)
                ]
                for r in range(n)
            ]
            cols = sorted(rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
            block = [[rows[r][c - 1] for c in cols] for r in range(len(cols))]
            assert chamber_minor(UnitriangularMatrix(rows), cols) == sympy.Matrix(block).det()


def test_zero_pivot_needs_a_row_swap():
    rows = [[0, 1, 2], [1, 0, 3], [4, -3, 7]]
    assert det(rows) == sympy.Matrix(rows).det() == -1
    assert sympy.Matrix(unimodular_inverse(rows)) == sympy.Matrix(rows).inv()


@pytest.mark.parametrize(
    "rows, want", [([[1, 2], [2, 4]], 0), ([[2, 0], [0, 1]], 2), ([[1, 3], [1, 1]], -2)]
)
def test_non_unimodular_rejected(rows, want):
    assert det(rows) == want
    with pytest.raises(ValueError):
        unimodular_inverse(rows)


def test_non_square_rejected():
    with pytest.raises(ValueError):
        det([[1, 2]])


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
