"""Acceptance gate: eight exact checks, one test per criterion.

Every comparison is exact integer or exact rational arithmetic; there are no
tolerances anywhere.  Each test prints a single summary line on success, so
a verbose run shows one pass/fail line per criterion.
"""

import random
import time
from fractions import Fraction
from itertools import product

import sympy

from conftest import RUNNING_KAPPA_3, RUNNING_KAPPA_5, weyl_dim_oracle
from crystaltiles.bz import bz_crystal_f, bz_from_lusztig
from crystaltiles.crossings import (
    crystal_op,
    dual_crystal_op,
    generate_hw_crystal,
    reineke_vectors,
)
from crystaltiles.lusztig import LusztigDatum, oracle_op, oracle_star_op
from crystaltiles.potentials import (
    UnitriangularMatrix,
    bk_value,
    chamber_ansatz_dual,
    chamber_minor,
    cone_correspondence_check,
    ghkk_restriction,
    neighbour_ansatz,
    reineke_poly,
    transform_check_rtrans,
)
from crystaltiles.strings import polar_duality_check, string_cone, string_datum
from crystaltiles.tiling import build_tiling, kappa_partition
from crystaltiles.verify import lattice_failures, reselection_failures
from crystaltiles.words import braid_steps, convex_order, enumerate_reduced_words
from movegraph import move_path

KINDS = ("f", "e", "eps")


def test_criterion_1_crossing_formula_matches_oracle():
    start = time.time()
    cases = 0
    for n in (3, 4):
        big = n * (n - 1) // 2
        for word in enumerate_reduced_words(n):
            for vals in product(range(4), repeat=big):
                x = LusztigDatum(word, vals)
                for a in range(1, n):
                    for kind in KINDS:
                        assert crystal_op(kind, a, x) == oracle_op(kind, a, x)
                        assert dual_crystal_op(kind, a, x) == oracle_star_op(kind, a, x)
                        cases += 2
    rng = random.Random("acceptance:1")
    words5 = sorted(rng.sample(enumerate_reduced_words(5), 50))
    for word in words5:
        for _ in range(1000):
            x = LusztigDatum(word, tuple(rng.randint(0, 3) for _ in range(10)))
            for a in range(1, 5):
                for kind in KINDS:
                    assert crystal_op(kind, a, x) == oracle_op(kind, a, x)
                    assert dual_crystal_op(kind, a, x) == oracle_star_op(kind, a, x)
                    cases += 2
    elapsed = time.time() - start
    assert elapsed < 600
    print(f"criterion 1 PASS: {cases} operator comparisons agree ({elapsed:.0f}s)")


def test_criterion_2_worked_examples_replicate(running_tiling):
    tiling = build_tiling((2, 1, 2))
    vectors = set()
    for a in (1, 2):
        vectors |= reineke_vectors(tiling, a, dual=True)
    assert vectors == {(1, 0, 0), (0, 1, -1), (0, 0, 1)}

    cone = string_cone((2, 1, 2))
    assert cone.coords == ((2, 3), (1, 3), (1, 2))
    assert set(cone.inequalities()) == {
        "v[2,3] >= 0",
        "v[1,3] - v[1,2] >= 0",
        "v[1,2] >= 0",
    }

    for s, want in ((5, RUNNING_KAPPA_5), (3, RUNNING_KAPPA_3)):
        got = {t.pair: k for t, k in kappa_partition(running_tiling, s).items()}
        assert got == want

    word = (1, 2, 1)
    triple = [
        string_datum(LusztigDatum(word, vals)).values
        for vals in ((0, 0, 1), (0, 1, 0), (1, 1, 0))
    ]
    assert triple == [(0, 1, 0), (0, 1, 1), (1, 1, 1)]

    ((pairs, *_),) = braid_steps((1, 2, 3, 1, 2, 1), (1, 2, 3, 2, 1, 2))
    assert pairs == ((2, 3), (2, 4), (3, 4))
    print("criterion 2 PASS: all five worked examples replicate exactly")


def test_criterion_3_polar_duality_desk_scale():
    cases = 0
    for n, box in ((3, 4), (4, 3)):
        for word in enumerate_reduced_words(n):
            rep = polar_duality_check(word, box=box)
            assert rep["ok"], (word, rep["failures"][:3])
            assert rep["reached"] == rep["cone_points"]
            cases += rep["reached"]
    print(f"criterion 3 PASS: cone lattice points = reachable string data ({cases} points)")


def test_criterion_4_subset_operator_commutes():
    cases = 0
    for n in (2, 3, 4):
        big = n * (n - 1) // 2
        for word in enumerate_reduced_words(n):
            for vals in product(range(3), repeat=big):
                x = LusztigDatum(word, vals)
                z = bz_from_lusztig(x)
                for a in range(1, n):
                    direct = bz_from_lusztig(crystal_op("f", a, x))
                    routed = bz_crystal_f(a, z)
                    assert direct == routed
                    for s, v in z.items:
                        assert v - routed.value(s) in (0, 1)
                    cases += 1
    print(f"criterion 4 PASS: subset-side operator commutes on {cases} cases")


def test_criterion_5_lift_identities():
    pairs = 0
    for n in (3, 4):
        words = enumerate_reduced_words(n)
        for i in words:
            for j in words:
                if len(move_path(i, j)) > 3:
                    continue
                rng = random.Random(f"acceptance:5:{i}:{j}")
                pts = [
                    {
                        p: Fraction(rng.randint(1, 9), rng.randint(1, 9))
                        for p in convex_order(i)
                    }
                    for _ in range(100)
                ]
                for a in range(1, n):
                    rep = transform_check_rtrans(a, i, j, pts)
                    assert rep["ok"], (i, j, a, rep["failures"][:2])
                pairs += 1
    print(f"criterion 5 PASS: both lift identities hold on {pairs} word pairs x 100 points")


def test_criterion_6_potential_restriction_and_cones():
    checked = 0
    words = [(3, w) for w in enumerate_reduced_words(3)]
    words += [(4, w) for w in enumerate_reduced_words(4)]
    rng = random.Random("acceptance:6")
    words += [(5, w) for w in sorted(rng.sample(enumerate_reduced_words(5), 4))]
    for n, word in words:
        for a in range(1, n):
            poly = ghkk_restriction(word, a)
            assert all(c == 1 for _, c in poly.terms)
            assert all(set(e) <= {-1, 0} for e, _ in poly.terms)
            assert all(any(v == -1 for v in e) for e, _ in poly.terms)
        mm = chamber_ansatz_dual(word)
        det = sympy.Matrix([list(r) for r in mm.rows]).det()
        assert det in (1, -1)
        cap = 200000 if n <= 4 else 2000
        rep = cone_correspondence_check(word, box=2, points=10, seed=0, cap=cap)
        assert rep["ok"], (word, rep["failures"][:3])
        checked += rep["lattice_points"]
    print(f"criterion 6 PASS: restrictions clean, chamber maps unimodular, {checked} box points agree")


def test_criterion_7_minor_ratio_identities():
    total = 0
    for n in (3, 4, 5):
        for word in enumerate_reduced_words(n):
            io = neighbour_ansatz(word)
            ca = chamber_ansatz_dual(word)
            polys = {
                a: (reineke_poly(word, a), ghkk_restriction(word, a))
                for a in range(1, n)
            }
            rng = random.Random(f"acceptance:7:{word}")
            done = 0
            while done < 100:
                u_rows = [
                    [
                        Fraction(1)
                        if r == c
                        else (
                            Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                            if c > r
                            else Fraction(0)
                        )
                        for c in range(n)
                    ]
                    for r in range(n)
                ]
                u = UnitriangularMatrix(u_rows)
                t = {v: chamber_minor(u, v) for v in io.src}
                if any(val == 0 for val in t.values()):
                    continue
                try:
                    wanted = {a: bk_value(u, a) for a in range(1, n)}
                except ZeroDivisionError:
                    continue
                x = io.apply(t)
                y = ca.apply(x)
                for a in range(1, n):
                    r_poly, w_poly = polys[a]
                    assert r_poly.eval(x) == wanted[a]
                    assert w_poly.eval(y) == wanted[a]
                done += 1
                total += 1
    print(f"criterion 7 PASS: minor ratios match both potential routes on {total} matrices")


def test_criterion_8_order_structure_and_dimensions():
    for n in (3, 4, 5):
        for word in enumerate_reduced_words(n):
            tiling = build_tiling(word)
            for a in range(1, n):
                for dual in (False, True):
                    assert lattice_failures(tiling, a, dual) == []
                    assert reselection_failures(word, a, dual) == []
    counted = 0
    for n in (2, 3, 4):
        anchor = enumerate_reduced_words(n)[0]
        for lam in product(range(3), repeat=n - 1):
            size = len(generate_hw_crystal(lam, anchor))
            assert size == weyl_dim_oracle(lam), (lam, size)
            counted += 1
    assert len(generate_hw_crystal((1, 0), (1, 2, 1))) == 3
    assert len(generate_hw_crystal((1, 1), (1, 2, 1))) == 8
    print(f"criterion 8 PASS: order structure holds through rank 5; {counted} crystal sizes match")
