"""Crossing polynomials, lifts, cluster structure, minor identities."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import crystaltiles
from crystaltiles import potentials
from crystaltiles.potentials import (
    LaurentPolynomial,
    MonomialMap,
    UnitriangularMatrix,
    bk_identity_check,
    bk_value,
    chamber_ansatz_dual,
    chamber_minor,
    cone_correspondence_check,
    eval_cluster_mutation,
    eval_trl,
    eval_trs,
    ghkk_restriction,
    is_optimized,
    neighbour_ansatz,
    quiver,
    reineke_poly,
    transform_check_rtrans,
    tropical_cone,
)
from crystaltiles.strings import string_cone
from crystaltiles.words import convex_order, enumerate_reduced_words, rank_of_word
from test_paths import weak_order_word

U3 = UnitriangularMatrix(
    [
        [Fraction(1), Fraction(1), Fraction(1)],
        [Fraction(0), Fraction(1), Fraction(2)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]
)


def test_chamber_minor_frozen():
    assert chamber_minor(U3, (2,)) == 1
    assert chamber_minor(U3, (3,)) == 1
    assert chamber_minor(U3, (2, 3)) == 1
    assert chamber_minor(U3, (1, 3)) == 2
    assert chamber_minor(U3, ()) == 1


def test_bk_value_frozen():
    assert bk_value(U3, 1) == 2
    assert bk_value(U3, 2) == 1


def test_bk_value_vanishing_denominator():
    eye = UnitriangularMatrix(
        [
            [Fraction(1), Fraction(0), Fraction(0)],
            [Fraction(0), Fraction(1), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(1)],
        ]
    )
    assert chamber_minor(eye, (3,)) == 0
    with pytest.raises(ZeroDivisionError):
        bk_value(eye, 1)


def test_reineke_poly_frozen():
    p = reineke_poly((2, 1, 2), 1)
    assert p.coords == ((2, 3), (1, 3), (1, 2))
    assert p.terms == (((0, 0, 1), 1),)
    q = reineke_poly((2, 1, 2), 2)
    assert set(q.exponents()) == {(0, 1, -1), (1, 0, 0)}


def test_laurent_eval():
    p = LaurentPolynomial(((1, 2), (1, 3)), {(1, -1): 2, (0, 1): 1})
    val = p.eval({(1, 2): Fraction(3), (1, 3): Fraction(2)})
    assert val == 2 * Fraction(3, 2) + 2


def test_trl_involution_frozen_point():
    i, j = (2, 1, 2), (1, 2, 1)
    point = {(2, 3): Fraction(2), (1, 3): Fraction(1), (1, 2): Fraction(2)}
    out = eval_trl(i, j, point)
    assert eval_trl(j, i, out) == point


def test_trs_frozen_point():
    i, j = (2, 1, 2), (1, 2, 1)
    point = {(2, 3): Fraction(1, 2), (1, 3): Fraction(1), (1, 2): Fraction(2)}
    out = eval_trs(i, j, point)
    assert out == {(1, 2): Fraction(1), (1, 3): Fraction(1), (2, 3): Fraction(1)}
    assert eval_trs(j, i, out) == point
    assert reineke_poly(i, 1).eval(point) == reineke_poly(j, 1).eval(out) == 2
    assert reineke_poly(i, 2).eval(point) == reineke_poly(j, 2).eval(out) == 1


def test_transform_check_rtrans_n3():
    i, j = (2, 1, 2), (1, 2, 1)
    rng = random.Random("rtrans:test")
    pts = [
        {p: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for p in convex_order(i)}
        for _ in range(20)
    ]
    for a in (1, 2):
        rep = transform_check_rtrans(a, i, j, pts)
        assert rep["ok"], rep["failures"][:3]


def test_quiver_frozen():
    q = quiver((1, 2, 1))
    assert set(q.arrows) == {((2,), (3,)), ((2, 3), (2,))}
    assert (2,) in q.vertices and (2,) not in q.frozen
    assert (3,) in q.frozen and (2, 3) in q.frozen
    q2 = quiver((2, 1, 2))
    assert set(q2.arrows) == {((3,), (1, 3)), ((1, 3), (2, 3))}


def test_is_optimized_frozen():
    assert is_optimized((1, 2, 1), 2)
    assert not is_optimized((1, 2, 1), 1)
    assert is_optimized((2, 1, 2), 1)
    assert not is_optimized((2, 1, 2), 2)


def test_ghkk_frozen():
    p = ghkk_restriction((2, 1, 2), 1)
    assert p.terms == (((0, -1, 0), 1),)
    assert p.coords == ((1, 3), (2, 3), (3,))
    q = ghkk_restriction((1, 2, 1), 1)
    assert len(q.terms) == 2
    assert all(c == 1 for _, c in q.terms)
    assert all(set(e) <= {0, -1} for e, _ in q.terms)


def test_ghkk_optimized_single_monomial():
    for word, a in [((1, 2, 1), 2), ((2, 1, 2), 1)]:
        p = ghkk_restriction(word, a)
        assert len(p.terms) == 1


def test_chamber_ansatz_dual_square():
    mm = chamber_ansatz_dual((1, 2, 1, 3, 2, 1))
    assert len(mm.rows) == len(mm.src) == len(mm.dst) == 6


def test_neighbour_ansatz_coords():
    mm = neighbour_ansatz((2, 1, 2))
    assert mm.dst == convex_order((2, 1, 2))


def test_bk_identity_frozen_matrix():
    rep = bk_identity_check((2, 1, 2), U3)
    assert rep["ok"] and not rep["excluded"]
    rep2 = bk_identity_check((1, 2, 1), U3)
    assert rep2["ok"] and not rep2["excluded"]


def test_tropical_cone_frozen():
    p = LaurentPolynomial(
        ((1, 2), (1, 3), (2, 3)), {(0, 0, 1): 1, (-1, 1, 0): 1}
    )
    cone = tropical_cone(p)
    assert set(cone.inequalities()) == {
        "v[2,3] >= 0",
        "- v[1,2] + v[1,3] >= 0",
    }
    assert set(cone.rows) == {(0, 0, 1), (-1, 1, 0)}


def test_cone_correspondence_n3():
    for word in enumerate_reduced_words(3):
        rep = cone_correspondence_check(word, box=3, points=10)
        assert rep["ok"], rep["failures"]
        assert rep["lattice_points"] == 7 ** 3


def test_box_points_draw_the_randint_values():
    """The sampled box points are the values of rng.randint(-box, box), and
    the draws leave the generator in the same state, so seeded checks and
    their digests do not move."""
    for seed in (0, 1, 3, 7919, "potentials"):
        for box in (1, 2, 3, 5):
            for dim in (3, 6, 10):
                cap = min(50, (2 * box + 1) ** dim - 1)
                ours, theirs = random.Random(seed), random.Random(seed)
                got = list(potentials._box_points(dim, box, cap, ours))
                want = [tuple(theirs.randint(-box, box) for _ in range(dim)) for _ in range(cap)]
                assert got == want, (seed, box, dim)
                assert ours.getstate() == theirs.getstate()


def _times(rows, matrix) -> set:
    """Integer row vectors times an integer matrix, as a set of rows."""
    cols = list(zip(*matrix))
    return {tuple(sum(r * e for r, e in zip(row, col)) for col in cols) for row in rows}


def test_cone_rows_compose_exactly():
    """The three cones of the cone check are one cone in three coordinates.

    String rows times the inverse chamber matrix are the potential-cone rows,
    and minor-ratio rows times the inverse neighbour matrix are the string
    rows, as sets, on every word at n <= 5 and on sampled n = 6 words.
    """
    rng = random.Random("potentials:cone-rows")
    words = [w for n in (2, 3, 4, 5) for w in enumerate_reduced_words(n)]
    words += [weak_order_word(6, rng) for _ in range(6)]
    for word in words:
        n = rank_of_word(word)
        ca, io = chamber_ansatz_dual(word), neighbour_ansatz(word)
        string_rows = set(string_cone(word).rows)
        pot_rows = {e for a in range(1, n) for e in ghkk_restriction(word, a).exponents()}
        bk_rows = {e for a in range(1, n) for e in io.pullback(reineke_poly(word, a)).exponents()}
        assert _times(string_rows, potentials._unimodular_inverse(ca).rows) == pot_rows, word
        assert _times(bk_rows, potentials._unimodular_inverse(io).rows) == string_rows, word


def test_sparse_cone_rows_match_dense_membership():
    """The cone check's sparse, precomposed rows decide membership exactly as
    Cone.contains after MonomialMap.trop, at every point of [-1, 1]^N, n <= 4."""
    for word in [w for n in (2, 3, 4) for w in enumerate_reduced_words(n)]:
        ca_inv = potentials._unimodular_inverse(chamber_ansatz_dual(word))
        scone = string_cone(word)
        plain = potentials._sparse(scone.rows)
        moved = potentials._sparse(potentials._through(scone.rows, ca_inv))
        for z in product((-1, 0, 1), repeat=len(word)):
            assert potentials._inside(plain, z) == scone.contains(z)
            assert potentials._inside(moved, z) == scone.contains(ca_inv.trop(z))


def _eval_reference(poly, point):
    """LaurentPolynomial.eval as a loop over Fractions."""
    total = Fraction(0)
    for exp, coeff in poly.terms:
        val = Fraction(coeff)
        for label, e in zip(poly.coords, exp):
            if e:
                val *= Fraction(point[label]) ** e
        total += val
    return total


def _apply_reference(mm, point):
    """MonomialMap.apply as a loop over Fractions."""
    vec = [Fraction(point[s]) for s in mm.src]
    if any(v == 0 for v in vec):
        raise ValueError("monomial maps need nonzero coordinates")
    out = {}
    for d, row in zip(mm.dst, mm.rows):
        val = Fraction(1)
        for v, e in zip(vec, row):
            if e:
                val *= v**e
        out[d] = val
    return out


def _signed_point(rng, coords):
    """Nonzero entries of both signs: Fractions, and some plain ints."""
    point = {}
    for c in coords:
        v = rng.choice((-1, 1)) * rng.randint(1, 9)
        point[c] = v if rng.random() < 0.25 else Fraction(v, rng.randint(1, 9))
    return point


def test_eval_and_apply_match_fraction_loops():
    rng = random.Random("potentials:kernels")
    polys, maps = [], []
    for word in [*enumerate_reduced_words(4)[:6], *(weak_order_word(5, rng) for _ in range(3))]:
        n = rank_of_word(word)
        polys += [reineke_poly(word, a) for a in range(1, n)]
        polys += [ghkk_restriction(word, a) for a in range(1, n)]
        maps += [chamber_ansatz_dual(word), neighbour_ansatz(word)]
    for _ in range(40):
        coords = tuple(range(rng.randint(1, 7)))
        terms = {
            tuple(rng.randint(-3, 3) for _ in coords): rng.randint(-5, 5)
            for _ in range(rng.randint(0, 5))
        }
        polys.append(LaurentPolynomial(coords, terms))
        rows = [[rng.randint(-3, 3) for _ in coords] for _ in range(rng.randint(1, 6))]
        maps.append(MonomialMap(coords, tuple(range(len(rows))), rows))
    for poly in polys:
        for _ in range(5):
            point = _signed_point(rng, poly.coords)
            assert poly.eval(point) == _eval_reference(poly, point)
    for mm in maps:
        for _ in range(5):
            point = _signed_point(rng, mm.src)
            assert mm.apply(point) == _apply_reference(mm, point)


def test_zero_coordinates_raise_as_before():
    poly = LaurentPolynomial(("a", "b", "c"), {(1, -1, 0): 2, (0, 2, 0): -1})
    assert poly.eval({"a": 0, "b": Fraction(-1, 2)}) == Fraction(-1, 4)  # "c" is never read
    with pytest.raises(ZeroDivisionError):
        poly.eval({"a": 1, "b": 0, "c": 1})
    with pytest.raises(ZeroDivisionError):
        _eval_reference(poly, {"a": 1, "b": 0, "c": 1})
    mm = MonomialMap(("a", "b"), ("x",), [[1, 0]])
    for apply in (mm.apply, lambda pt: _apply_reference(mm, pt)):
        with pytest.raises(ValueError):
            apply({"a": 1, "b": Fraction(0)})


def test_cluster_mutation_example():
    point = {
        (2,): Fraction(3, 2),
        (3,): Fraction(2),
        (2, 3): Fraction(5),
    }
    outA = eval_cluster_mutation("A", (1, 2, 1), (2, 1, 2), point)
    outX = eval_cluster_mutation("X", (1, 2, 1), (2, 1, 2), point)
    assert set(outA) == set(outX) == {(1, 3), (2, 3), (3,)}
    assert all(v > 0 for v in outA.values())
    with pytest.raises(ValueError):
        eval_cluster_mutation("B", (1, 2, 1), (2, 1, 2), point)


@pytest.mark.parametrize("kind,square", [("A", "neighbours"), ("X", "chambers")])
def test_commuting_squares_raise_under_python_O(kind, square):
    """A wrong multiplicative lift breaks each mutation's commuting square,
    and the check must raise even when python -O strips assert statements."""
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from crystaltiles import potentials\n"
        "real = potentials._multiplicative_flip\n"
        "potentials._multiplicative_flip = lambda ring, a, b, c, left: real(ring, c, b, a, left)\n"
        "point = {(2,): Fraction(3, 2), (3,): Fraction(2), (2, 3): Fraction(5)}\n"
        "try:\n"
        f"    potentials.eval_cluster_mutation({kind!r}, (1, 2, 1), (2, 1, 2), point)\n"
        "except AssertionError as exc:\n"
        f"    sys.exit(0 if sys.flags.optimize and {square!r} in str(exc) else 1)\n"
        "sys.exit(1)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": str(Path(crystaltiles.__file__).resolve().parents[1])},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_potential_shape_checks_raise_under_python_O():
    """A Reineke vector with an entry 2 breaks the exponent range of r_a, and
    a constant r_a leaves a constant term in the potential: both checks must
    raise even when python -O strips assert statements."""
    code = (
        "import sys\n"
        "from crystaltiles import potentials\n"
        "def raises(call, words):\n"
        "    try:\n"
        "        call()\n"
        "    except AssertionError as exc:\n"
        "        return words in str(exc)\n"
        "    return False\n"
        "real = potentials.reineke_poly\n"
        "potentials.reineke_vectors = lambda tiling, a, dual: {(2, 0, 0)}\n"
        "ok = raises(lambda: real((2, 1, 2), 1), 'exponents stay within')\n"
        "potentials.reineke_poly = lambda word, a: potentials.LaurentPolynomial(\n"
        "    potentials.convex_order(word), {(0, 0, 0): 1})\n"
        "ok = ok and raises(lambda: potentials.ghkk_restriction((2, 1, 2), 1), 'constant term')\n"
        "sys.exit(0 if sys.flags.optimize and ok else 1)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": str(Path(crystaltiles.__file__).resolve().parents[1])},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("word", enumerate_reduced_words(4)[:4])
def test_bk_identity_random_n4(word):
    rng = random.Random(f"bk:{word}")
    done = 0
    while done < 5:
        rows = [
            [
                Fraction(1)
                if r == c
                else (Fraction(rng.randint(-5, 5), rng.randint(1, 3)) if c > r else Fraction(0))
                for c in range(4)
            ]
            for r in range(4)
        ]
        rep = bk_identity_check(word, UnitriangularMatrix(rows))
        if rep["excluded"]:
            continue
        done += 1
        assert rep["ok"], rep["failures"]
