"""Crossings, their poset, and the crossing-formula operators."""

import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

import crystaltiles
from crystaltiles import crossings, verify
from crystaltiles.crossings import (
    batch_op,
    crossing_table,
    crystal_op,
    dual_crystal_op,
    generate_hw_crystal,
    hw_membership,
    is_reineke,
    reineke_vectors,
)
from crystaltiles.lusztig import LusztigDatum, oracle_op, oracle_star_op, star_datum
from crystaltiles.tiling import build_tiling, closure_tiles
from crystaltiles.verify import lattice_failures, mirror_failures
from crystaltiles.words import convex_order, enumerate_reduced_words, root_span
from test_paths import weak_order_word

WORDS4 = enumerate_reduced_words(4)


def test_worked_crystal_example():
    x = LusztigDatum((2, 1, 2), (3, 1, 2))
    assert crystal_op("eps", 1, x) == 1
    assert crystal_op("f", 1, x).values == (2, 2, 2)
    assert crystal_op("e", 1, x).values == (4, 0, 2)


def test_dual_reineke_vectors_example():
    tiling = build_tiling((2, 1, 2))
    assert reineke_vectors(tiling, 1, dual=True) == {(0, 0, 1)}
    assert reineke_vectors(tiling, 2, dual=True) == {(0, 1, -1), (1, 0, 0)}


def test_running_crossing_example(running_tiling):
    want = ((2, 3), (1, 3), (1, 2), (2, 5), (2, 4), (4, 5), (1, 4))
    match = [
        row.crossing
        for row in crossing_table(running_tiling, 3)
        if tuple(t.pair for t in row.crossing.tiles) == want
    ]
    assert len(match) == 1
    assert match[0].strips == (3, 1, 2, 4)


def test_crossing_rvec_entries(running_tiling):
    order = convex_order(running_tiling.word)
    for a in range(1, 5):
        for dual in (False, True):
            for row in crossing_table(running_tiling, a, dual):
                r = row.rvec
                assert set(r) <= {-1, 0, 1}
                acc = [0] * 4
                for pair, v in zip(order, r):
                    for b in root_span(pair):
                        acc[b - 1] += v
                assert acc == [1 if b == a else 0 for b in range(1, 5)]


def test_poset_leq_is_partial_order(running_tiling):
    """The up-sets of a table, read as i <= j iff j in rows[i].up, form a
    partial order on the rows, which come sorted by length, then tile pairs."""
    for a in (1, 3):
        rows = crossing_table(running_tiling, a)
        paths = [tuple(t.pair for t in row.crossing.tiles) for row in rows]
        assert paths == sorted(paths, key=lambda p: (len(p), p))

        def leq(i, j):
            return j in rows[i].up

        for i in range(len(rows)):
            assert leq(i, i)
            for j in range(len(rows)):
                if leq(i, j) and leq(j, i):
                    assert i == j
                for k in range(len(rows)):
                    if leq(i, j) and leq(j, k):
                        assert leq(i, k)


def test_reineke_crossings_exist(running_tiling):
    for a in range(1, 5):
        assert any(is_reineke(row.crossing) for row in crossing_table(running_tiling, a))


def _form_by_definition(c, a, x):
    """The crossing's linear form as the crossings module docstring defines
    it: + x_T where eps-bar_a(T) = 1, - x_T where eps-bar_a(T) = -1 and T is
    not a strip-change tile [s_i, s_{i+1}] of the strip sequence."""
    value = dict(zip(convex_order(x.word), x.values))
    changes = {(min(s, t), max(s, t)) for s, t in zip(c.strips, c.strips[1:])}
    form = 0
    for s, t in (tile.pair for tile in c.tiles):
        if s <= a < t:
            form += value[(s, t)]
        elif (s, t) not in changes:
            form -= value[(s, t)]
    return form


def test_crossing_form_vs_eps():
    x = LusztigDatum((2, 1, 2), (3, 1, 2))
    tiling = build_tiling((2, 1, 2))
    forms = [_form_by_definition(row.crossing, 1, x) for row in crossing_table(tiling, 1)]
    assert max(forms) == crystal_op("eps", 1, x)
    rng = random.Random("crossing-form")
    for word in WORDS4:
        tiling = build_tiling(word)
        for _ in range(3):
            x = LusztigDatum(word, tuple(rng.randint(0, 3) for _ in word))
            for a in range(1, 4):
                for dual, op in ((False, crystal_op), (True, dual_crystal_op)):
                    forms = [
                        _form_by_definition(row.crossing, a, x)
                        for row in crossing_table(tiling, a, dual)
                    ]
                    assert max(forms) == op("eps", a, x), (word, x, a, dual)


@given(st.sampled_from(WORDS4), st.data())
def test_ops_match_oracle(word, data):
    vals = tuple(data.draw(st.integers(0, 3)) for _ in range(6))
    x = LusztigDatum(word, vals)
    a = data.draw(st.integers(1, 3))
    for kind in ("f", "e", "eps"):
        assert crystal_op(kind, a, x) == oracle_op(kind, a, x)
        assert dual_crystal_op(kind, a, x) == oracle_star_op(kind, a, x)


def test_reselection_example():
    word = (2, 1, 2)
    tiling = build_tiling(word)
    for a in (1, 2):
        for dual in (False, True):
            for row in crossing_table(tiling, a, dual):
                if not row.reineke:
                    continue
                r = row.rvec
                x = LusztigDatum(word, tuple(max(0, -v) for v in r))
                op = dual_crystal_op if dual else crystal_op
                y = op("f", a, x)
                assert tuple(p - q for p, q in zip(y.values, x.values)) == r


def test_hw_membership_origin():
    x = LusztigDatum((1, 2, 1), (0, 0, 0))
    assert hw_membership(x, (1, 1))
    assert hw_membership(x, (0, 0))
    y = LusztigDatum((1, 2, 1), (2, 0, 0))
    assert not hw_membership(y, (1, 1))


def _star_reference(kind, a, x):
    """The starred operator by the star reduction: the primal formula on the
    star word's tables, with x moved there and a resulting datum moved back
    along equal tile pairs."""
    res = crystal_op(kind, a, star_datum(x))
    return star_datum(res) if isinstance(res, LusztigDatum) else res


def test_dual_ops_match_star_reference():
    """The dual tables of x's own tiling against the star reduction, on every
    datum with entries <= 2 at n <= 4 and on sampled data at n = 5..7."""
    data = [
        LusztigDatum(word, vals)
        for n in (2, 3, 4)
        for word in enumerate_reduced_words(n)
        for vals in product(range(3), repeat=len(word))
    ]
    rng = random.Random("star-reference")
    for n, count in ((5, 40), (6, 12), (7, 6)):
        for _ in range(count):
            word = weak_order_word(n, rng)
            data.append(LusztigDatum(word, tuple(rng.randint(0, 3) for _ in word)))
    for x in data:
        for a in range(1, x.n):
            for kind in ("f", "e", "eps"):
                assert dual_crystal_op(kind, a, x) == _star_reference(kind, a, x), (kind, a, x)


def test_dual_crossings_mirror_the_star_word():
    """The dual search on T(w) finds the primal crossings of T(w*), on every
    (word, a) at n <= 5 and on sampled words at n = 6 and 7."""
    words = [w for n in (2, 3, 4, 5) for w in enumerate_reduced_words(n)]
    rng = random.Random("mirror")
    words += [weak_order_word(n, rng) for n in (6, 7) for _ in range(4)]
    checked = 0
    for word in words:
        for a in range(1, build_tiling(word).n):
            assert mirror_failures(word, a) == [], (word, a)
            checked += 1
    assert checked >= 3125


def test_mirror_failures_report_a_lost_crossing(monkeypatch):
    """Drop the last row of every primal table that verify reads: the mirror
    check must report the dual crossing that the star word then lacks."""
    real = verify.crossing_table

    def without_last_primal_row(tiling, a, dual):
        rows = real(tiling, a, dual)
        return rows if dual else rows[:-1]

    monkeypatch.setattr(verify, "crossing_table", without_last_primal_row)
    word = (1, 2, 1, 3, 2, 1)
    lost = crossing_table(build_tiling(word), 2, True)[-1].crossing
    assert mirror_failures(word, 2) == [
        ("dual only", 2, tuple(t.pair for t in lost.tiles), lost.strips)
    ]


def test_operators_build_only_their_own_tiling():
    """The operators on both sides of one datum build T(w) and no other tiling."""
    build_tiling.cache_clear()
    crossings._crossing_table.cache_clear()
    crossings._view.cache_clear()
    x = LusztigDatum((1, 2, 1, 3, 2, 1, 4, 3, 2, 1), (1, 0, 2, 0, 1, 3, 0, 1, 2, 0))
    for a in range(1, 5):
        for kind in ("f", "e", "eps"):
            crystal_op(kind, a, x)
            dual_crystal_op(kind, a, x)
    assert build_tiling.cache_info().misses == 1


def test_crossing_table_keys_dual_as_a_positional_bool():
    tiling = build_tiling((1, 2, 1, 3, 2, 1))
    crossings._crossing_table.cache_clear()
    tables = [crossing_table(tiling, 1), crossing_table(tiling, 1, False)]
    tables.append(crossing_table(tiling, 1, dual=False))
    assert tables[0] is tables[1] is tables[2]
    info = crossings._crossing_table.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def _plain(res):
    return getattr(res, "values", res)


def test_batch_matches_the_scalar_operators():
    """batch_op against crystal_op and dual_crystal_op, f, e and eps, on all
    data with entries <= 2 of every word at n <= 4, one batch per (word, a),
    and on sampled batches of n = 5 and 6 data."""
    cases = [
        (word, list(product(range(3), repeat=len(word))))
        for n in (2, 3, 4)
        for word in enumerate_reduced_words(n)
    ]
    rng = random.Random("batch-kernel")
    for n, words, size in ((5, 30, 40), (6, 8, 20)):
        for _ in range(words):
            word = weak_order_word(n, rng)
            cases.append((word, [tuple(rng.randint(0, 3) for _ in word) for _ in range(size)]))
    for word, values in cases:
        data = [LusztigDatum(word, v) for v in values]
        for a in range(1, data[0].n):
            for dual, op in ((False, crystal_op), (True, dual_crystal_op)):
                for kind in ("f", "e", "eps"):
                    want = [_plain(op(kind, a, x)) for x in data]
                    assert batch_op(kind, a, word, values, dual) == want, (word, a, dual, kind)


def _tampered_views_raise() -> list:
    """The (tamper, operator path) pairs that fail to raise AssertionError:
    a view with no Reineke row, and a view whose two highest rows are made
    incomparable, on data where every row is a maximizer."""
    word, a = (1, 2, 1, 3, 2, 1), 2
    compile_view = crossings._view
    real = compile_view(word, a, False)
    top, second = len(real.up) - 1, len(real.up) - 2
    up, down = list(real.up), list(real.down)
    down[top] &= ~(1 << second)
    up[second] &= ~(1 << top)
    tampers = [
        ("no Reineke row", real._replace(reineke=0), ("eps", "f"), "Reineke"),
        ("incomparable tops", real._replace(up=tuple(up), down=tuple(down)), ("f",), "unique"),
    ]
    zero = (0,) * len(word)
    missed = []
    for name, view, kinds, message in tampers:
        crossings._view = lambda *key, view=view: view
        try:
            for kind in kinds:
                paths = {
                    "scalar": lambda: crystal_op(kind, a, LusztigDatum(word, zero)),
                    "batch": lambda: batch_op(kind, a, word, [(1,) * len(word), zero]),
                }
                for path, call in paths.items():
                    try:
                        call()
                    except AssertionError as exc:
                        if message in str(exc):
                            continue
                    missed.append((name, kind, path))
        finally:
            crossings._view = compile_view
    return missed


def test_tampered_views_raise():
    assert _tampered_views_raise() == []


def test_tampered_views_raise_under_python_O():
    tests = Path(__file__).resolve().parent
    code = (
        "import sys\n"
        "from test_crossings import _tampered_views_raise\n"
        "sys.exit(0 if sys.flags.optimize and _tampered_views_raise() == [] else 1)\n"
    )
    src = str(Path(crystaltiles.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, str(tests)])},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def _membership_by_eps_star(x, lam):
    return all(_star_reference("eps", a, x) <= lam[a - 1] for a in range(1, x.n))


def test_hw_membership_matches_eps_star():
    """The dual tables, which hw_membership reads, against eps* by the star
    reduction, which reads the primal tables of the star word."""
    for word in enumerate_reduced_words(3):
        for vals in product(range(3), repeat=3):
            x = LusztigDatum(word, vals)
            for lam in product(range(3), repeat=2):
                assert hw_membership(x, lam) == _membership_by_eps_star(x, lam), (x, lam)
    rng = random.Random("hw-membership")
    for _ in range(60):
        x = LusztigDatum(rng.choice(WORDS4), tuple(rng.randint(0, 2) for _ in range(6)))
        for lam in product(range(3), repeat=3):
            assert hw_membership(x, lam) == _membership_by_eps_star(x, lam), (x, lam)


def test_hw_crystal_sizes_n3():
    word = (1, 2, 1)
    for lam, size in [((1, 0), 3), ((0, 1), 3), ((1, 1), 8), ((2, 0), 6), ((2, 1), 15)]:
        assert len(generate_hw_crystal(lam, word)) == size


def test_self_checks_raise_under_python_O():
    """With no Reineke crossing, eps_a has nowhere to be attained: the check
    must raise even when python -O strips assert statements."""
    code = (
        "import sys\n"
        "from crystaltiles import crossings\n"
        "from crystaltiles.lusztig import LusztigDatum\n"
        "crossings.is_reineke = lambda c: False\n"
        "try:\n"
        "    crossings.crystal_op('eps', 1, LusztigDatum((2, 1, 2), (3, 1, 2)))\n"
        "except AssertionError as exc:\n"
        "    sys.exit(0 if sys.flags.optimize and 'Reineke' in str(exc) else 1)\n"
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


def test_hw_crystal_search_stops_past_the_weyl_dimension():
    """A membership test that accepts every datum never ends the f-search on
    its own: the search must raise once it outgrows dim V(lam) = 1, within a
    second, even when python -O strips assert statements."""
    code = (
        "import sys, time\n"
        "from crystaltiles import crossings\n"
        "crossings.hw_membership = lambda x, lam: True\n"
        "start = time.perf_counter()\n"
        "try:\n"
        "    crossings.generate_hw_crystal((0, 0, 0), (1, 2, 1, 3, 2, 1))\n"
        "except AssertionError as exc:\n"
        "    fast = time.perf_counter() - start < 1\n"
        "    sys.exit(0 if sys.flags.optimize and fast and 'dimension 1:' in str(exc) else 1)\n"
        "sys.exit(1)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": str(Path(crystaltiles.__file__).resolve().parents[1])},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def _reference_lattice_failures(tiling, a, dual, dropped=None):
    """The lattice check as it stood before crossings became table indices:
    a dict over pairs of Crossing objects, here with the closure order read
    straight from tiling.closure_tiles and compared with the up-sets of the
    table rows.  `dropped` names one pair to take out of the order."""
    rows = crossing_table(tiling, a, dual)
    cs = [row.crossing for row in rows]
    closure = {c: closure_tiles(tiling, c.tiles, a, dual) for c in cs}

    def below(c, d):
        return closure[c] <= closure[d] and closure[c] - set(c.tiles) <= closure[d] - set(d.tiles)

    leq = {(c, d): below(c, d) for c in cs for d in cs}
    assert all(
        (j in rows[i].up) == leq[c, d] for i, c in enumerate(cs) for j, d in enumerate(cs)
    )
    if dropped is not None:
        leq[dropped] = False
    geq = {(c, d): v for (d, c), v in leq.items()}
    fails = []
    for i, c in enumerate(cs):
        for d in cs[i:]:
            for le in (leq, geq):
                cand = [e for e in cs if le[c, e] and le[d, e]]
                best = [e for e in cand if all(le[e, f] for f in cand)]
                if len(best) != 1:
                    fails.append(("missing bound", a, dual))
                elif is_reineke(c) and is_reineke(d) and not is_reineke(best[0]):
                    fails.append(("not a sublattice", a, dual))
    return fails


def test_lattice_failures_match_the_pair_dict_reference():
    words = [w for n in (2, 3, 4) for w in enumerate_reduced_words(n)]
    words += random.Random("lattice-reference").sample(enumerate_reduced_words(5), 30)
    for word in words:
        tiling = build_tiling(word)
        for a in range(1, tiling.n):
            for dual in (False, True):
                want = _reference_lattice_failures(tiling, a, dual)
                assert lattice_failures(tiling, a, dual) == want, (word, a, dual)


def test_lattice_failures_catch_a_dropped_relation(monkeypatch, running_tiling):
    """Drop each relation i < j of each table in turn: the failures match the
    reference on the same broken order, and dropping bottom < j, which takes
    the meet of bottom and j away, reports a missing bound."""
    for a in range(1, 5):
        for dual in (False, True):
            real = crossing_table(running_tiling, a, dual)
            assert lattice_failures(running_tiling, a, dual) == []
            bottom = next(k for k, row in enumerate(real) if len(row.up) == len(real))
            for i, row in enumerate(real):
                for j in row.up - {i}:
                    rows = list(real)
                    rows[i] = row._replace(up=row.up - {j})
                    monkeypatch.setattr(
                        verify, "crossing_table", lambda *args, rows=rows: tuple(rows)
                    )
                    got = lattice_failures(running_tiling, a, dual)
                    dropped = (real[i].crossing, real[j].crossing)
                    assert got == _reference_lattice_failures(running_tiling, a, dual, dropped)
                    if i == bottom:
                        assert ("missing bound", a, dual) in got
            monkeypatch.undo()


def test_lattice_suite_reports_witnesses_in_word_order(monkeypatch):
    """The suite checks a word right after its star word when the star word
    comes first, but reports one failure per word in enumeration order."""
    monkeypatch.setattr(verify, "mirror_failures", lambda word, a: [("marked", a)] if a == 1 else [])
    (report,) = verify.run("lattice", 4)
    words = enumerate_reduced_words(4)
    assert report["counterexamples"] == len(words)
    assert [w["word"] for w in report["witnesses"]] == [list(w) for w in words[:10]]
