"""Command-line surface: outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import crystaltiles
from crystaltiles import cli, crossings


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def test_words_count(capsys):
    code, out = run(capsys, ["words", "--n", "4", "--count"])
    assert code == 0
    assert out.strip() == "16"


def test_words_count_uses_the_formula(capsys):
    code, out = run(capsys, ["words", "--n", "7", "--count"])
    assert code == 0
    assert out.strip() == "1100742656"


def test_words_listing(capsys):
    code, out = run(capsys, ["words", "--n", "3"])
    assert code == 0
    assert out.splitlines() == ["1,2,1", "2,1,2"]


def test_tiling_json(capsys):
    code, out = run(capsys, ["tiling", "--word", "2,1,2"])
    doc = json.loads(out)
    assert code == 0
    assert doc["n"] == 3
    assert {tuple(t["pair"]) for t in doc["tiles"]} == {(1, 2), (1, 3), (2, 3)}


def test_crossings_paper_vectors(capsys):
    code, out = run(capsys, ["crossings", "--word", "2,1,2", "--a", "1", "--dual"])
    doc = json.loads(out)
    assert code == 0
    assert sorted(map(tuple, doc["reineke_vectors"])) == [
        (0, 0, 1),
        (0, 1, -1),
        (1, 0, 0),
    ]
    assert len(doc["crossings"]) == 1
    assert doc["crossings"][0]["rvec"] == [0, 0, 1]


def test_crystal_f_example(capsys):
    code, out = run(
        capsys, ["crystal", "--op", "f", "--a", "1", "--datum", "0,0,0", "--word", "1,2,1"]
    )
    assert code == 0
    assert out.strip() == "1,0,0"


def test_crystal_oracle_agrees(capsys):
    args = ["crystal", "--op", "f*", "--a", "2", "--datum", "3,1,2", "--word", "2,1,2"]
    _, direct = run(capsys, args)
    _, oracle = run(capsys, args + ["--oracle"])
    assert direct == oracle


def test_crystal_eps_and_null(capsys):
    code, out = run(
        capsys, ["crystal", "--op", "eps", "--a", "1", "--datum", "0,0,0", "--word", "1,2,1"]
    )
    assert code == 0 and out.strip() == "0"
    code, out = run(
        capsys, ["crystal", "--op", "e", "--a", "1", "--datum", "0,0,0", "--word", "1,2,1"]
    )
    assert code == 0 and out.strip() == "null"


def test_string_subcommand(capsys):
    code, out = run(capsys, ["string", "--word", "1,2,1", "--datum", "0,0,1"])
    assert code == 0 and out.strip() == "0,1,0"
    code, out = run(capsys, ["string", "--cone", "--word", "2,1,2"])
    doc = json.loads(out)
    assert sorted(map(tuple, doc["rows"])) == [(0, 0, 1), (0, 1, -1), (1, 0, 0)]


def test_bz_subcommands(capsys):
    code, out = run(capsys, ["bz", "--from-lusztig", "--word", "1,2,1", "--datum", "1,0,0"])
    assert code == 0
    assert json.loads(out)["values"] == {"1": -1, "1,3": -1}
    code, out = run(capsys, ["bz", "--apply-f", "--n", "3", "--a", "1", "--values", "{}"])
    assert code == 0
    assert json.loads(out)["values"] == {"1": -1, "1,3": -1}


def test_cone_polar_check(capsys):
    code, out = run(capsys, ["cone", "--polar-check", "--word", "1,2,1", "--box", "3"])
    doc = json.loads(out)
    assert code == 0
    assert doc["ok"] and doc["reached"] == doc["cone_points"]


def test_cone_box_budget_rejects_fast_and_keeps_the_duality_boxes():
    """A huge --box is refused within a second (the bad-argument probe runs
    it end to end); n = 5 at box 3, which the duality suite runs, and the
    slowest accepted boxes of n = 2, 3 and 7 pass."""
    parser = cli._build_parser()
    start = time.perf_counter()
    args = parser.parse_args(["cone", "--polar-check", "--word", "2,1,2", "--box", "1" + "0" * 20])
    assert "too large" in cli._usage_problem(args)
    assert time.perf_counter() - start < 1
    for word, box in [
        ("1,2,1,3,2,1,4,3,2,1", 3),
        ("1", 2047),
        ("2,1,2", 44),
        ("1,2,1,3,2,1,4,3,2,1,5,4,3,2,1,6,5,4,3,2,1", 1),
    ]:
        args = parser.parse_args(["cone", "--polar-check", "--word", word, "--box", str(box)])
        assert cli._usage_problem(args) is None, (word, box)


def test_potential_outputs(capsys):
    code, out = run(capsys, ["potential", "--word", "2,1,2", "--a", "1", "--ghkk"])
    doc = json.loads(out)
    assert code == 0
    assert doc["terms"] == [{"coeff": 1, "exp": [0, -1, 0]}]
    code, out = run(capsys, ["potential", "--word", "2,1,2", "--a", "2", "--r"])
    doc = json.loads(out)
    assert len(doc["terms"]) == 2


def test_render_writes_svg(tmp_path, capsys):
    target = tmp_path / "pic.svg"
    code, _ = run(
        capsys,
        ["render", "--word", "2,1,2,3,4,3,2,1,3,2", "--svg-out", str(target), "--comb", "2"],
    )
    assert code == 0
    text = target.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")


def test_verify_am_n3(capsys):
    code, out = run(capsys, ["verify", "--suite", "am", "--n", "3"])
    doc = json.loads(out)
    assert code == 0
    assert doc["counterexamples"] == 0 and doc["ok"]


def test_verify_deterministic(capsys):
    args = ["verify", "--suite", "rtrans", "--n", "3", "--seed", "7"]
    _, first = run(capsys, args)
    _, second = run(capsys, args)
    assert first == second


VERIFY_ALL_N3_SEED0 = [
    '{"cases": 720, "counterexamples": 0, "n": 3, "ok": true, "seed": 0, "suite": "crossing", "witnesses": []}',
    '{"cases": 80, "counterexamples": 0, "n": 3, "ok": true, "seed": 0, "suite": "duality", "witnesses": []}',
    '{"cases": 100, "counterexamples": 0, "n": 3, "ok": true, "seed": 0, "suite": "am", "witnesses": []}',
    '{"cases": 96, "counterexamples": 0, "n": 3, "ok": true, "seed": 0, "suite": "rtrans", "witnesses": []}',
    '{"cases": 262, "counterexamples": 0, "n": 3, "ok": true, "seed": 0, "suite": "ghkk", "witnesses": []}',
    '{"cases": 24, "counterexamples": 0, "n": 3, "ok": true, "seed": 0, "suite": "bk", "witnesses": []}',
    '{"cases": 12, "counterexamples": 0, "n": 3, "ok": true, "seed": 0, "suite": "lattice", "witnesses": []}',
]


@pytest.mark.parametrize("mode", ["in-process", "optimized"])
def test_verify_all_n3_golden(mode, capsys):
    """Reports printed before the suites moved out of the CLI: a change in
    any suite's sampling, case count or report format shows up here.  The
    optimized run, under python -O in a subprocess, shows a self-check that
    changes results through a side effect of its assert."""
    code, out = run_in_mode(mode, capsys, ["verify", "--suite", "all", "--n", "3", "--seed", "0"])
    assert code == 0
    assert out.splitlines() == VERIFY_ALL_N3_SEED0


def run_in_mode(mode, capsys, argv):
    """Run the CLI in this process, or under python -O in a subprocess."""
    if mode == "in-process":
        return run(capsys, argv)
    src = str(Path(crystaltiles.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "crystaltiles.cli", *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout


VERIFY_N4 = {
    "crossing": '{"cases": 4320, "counterexamples": 0, "n": 4, "ok": true, "seed": 0,'
    ' "suite": "crossing", "witnesses": []}',
    "duality": '{"cases": 4656, "counterexamples": 0, "n": 4, "ok": true, "seed": 0,'
    ' "suite": "duality", "witnesses": []}',
    "lattice": '{"cases": 104, "counterexamples": 0, "n": 4, "ok": true, "seed": 0,'
    ' "suite": "lattice", "witnesses": []}',
}


@pytest.mark.parametrize("mode", ["in-process", "optimized"])
@pytest.mark.parametrize("suite", sorted(VERIFY_N4))
def test_verify_n4_golden(suite, mode, capsys):
    """Reports printed before string tails were shared and cone points were
    found by a pruned walk (duality), before crossings became table indices
    (lattice), and before the starred operators read the dual tables
    directly (crossing)."""
    code, out = run_in_mode(mode, capsys, ["verify", "--suite", suite, "--n", "4"])
    assert code == 0
    assert out.splitlines() == [VERIFY_N4[suite]]


def test_verify_duality_n6(capsys):
    """At n = 6 the duality suite runs at box 1, the largest box that fits
    strings.POLAR_CHECK_BUDGET; at box 3 it ran past 300 s."""
    code, out = run(capsys, ["verify", "--suite", "duality", "--n", "6"])
    assert code == 0
    assert out.splitlines() == [
        '{"cases": 3540, "counterexamples": 0, "n": 6, "ok": true, "seed": 0,'
        ' "suite": "duality", "witnesses": []}'
    ]


CROSSINGS_GOLDEN = {
    "crossings --word 1,2,3,1,2,1": (
        '{"a": null, "crossings": [{"dual": false, "reineke": true, "rvec": [1, 0, 0, 0, 0, '
        '0], "strips": [1, 2], "tiles": [[1, 2]]}, {"dual": false, "reineke": true, '
        '"rvec": [-1, 1, 0, 0, 0, 0], "strips": [2, 1, 3], "tiles": [[1, 2], [1, 3]]}, '
        '{"dual": false, "reineke": true, "rvec": [0, 0, 0, 1, 0, 0], "strips": [2, 3], '
        '"tiles": [[1, 2], [2, 3], [1, 3]]}, {"dual": false, "reineke": true, "rvec": [0, -1, '
        '1, 0, 0, 0], "strips": [3, 1, 4], "tiles": [[1, 3], [1, 4]]}, {"dual": false, '
        '"reineke": true, "rvec": [0, 0, 0, -1, 1, 0], "strips": [3, 2, 4], "tiles": [[1, 3], '
        '[2, 3], [2, 4], [1, 4]]}, {"dual": false, "reineke": true, "rvec": [0, 0, 0, 0, 0, '
        '1], "strips": [3, 4], "tiles": [[1, 3], [2, 3], [3, 4], [2, 4], [1, 4]]}], '
        '"dual": false, "reineke_vectors": [[-1, 1, 0, 0, 0, 0], [0, -1, 1, 0, 0, 0], [0, 0, '
        '0, -1, 1, 0], [0, 0, 0, 0, 0, 1], [0, 0, 0, 1, 0, 0], [1, 0, 0, 0, 0, 0]], '
        '"word": [1, 2, 3, 1, 2, 1]}'
    ),
    "crossings --word 1,2,3,1,2,1 --dual": (
        '{"a": null, "crossings": [{"dual": true, "reineke": true, "rvec": [0, 0, 1, 0, -1, '
        '0], "strips": [1, 4, 2], "tiles": [[1, 4], [2, 4]]}, {"dual": true, "reineke": true, '
        '"rvec": [0, 1, 0, -1, 0, 0], "strips": [1, 3, 2], "tiles": [[1, 4], [1, 3], [2, 3], '
        '[2, 4]]}, {"dual": true, "reineke": true, "rvec": [1, 0, 0, 0, 0, 0], "strips": [1, '
        '2], "tiles": [[1, 4], [1, 3], [1, 2], [2, 3], [2, 4]]}, {"dual": true, '
        '"reineke": true, "rvec": [0, 0, 0, 0, 1, -1], "strips": [2, 4, 3], "tiles": [[2, 4], '
        '[3, 4]]}, {"dual": true, "reineke": true, "rvec": [0, 0, 0, 1, 0, 0], "strips": [2, '
        '3], "tiles": [[2, 4], [2, 3], [3, 4]]}, {"dual": true, "reineke": true, "rvec": [0, '
        '0, 0, 0, 0, 1], "strips": [3, 4], "tiles": [[3, 4]]}], "dual": true, '
        '"reineke_vectors": [[0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, -1], [0, 0, 0, 1, 0, 0], [0, '
        '0, 1, 0, -1, 0], [0, 1, 0, -1, 0, 0], [1, 0, 0, 0, 0, 0]], "word": [1, 2, 3, 1, 2, '
        '1]}'
    ),
    "crossings --word 2,1,2,3,4,3,2,1,3,2 --a 2 --dual": (
        '{"a": 2, "crossings": [{"dual": true, "reineke": true, "rvec": [0, 0, 0, 0, 0, 0, 0, '
        '0, 1, -1], "strips": [2, 4, 3], "tiles": [[2, 4], [3, 4]]}, {"dual": true, '
        '"reineke": true, "rvec": [0, 0, 0, 0, 0, 0, 1, -1, 0, 0], "strips": [2, 5, 3], '
        '"tiles": [[2, 4], [2, 5], [3, 5], [3, 4]]}, {"dual": true, "reineke": true, '
        '"rvec": [0, 1, -1, 0, 0, 0, 0, 0, 0, 0], "strips": [2, 1, 3], "tiles": [[2, 4], [2, '
        '5], [1, 2], [1, 3], [3, 5], [3, 4]]}, {"dual": true, "reineke": true, "rvec": [1, 0, '
        '0, 0, 0, 0, 0, 0, 0, 0], "strips": [2, 3], "tiles": [[2, 4], [2, 5], [1, 2], [2, 3], '
        '[1, 3], [3, 5], [3, 4]]}], "dual": true, "reineke_vectors": [[0, 0, 0, 0, 0, 0, 0, 0, '
        '0, 1], [0, 0, 0, 0, 0, 0, 0, 0, 1, -1], [0, 0, 0, 0, 0, 0, 0, 1, 0, -1], [0, 0, 0, 0, '
        '0, 0, 1, -1, 0, 0], [0, 0, 0, 0, 0, 0, 1, 0, -1, 0], [0, 0, 0, 0, 0, 1, 0, 0, 0, 0], '
        '[0, 0, 0, 0, 1, -1, 0, 0, -1, 0], [0, 0, 0, 1, 0, 0, 0, 0, -1, 0], [0, 0, 0, 1, 0, 1, '
        '-1, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0, 0, 0, 0], [0, 1, -1, 0, 0, 0, 0, 0, 0, 0], [1, 0, '
        '0, 0, 0, 0, 0, 0, 0, 0]], "word": [2, 1, 2, 3, 4, 3, 2, 1, 3, 2]}'
    ),
}


@pytest.mark.parametrize("mode", ["in-process", "optimized"])
@pytest.mark.parametrize("argv", sorted(CROSSINGS_GOLDEN))
def test_crossings_golden(argv, mode, capsys):
    """Reports printed while the command still read each crossing's rvec and
    Reineke flag through per-crossing lookups, before it read table rows."""
    code, out = run_in_mode(mode, capsys, argv.split())
    assert code == 0
    assert out.splitlines() == [CROSSINGS_GOLDEN[argv]]


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["crystal", "--op", "q", "--a", "1", "--datum", "0", "--word", "1"])
    assert exc.value.code == 2


def test_unknown_flag_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["words", "--n", "3", "--frobnicate"])
    assert exc.value.code == 2


# an n = 8 word: past the rank that crossing tables are built for
W8, D8 = "2,6,1,4,2,5,7,4,6,3,2,7,1,5,6,4,5,6,3,7,2,4,1,3,5,4,6,5", ",".join(["1"] * 28)


@pytest.mark.parametrize(
    "argv",
    [
        "string --word 2,1,2",
        "tiling --word 1,x",
        "tiling --word 1,1,1",
        "tiling --word 1,5,1",
        "crystal --op f --a 1 --word 1,2,1 --datum 0,0",
        "crystal --op f --a 7 --word 1,2,1 --datum 0,0,0",
        "crystal --op f --a 1 --word 1,2,1 --datum=0,-1,0",
        "bz --from-lusztig",
        "bz --apply-f --n 3",
        "cone --word 1,2,1",
        "words --n 1",
        "words --n 8",
        "potential --word 1,2,1 --a 1",
        "bz --apply-f --n 3 --a 1 --values {x",
        "bz --apply-f --n 3 --a 1 --values [1]",
        'bz --apply-f --n 3 --a 1 --values {"1":"x"}',
        "render --word 1,2,1 --svg-out TMP/out.svg --highlight 1-x",
        "render --word 1,2,1 --svg-out TMP/out.svg --highlight 1-4",
        "render --word 1,2,1 --svg-out TMP/out.svg --comb 5",
        "render --word 1,2,1 --svg-out TMP/missing/out.svg",
        "render --word 1,2,1 --svg-out TMP",
        "cone --polar-check --word 1,2,1 --box -1",
        "cone --polar-check --word 2,1,2 --box 100000000000000000000",
        "cone --polar-check --word 1,2,1,3,2,1,4,3,2,1 --box 4",
        "cone --polar-check --word 1 --box 2048",
        "cone --polar-check --word 1,2,1,3,2,1,4,3,2,1,5,4,3,2,1,6,5,4,3,2,1,7,6,5,4,3,2,1 --box 0",
        'bz --apply-f --n 3 --a 1 --values {"1":-1,"1,3":2}',
        'bz --apply-f --n 3 --a 1 --values {"7":5}',
        "bz --apply-f --n 40 --a 1 --values {}",
        "words --n 7",
        "verify --n 7",
        "words --n 77 --count",
        "words --n 100000 --count",
        f"crossings --word {W8} --a 1",
        f"string --word {W8} --datum {D8}",
        f"crystal --op f --a 1 --word {W8} --datum {D8}",
        f"string --word {W8} --cone",
        f"potential --word {W8} --a 1 --r",
    ],
)
def test_bad_arguments_exit_2_without_traceback(argv, tmp_path):
    src = str(Path(crystaltiles.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "crystaltiles.cli", *argv.replace("TMP", str(tmp_path)).split()],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr


def test_weyl_dimension_formula():
    assert crossings.weyl_dimension((1, 0)) == 3
    assert crossings.weyl_dimension((1, 1)) == 8
    assert crossings.weyl_dimension((2, 1)) == 15
    assert crossings.weyl_dimension((1, 1, 1)) == 64
