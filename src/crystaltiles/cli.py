"""Command-line surface: enumeration, operators, exports, rendering, verification.

Flat vectors read and print in the anchor word's root order (the same order
convex_order returns); rationals serialize as "p/q" strings; set-valued JSON
keys are comma-joined.  Verification suites print one JSON report line each
and the process exits 0 on success, 1 on any counterexample, 2 on usage
errors.  All sampling is seeded, so identical invocations print identical
bytes.
"""

import argparse
import json
import sys

from .bz import BZDatum, bz_crystal_f, bz_from_lusztig, proper_subsets, validate_bz
from .crossings import crossing_table, crystal_op, dual_crystal_op, reineke_vectors
from .lusztig import LusztigDatum, oracle_op, oracle_star_op
from .potentials import ghkk_restriction, neighbour_ansatz, reineke_poly
from .strings import POLAR_CHECK_BUDGET, polar_duality_check, string_cone, string_datum
from .tiling import build_tiling, comb, render_svg
from .verify import SUITE_NAMES, run
from .words import (
    MAX_ENUM_RANK,
    MAX_ENUM_WORDS,
    convex_order,
    count_reduced_words,
    enumerate_reduced_words,
    is_reduced_word,
    rank_of_word,
    too_many_words,
)

__all__ = ["main"]


def _int_list(text) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.replace(" ", "").split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r}; expected e.g. 1,2,1") from None


def _word(text) -> tuple[int, ...]:
    """argparse type of --word: a reduced word for w0 such as 1,2,1."""
    word = _int_list(text)
    try:
        reduced = is_reduced_word(word, rank_of_word(word))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not reduced:
        raise argparse.ArgumentTypeError(f"{text!r} is not a reduced word for w0")
    return word


def _datum(text) -> tuple[int, ...]:
    """argparse type of --datum: a Lusztig datum such as 0,0,1."""
    values = _int_list(text)
    if any(v < 0 for v in values):
        raise argparse.ArgumentTypeError("Lusztig data are nonnegative")
    return values


def _pairs(text) -> tuple[tuple[int, int], ...]:
    """argparse type of --highlight: tile pairs such as 1-2,2-3."""
    try:
        pairs = [tuple(map(int, chunk.split("-"))) for chunk in text.split(",")]
        return tuple((min(s, t), max(s, t)) for s, t in pairs)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r}; expected e.g. 1-2,2-3") from None


def _bz_values(text) -> dict[tuple[int, ...], int]:
    """argparse type of bz --values: a JSON object of integers keyed by subsets
    such as "1,3"; the keys become sorted tuples."""
    try:
        return {tuple(sorted(_int_list(k))): int(v) for k, v in json.loads(text).items()}
    except (AttributeError, TypeError, ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a JSON object of integers") from None


def _key(label) -> str:
    return ",".join(map(str, label)) if isinstance(label, tuple) else str(label)


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _poly_json(poly) -> dict:
    return {
        "coords": [list(c) if isinstance(c, tuple) else c for c in poly.coords],
        "terms": [{"exp": list(exp), "coeff": coeff} for exp, coeff in poly.terms],
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_words(args) -> int:
    if args.count:
        print(count_reduced_words(args.n))
    else:
        for w in enumerate_reduced_words(args.n):
            print(",".join(map(str, w)))
    return 0


def _cmd_tiling(args) -> int:
    tiling = build_tiling(args.word)
    _emit(
        {
            "n": tiling.n,
            "order": [list(p) for p in convex_order(args.word)],
            "tiles": [
                {"pair": list(t.pair), "base": list(t.base)}
                for t in sorted(tiling.tiles, key=lambda t: t.pair)
            ],
        }
    )
    return 0


def _cmd_crossings(args) -> int:
    tiling = build_tiling(args.word)
    letters = range(1, tiling.n)
    vectors = set().union(*(reineke_vectors(tiling, a, args.dual) for a in letters))
    _emit(
        {
            "word": list(args.word),
            "a": args.a,
            "dual": args.dual,
            "crossings": [
                {
                    "tiles": [list(t.pair) for t in row.crossing.tiles],
                    "strips": list(row.crossing.strips),
                    "dual": row.crossing.dual,
                    "rvec": list(row.rvec),
                    "reineke": row.reineke,
                }
                for a in ([args.a] if args.a is not None else letters)
                for row in crossing_table(tiling, a, args.dual)
            ],
            "reineke_vectors": sorted(list(v) for v in vectors),
        }
    )
    return 0


def _cmd_crystal(args) -> int:
    x = LusztigDatum(args.word, args.datum)
    starred = args.op.endswith("*")
    kind = args.op.rstrip("*")
    if args.oracle:
        res = (oracle_star_op if starred else oracle_op)(kind, args.a, x)
    else:
        res = (dual_crystal_op if starred else crystal_op)(kind, args.a, x)
    if res is None:
        print("null")
    elif isinstance(res, LusztigDatum):
        print(",".join(map(str, res.values)))
    else:
        print(res)
    return 0


def _cmd_string(args) -> int:
    if args.cone:
        cone = string_cone(args.word)
        _emit({"coords": [list(c) for c in cone.coords], "rows": [list(r) for r in cone.rows]})
        return 0
    sd = string_datum(LusztigDatum(args.word, args.datum))
    print(",".join(map(str, sd.values)))
    return 0


def _bz_json(z: BZDatum) -> dict:
    values = {_key(s): v for s, v in sorted(z.items) if v}
    return {"n": z.n, "values": values}


def _bz_datum(args) -> BZDatum:
    """The BZ datum of bz --n/--values: subsets missing from --values are 0."""
    return BZDatum(args.n, {s: args.values.get(s, 0) for s in proper_subsets(args.n)})


def _cmd_bz(args) -> int:
    if args.from_lusztig:
        _emit(_bz_json(bz_from_lusztig(LusztigDatum(args.word, args.datum))))
        return 0
    _emit(_bz_json(bz_crystal_f(args.a, _bz_datum(args))))
    return 0


def _cmd_cone(args) -> int:
    word = args.word
    rep = polar_duality_check(word, box=args.box)
    _emit(
        {
            "word": list(word),
            "box": rep["box"],
            "reached": rep["reached"],
            "cone_points": rep["cone_points"],
            "counterexamples": len(rep["failures"]),
            "ok": rep["ok"],
        }
    )
    return 0 if rep["ok"] else 1


def _cmd_potential(args) -> int:
    word = args.word
    if args.r:
        poly = reineke_poly(word, args.a)
    elif args.ghkk:
        poly = ghkk_restriction(word, args.a)
    else:
        poly = neighbour_ansatz(word).pullback(reineke_poly(word, args.a))
    _emit(_poly_json(poly))
    return 0


def _cmd_render(args) -> int:
    tiling = build_tiling(args.word)
    decorations = {}
    if args.highlight:
        decorations["highlight"] = args.highlight
    if args.comb is not None:
        decorations["highlight"] = sorted(t.pair for t in comb(tiling, args.comb))
    if args.labels:
        decorations["vertex_labels"] = True
    svg = render_svg(tiling, decorations)
    try:
        with open(args.svg_out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        print(
            f"crystaltiles render: error: cannot write {args.svg_out}: {exc.strerror}",
            file=sys.stderr,
        )
        return 2
    print(args.svg_out)
    return 0


def _cmd_verify(args) -> int:
    ok = True
    for rep in run(args.suite, args.n, args.seed):
        _emit(rep)
        ok = ok and rep["ok"]
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crystaltiles",
        description=(
            "Rhombic tilings and their crystal combinatorics.  Flat vectors "
            "use the anchor word's root order throughout."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("words", help="enumerate reduced words of the longest element")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", action="store_true", help="print the count only")
    p.set_defaults(fn=_cmd_words)

    p = sub.add_parser("tiling", help="tile list and root order of a word, as JSON")
    p.add_argument("--word", type=_word, required=True)
    p.set_defaults(fn=_cmd_tiling)

    p = sub.add_parser("crossings", help="crossing paths of a word, as JSON")
    p.add_argument("--word", type=_word, required=True)
    p.add_argument("--a", type=int, help="restrict the listing to one strip")
    p.add_argument("--dual", action="store_true")
    p.set_defaults(fn=_cmd_crossings)

    p = sub.add_parser("crystal", help="apply a crystal operator to a datum")
    p.add_argument("--op", required=True, choices=["f", "e", "eps", "f*", "e*", "eps*"])
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--word", type=_word, required=True)
    p.add_argument("--datum", type=_datum, required=True)
    p.add_argument(
        "--oracle", action="store_true", help="use the transport rule instead of crossings"
    )
    p.set_defaults(fn=_cmd_crystal)

    p = sub.add_parser("string", help="string datum of a datum, or the string cone")
    p.add_argument("--word", type=_word, required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--datum", type=_datum)
    g.add_argument("--cone", action="store_true")
    p.set_defaults(fn=_cmd_string)

    p = sub.add_parser("bz", help="subset functions: construction and operator")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--from-lusztig", action="store_true", dest="from_lusztig")
    g.add_argument("--apply-f", action="store_true", dest="apply_f")
    p.add_argument("--word", type=_word)
    p.add_argument("--datum", type=_datum)
    p.add_argument("--n", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--values", type=_bz_values, help='JSON object like {"1": -1, "1,3": -1}')
    p.set_defaults(fn=_cmd_bz)

    p = sub.add_parser("cone", help="string-cone lattice points against the operators")
    p.add_argument("--polar-check", action="store_true", dest="polar_check")
    p.add_argument("--word", type=_word, required=True)
    p.add_argument("--box", type=int, default=3)
    p.set_defaults(fn=_cmd_cone)

    p = sub.add_parser("potential", help="crossing polynomials and potentials, as JSON")
    p.add_argument("--word", type=_word, required=True)
    p.add_argument("--a", type=int, required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--r", action="store_true", help="tile-coordinate crossing polynomial")
    g.add_argument("--ghkk", action="store_true", help="vertex coordinates via chamber map")
    g.add_argument("--bk", action="store_true", help="vertex coordinates via neighbour map")
    p.set_defaults(fn=_cmd_potential)

    p = sub.add_parser("render", help="write an SVG picture of a tiling")
    p.add_argument("--word", type=_word, required=True)
    p.add_argument("--svg-out", required=True, dest="svg_out")
    p.add_argument("--highlight", type=_pairs, help="tiles to shade, e.g. 1-2,2-3")
    p.add_argument("--comb", type=int, help="shade the a-comb instead")
    p.add_argument("--labels", action="store_true")
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("verify", help="run a verification suite and report JSON lines")
    p.add_argument("--suite", default="all", choices=["all", *SUITE_NAMES])
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_verify)

    return parser


def _usage_problem(args) -> str | None:
    """Why the parsed arguments cannot run, or None when they can."""
    cmd = args.command
    if cmd == "cone" and not args.polar_check:
        return "cone needs --polar-check"
    if cmd == "bz" and args.from_lusztig and None in (args.word, args.datum):
        return "bz --from-lusztig needs --word and --datum"
    if cmd == "bz" and args.apply_f and None in (args.n, args.a, args.values):
        return "bz --apply-f needs --n, --a and --values"
    word, datum = getattr(args, "word", None), getattr(args, "datum", None)
    if word is not None and datum is not None and len(datum) != len(word):
        return f"--datum needs {len(word)} entries, one per letter of --word"
    n = rank_of_word(word) if word is not None else getattr(args, "n", None)
    if n is not None and n < 2:
        return "--n must be at least 2"
    if cmd in ("words", "verify") and not getattr(args, "count", False) and too_many_words(n):
        return f"n = {n} has more than {MAX_ENUM_WORDS} reduced words; only words --count takes it"
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if cmd == "words" and args.count and digits and too_many_words(n, 10**digits - 1):
        return f"the number of reduced words for n = {n} has more than {digits} digits"
    if cmd == "bz" and args.apply_f:
        if not 2 <= args.n <= MAX_ENUM_RANK:
            return f"bz --apply-f needs 2 <= --n <= {MAX_ENUM_RANK}"
        unknown = sorted(set(args.values) - set(proper_subsets(args.n)))
        if unknown:
            keys = [_key(k) for k in unknown]
            return f"--values keys {keys} are not nonempty proper subsets of [{args.n}]"
        failures = validate_bz(_bz_datum(args))["failures"]
        if failures:
            return f"--values is not a BZ datum: {len(failures)} violations, first {failures[0]}"
    for flag in ("a", "comb"):
        letter = getattr(args, flag, None)
        if letter is not None and n is not None and not 1 <= letter <= n - 1:
            return f"--{flag} must lie in 1..{n - 1}"
    if getattr(args, "box", 0) < 0:
        return "--box must be nonnegative"
    crossing_route = cmd in ("crossings", "string", "cone", "potential") or (
        cmd == "crystal" and not args.oracle
    )
    if crossing_route and n > MAX_ENUM_RANK:
        route = "crystal without --oracle" if cmd == "crystal" else cmd
        return f"{route} reads crossing tables, built only for n <= {MAX_ENUM_RANK}"
    if cmd == "cone":
        side, power = args.box + 1, len(word) + 1
        if side > POLAR_CHECK_BUDGET or side**power > POLAR_CHECK_BUDGET:
            return (
                f"--box {args.box} is too large for a word of length {len(word)}:"
                f" (box + 1)^{power} exceeds {POLAR_CHECK_BUDGET}"
            )
    for s, t in getattr(args, "highlight", None) or ():
        if not 1 <= s < t <= n:
            return f"--highlight pair {s}-{t} is not a tile: need 1 <= s < t <= {n}"
    return None


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    problem = _usage_problem(args)
    if problem:
        parser.error(problem)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
