"""Command line front end.

Every command is pure: the same inputs and seed produce byte-identical
output.  Exit codes: 0 on success, 1 on domain errors, 2 on parse errors
(bad files, flags or command lines, and --out paths that cannot be
written); both errors are reported as machine-readable JSON on stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import modp3
from .autgroup import (
    act,
    format_group_element,
    induced_dual_element,
    parse_group_element,
    random_element,
)
from .hilbert import IntPoly, bott_h, check_dimension, euler_poly, line_bundle_hilb
from .monad import (
    CohTable,
    beilinson_shape,
    default_window,
    dual_beilinson_table,
    dualize,
    exactness_check,
    format_monad,
    hilbert_poly_of_cohomology,
    minimality_check,
    parse_field,
    parse_monad,
    validate,
)
from .polymat import ParseError


def _read(path: str | None) -> str:
    name = "stdin" if path in (None, "-") else path
    try:
        if name == "stdin":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {name}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{name} is not UTF-8: {exc}") from exc


def _write(path: str | None, text: str):
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def _emit_json(obj):
    sys.stdout.write(_json_line(obj))


def _poly_payload(p: IntPoly) -> dict:
    return {"poly": str(p), "coeffs": [str(c) for c in p.coeffs]}


def _parse_window(spec: str) -> range:
    lo, sep, hi = spec.partition(":")
    if not sep:
        raise ParseError(f"window must look like lo:hi, got {spec!r}")
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError as exc:
        raise ParseError(f"bad window {spec!r}") from exc
    if hi_i < lo_i:
        raise ParseError(f"empty window {spec!r}")
    return range(lo_i, hi_i + 1)


def _load_table(text: str) -> CohTable:
    """The table in text as table.schema.json has it, with int values only;
    an n above MAX_DIMENSION is the domain error monad files get."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"bad cohomology table: {exc}") from exc
    if not (isinstance(obj, dict) and obj.keys() == {"n", "d", "entries"}
            and isinstance(obj["entries"], list)
            and all(isinstance(e, list) and len(e) == 3 for e in obj["entries"])
            and all(type(x) is int for e in ([obj["n"], obj["d"]], *obj["entries"]) for x in e)
            and obj["n"] >= 1):
        raise ParseError("a cohomology table has integers n >= 1 and d and [i, p, h] entries")
    check_dimension(obj["n"])
    try:
        return CohTable(obj["n"], obj["d"], obj["entries"])
    except ValueError as exc:
        raise ParseError(f"bad cohomology table: {exc}") from exc


def _table_payload(t: CohTable) -> dict:
    return {"n": t.n, "d": t.d, "entries": [list(e) for e in t.entries]}


def _cmd_bott(args) -> int:
    h = bott_h(args.n, args.p, args.q, args.t)
    if args.json:
        _emit_json({"h": h})
    else:
        print(h)
    return 0


def _cmd_hilb(args) -> int:
    p = line_bundle_hilb(args.n, args.e)
    if args.json:
        _emit_json(_poly_payload(p))
    else:
        print(p)
    return 0


def _cmd_monad_validate(args) -> int:
    m = parse_monad(_read(args.infile))
    problems = validate(m)
    if args.json:
        _emit_json({"ok": not problems, "violations": problems})
    else:
        print("ok" if not problems else "\n".join(problems))
    return 0


def _cmd_monad_dualize(args) -> int:
    m = parse_monad(_read(args.infile))
    text = format_monad(dualize(m))
    _write(args.out, _json_line({"monad": text}) if args.json else text)
    return 0


def _cmd_monad_hilbert(args) -> int:
    m = parse_monad(_read(args.infile))
    p = hilbert_poly_of_cohomology(m)
    if args.json:
        _emit_json(_poly_payload(p))
    else:
        print(p)
    return 0


def _cmd_monad_exactness(args) -> int:
    m = parse_monad(_read(args.infile))
    window = _parse_window(args.window) if args.window else default_window(m)
    if args.positions:
        try:
            positions = [int(p) for p in args.positions.split(",")]
        except ValueError as exc:
            raise ParseError(f"bad positions {args.positions!r}") from exc
    else:
        positions = [i for i in range(m.lo, m.hi + 1) if i != m.cohomology_position]
    result = {str(p): ok for p, ok in exactness_check(m, positions, window).items()}
    lo, hi = window[0], window[-1]
    if args.json:
        _emit_json({"window": [lo, hi], "positions": result})
    else:
        for p, ok in result.items():
            print(f"{p}: {'exact' if ok else 'not exact'} on [{lo}, {hi}]")
    return 0


def _cmd_monad_minimality(args) -> int:
    m = parse_monad(_read(args.infile))
    ok = minimality_check(m)
    if args.json:
        _emit_json({"minimal": ok})
    else:
        print("minimal" if ok else "not minimal")
    return 0


def _cmd_beilinson_shape(args) -> int:
    table = _load_table(_read(args.infile))
    shape = beilinson_shape(table)
    if args.json:
        _emit_json({"terms": {str(i): list(s.twists) for i, s in shape.items() if s.rank}})
    else:
        for i in sorted(shape):
            if shape[i].rank:
                print(f"term {i}: {shape[i]}")
    return 0


def _cmd_beilinson_dualtable(args) -> int:
    table = _load_table(_read(args.infile))
    out = dual_beilinson_table(table)
    _write(args.out, _json_line(_table_payload(out)))
    return 0


def _cmd_group_random(args) -> int:
    if not 0 <= args.density <= 1:  # NaN fails both comparisons
        raise ParseError(f"density must lie in [0, 1], got {args.density}")
    m = parse_monad(_read(args.monad))
    g = random_element(m.field, m, seed=args.seed, density=args.density)
    _write(args.out, format_group_element(g))
    return 0


def _cmd_group_act(args) -> int:
    m = parse_monad(_read(args.monad))
    g = parse_group_element(_read(args.element))
    _write(args.out, format_monad(act(g, m)))
    return 0


def _cmd_group_dual(args) -> int:
    g = parse_group_element(_read(args.element))
    _write(args.out, format_group_element(induced_dual_element(g, args.codim)))
    return 0


def _max_tries(args) -> int:
    """--max-tries of p3 sample and p3 demo; below 1 no draw is made."""
    if args.max_tries < 1:
        raise ParseError(f"max-tries must be at least 1, got {args.max_tries}")
    return args.max_tries


def _cmd_p3_sample(args) -> int:
    field = parse_field(args.field)
    pt, tries, _ = modp3.sample_wss_stats(args.seed, field, _max_tries(args))
    text = format_monad(pt)
    if args.json:
        text = _json_line({"seed": args.seed, "tries": tries, "point": text})
    _write(args.out, text)
    return 0


def _cmd_p3_check(args) -> int:
    _emit_json(modp3.wss_membership(parse_monad(_read(args.infile))).to_dict())
    return 0


def _cmd_p3_dualize(args) -> int:
    pt = modp3.point_monad(parse_monad(_read(args.infile)))
    _write(args.out, format_monad(dualize(pt)))
    return 0


def _cmd_p3_demo(args) -> int:
    field = parse_field(args.field)
    report: dict = {"seed": args.seed, "field": repr(field)}
    monad, tries, res = modp3.sample_wss_stats(args.seed, field, _max_tries(args))
    report["tries"] = tries
    report["membership"] = res.to_dict()
    report["euler"] = str(euler_poly(monad))
    report["window_hilbert"] = str(hilbert_poly_of_cohomology(monad))
    dual_monad = dualize(monad)
    report["dual_twists"] = {str(i): list(dual_monad.terms[i].twists) for i in (-2, -1, 0)}
    report["dual_euler"] = str(euler_poly(dual_monad))
    g = random_element(field, monad, seed=args.seed + 1)
    gd = induced_dual_element(g, 2)
    report["equivariant"] = dualize(act(g, monad)) == act(gd, dual_monad)
    ok = (res.member and report["euler"] == "3*m + 1"
          and report["window_hilbert"] == "3*m + 1"
          and report["dual_euler"] == "3*m - 1" and report["equivariant"])
    report["ok"] = ok
    if args.json:
        _emit_json(report)
    else:
        print(f"sampled a point over {report['field']} (seed {args.seed}, "
              f"{tries} draw{'s' if tries != 1 else ''})")
        print(f"membership: {res.member}, clauses {res.clauses}")
        print(f"Hilbert polynomial: {report['euler']} (window check: "
              f"{report['window_hilbert']})")
        chain = " -> ".join(str(dual_monad.terms[i]) for i in (-2, -1, 0))
        print(f"dual resolution: {chain}")
        print(f"dual Hilbert polynomial: {report['dual_euler']}")
        print(f"duality commutes with the group action: {report['equivariant']}")
        print("demo ok" if ok else "demo FAILED")
    return 0 if ok else 1


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose errors raise ParseError instead of exiting;
    its subparsers are built from the same class."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it
    unchanged.  A malformed command line raises ParseError; --help exits."""
    ap = _ArgumentParser(
        prog="projmonad",
        description="Exact computations with complexes of twisted line bundles",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("bott", help="h^q of twisted p-forms on P^n")
    for flag in ("--n", "--p", "--q", "--t"):
        p.add_argument(flag, type=int, required=True)
    add_json(p)
    p.set_defaults(func=_cmd_bott)

    p = sub.add_parser("hilb", help="Hilbert polynomial of O(e) on P^n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    add_json(p)
    p.set_defaults(func=_cmd_hilb)

    monad = sub.add_parser("monad", help="operations on monad files").add_subparsers(
        dest="subcommand", required=True)

    p = monad.add_parser("validate", help="check the complex condition")
    p.add_argument("--in", dest="infile")
    add_json(p)
    p.set_defaults(func=_cmd_monad_validate)

    p = monad.add_parser("dualize", help="twisted dual complex")
    p.add_argument("--in", dest="infile")
    p.add_argument("--out")
    add_json(p)
    p.set_defaults(func=_cmd_monad_dualize)

    p = monad.add_parser("hilbert", help="Hilbert polynomial of the cohomology sheaf")
    p.add_argument("--in", dest="infile")
    add_json(p)
    p.set_defaults(func=_cmd_monad_hilbert)

    p = monad.add_parser("exactness", help="window exactness test")
    p.add_argument("--in", dest="infile")
    p.add_argument("--window", help="twist window lo:hi")
    p.add_argument("--positions", help="comma-separated positions")
    add_json(p)
    p.set_defaults(func=_cmd_monad_exactness)

    p = monad.add_parser("minimality", help="no constants between equal twists")
    p.add_argument("--in", dest="infile")
    add_json(p)
    p.set_defaults(func=_cmd_monad_minimality)

    beil = sub.add_parser("beilinson", help="canonical monad bookkeeping").add_subparsers(
        dest="subcommand", required=True)

    p = beil.add_parser("shape", help="terms of the canonical monad of a table")
    p.add_argument("--in", dest="infile")
    add_json(p)
    p.set_defaults(func=_cmd_beilinson_shape)

    p = beil.add_parser("dualtable", help="table of the twisted dual sheaf")
    p.add_argument("--in", dest="infile")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_beilinson_dualtable)

    grp = sub.add_parser("group", help="term automorphisms").add_subparsers(
        dest="subcommand", required=True)

    p = grp.add_parser("random", help="seeded random group element for a monad")
    p.add_argument("--monad", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--density", type=float, default=0.7, help="a number in [0, 1]")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_group_random)

    p = grp.add_parser("act", help="twist the differentials by an element")
    p.add_argument("--monad", required=True)
    p.add_argument("--element", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_group_act)

    p = grp.add_parser("dual", help="element acting on the dual complex")
    p.add_argument("--element", required=True)
    p.add_argument("--codim", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_group_dual)

    p3 = sub.add_parser("p3", help="the 3m+1 parameter space on P^3").add_subparsers(
        dest="subcommand", required=True)

    p = p3.add_parser("sample", help="seeded draw from the semistable locus")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--field", default="Fp:101")
    p.add_argument("--max-tries", type=int, default=32)
    p.add_argument("--out")
    add_json(p)
    p.set_defaults(func=_cmd_p3_sample)

    p = p3.add_parser("check", help="membership verdict with reason codes (JSON)")
    p.add_argument("--in", dest="infile")
    p.set_defaults(func=_cmd_p3_check)

    p = p3.add_parser("dualize", help="transpose onto the 3m-1 side")
    p.add_argument("--in", dest="infile")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_p3_dualize)

    p = p3.add_parser("demo", help="sample, check, dualize, verify")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", default="Fp:101")
    p.add_argument("--max-tries", type=int, default=32)
    add_json(p)
    p.set_defaults(func=_cmd_p3_demo)

    return ap


def run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except ParseError as exc:
        _emit_json({"error": {"kind": "parse", "message": str(exc)}})
        return 2
    except (ValueError, ZeroDivisionError, RuntimeError) as exc:
        _emit_json({"error": {"kind": "domain", "message": str(exc)}})
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
