"""Command line front end.

Every command is pure: the same inputs and seed produce byte-identical
output.  Every command ends in one `_emit`, the one way out: text or a
JSON line, to --out or stdout.  Exit codes: 0 on success, 1 on domain
errors, 2 on parse errors (bad files, flags or command lines, and --out
paths that cannot be written); both errors are reported as
machine-readable JSON on stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
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


def _emit(args, payload, text: str | None = None):
    """The one way out of every command: text, or payload as one
    sorted-key JSON line under --json or when the command has no text
    form; to the --out file where the command takes one, to stdout
    otherwise.  run passes args None, so its error JSON goes to stdout."""
    if text is None or getattr(args, "json", False):
        text = json.dumps(payload, sort_keys=True) + "\n"
    path = getattr(args, "out", None)
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


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


def _cmd_bott(args):
    h = bott_h(args.n, args.p, args.q, args.t)
    _emit(args, {"h": h}, f"{h}\n")


def _cmd_hilb(args):
    p = line_bundle_hilb(args.n, args.e)
    _emit(args, _poly_payload(p), f"{p}\n")


def _cmd_monad_validate(args):
    m = parse_monad(_read(args.infile))
    problems = validate(m)
    _emit(args, {"ok": not problems, "violations": problems},
          "\n".join(problems or ["ok"]) + "\n")


def _cmd_monad_dualize(args):
    m = parse_monad(_read(args.infile))
    text = format_monad(dualize(m))
    _emit(args, {"monad": text}, text)


def _cmd_monad_hilbert(args):
    m = parse_monad(_read(args.infile))
    p = hilbert_poly_of_cohomology(m)
    _emit(args, _poly_payload(p), f"{p}\n")


def _cmd_monad_exactness(args):
    m = parse_monad(_read(args.infile))
    window = _parse_window(args.window) if args.window is not None else default_window(m)
    if args.positions is not None:
        try:
            positions = [int(p) for p in args.positions.split(",")]
        except ValueError as exc:
            raise ParseError(f"bad positions {args.positions!r}") from exc
    else:
        positions = [i for i in range(m.lo, m.hi + 1) if i != m.cohomology_position]
    result = {str(p): ok for p, ok in exactness_check(m, positions, window).items()}
    lo, hi = window[0], window[-1]
    _emit(args, {"window": [lo, hi], "positions": result},
          "".join(f"{p}: {'exact' if ok else 'not exact'} on [{lo}, {hi}]\n"
                  for p, ok in result.items()))


def _cmd_monad_minimality(args):
    m = parse_monad(_read(args.infile))
    ok = minimality_check(m)
    _emit(args, {"minimal": ok}, "minimal\n" if ok else "not minimal\n")


def _cmd_beilinson_shape(args):
    table = _load_table(_read(args.infile))
    shape = beilinson_shape(table)
    _emit(args, {"terms": {str(i): list(s.twists) for i, s in shape.items() if s.rank}},
          "".join(f"term {i}: {shape[i]}\n" for i in sorted(shape) if shape[i].rank))


def _cmd_beilinson_dualtable(args):
    table = _load_table(_read(args.infile))
    out = dual_beilinson_table(table)
    _emit(args, {"n": out.n, "d": out.d, "entries": [list(e) for e in out.entries]})


def _cmd_group_random(args):
    if not 0 <= args.density <= 1:  # NaN fails both comparisons
        raise ParseError(f"density must lie in [0, 1], got {args.density}")
    m = parse_monad(_read(args.monad))
    g = random_element(m.field, m, seed=args.seed, density=args.density)
    _emit(args, None, format_group_element(g))


def _cmd_group_act(args):
    m = parse_monad(_read(args.monad))
    g = parse_group_element(_read(args.element))
    _emit(args, None, format_monad(act(g, m)))


def _cmd_group_dual(args):
    g = parse_group_element(_read(args.element))
    _emit(args, None, format_group_element(induced_dual_element(g, args.codim)))


def _max_tries(args) -> int:
    """--max-tries of p3 sample and p3 demo; below 1 no draw is made."""
    if args.max_tries < 1:
        raise ParseError(f"max-tries must be at least 1, got {args.max_tries}")
    return args.max_tries


def _cmd_p3_sample(args):
    field = parse_field(args.field)
    pt, tries, _ = modp3.sample_wss_stats(args.seed, field, _max_tries(args))
    text = format_monad(pt)
    _emit(args, {"seed": args.seed, "tries": tries, "point": text}, text)


def _cmd_p3_check(args):
    _emit(args, modp3.wss_membership(parse_monad(_read(args.infile))))


def _cmd_p3_dualize(args):
    pt = modp3.point_monad(parse_monad(_read(args.infile)))
    _emit(args, None, format_monad(dualize(pt)))


def _cmd_p3_demo(args):
    field = parse_field(args.field)
    report: dict = {"seed": args.seed, "field": repr(field)}
    monad, tries, res = modp3.sample_wss_stats(args.seed, field, _max_tries(args))
    report["tries"] = tries
    report["membership"] = res
    report["euler"] = str(euler_poly(monad))
    report["window_hilbert"] = str(hilbert_poly_of_cohomology(monad))
    dual_monad = dualize(monad)
    positions = range(dual_monad.lo, dual_monad.hi + 1)
    report["dual_twists"] = {str(i): list(dual_monad.terms[i].twists) for i in positions}
    report["dual_euler"] = str(euler_poly(dual_monad))
    g = random_element(field, monad, seed=args.seed + 1)
    gd = induced_dual_element(g, monad.c)
    report["equivariant"] = dualize(act(g, monad)) == act(gd, dual_monad)
    ok = (res["member"] and report["euler"] == "3*m + 1"
          and report["window_hilbert"] == "3*m + 1"
          and report["dual_euler"] == "3*m - 1" and report["equivariant"])
    report["ok"] = ok
    chain = " -> ".join(str(dual_monad.terms[i]) for i in positions)
    _emit(args, report,
          f"sampled a point over {report['field']} (seed {args.seed}, "
          f"{tries} draw{'s' if tries != 1 else ''})\n"
          f"membership: {res['member']}, clauses {res['clauses']}\n"
          f"Hilbert polynomial: {report['euler']} (window check: "
          f"{report['window_hilbert']})\n"
          f"dual resolution: {chain}\n"
          f"dual Hilbert polynomial: {report['dual_euler']}\n"
          f"duality commutes with the group action: {report['equivariant']}\n"
          f"demo {'ok' if ok else 'FAILED'}\n")
    return 0 if ok else 1


class _SubParsersAction(argparse._SubParsersAction):
    """A command choice whose parser's error waits for the parser above."""

    def __call__(self, parser, namespace, *args):
        try:
            super().__call__(parser, namespace, *args)
        except ParseError as exc:
            namespace.command_error = exc


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose errors raise ParseError instead of exiting;
    its subparsers are built from the same class.  A value that starts with
    a minus and a digit, as in --window -3:2, is read as a value, never a
    flag.  Arguments a parser leaves over are its own error, so the
    innermost command that saw them names itself, before any error of a
    command chosen after them."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")
        self.register("action", "parsers", _SubParsersAction)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        if hasattr(namespace, "command_error"):
            raise namespace.command_error
        return namespace, extras

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

    def group(name, help):
        return sub.add_parser(name, help=help).add_subparsers(dest="subcommand", required=True)

    def command(parent, name, help, func, shared, *own):
        """One command: the shared flags named in shared around its own
        (flag, options) pairs, --in first, then --out and --json last."""
        p = parent.add_parser(name, help=help)
        shared = shared.split()
        if "in" in shared:
            p.add_argument("--in", dest="infile")
        for flag, options in own:
            p.add_argument(flag, **options)
        if "out" in shared:
            p.add_argument("--out")
        if "json" in shared:
            p.add_argument("--json", action="store_true", help="emit JSON")
        p.set_defaults(func=func)

    required = {"required": True}
    integer = {"type": int, "required": True}
    field = ("--field", {"default": "Fp:101"})
    max_tries = ("--max-tries", {"type": int, "default": 32})

    command(sub, "bott", "h^q of twisted p-forms on P^n", _cmd_bott, "json",
            *[(flag, integer) for flag in ("--n", "--p", "--q", "--t")])
    command(sub, "hilb", "Hilbert polynomial of O(e) on P^n", _cmd_hilb, "json",
            ("--n", integer), ("--e", integer))

    monad = group("monad", "operations on monad files")
    command(monad, "validate", "check the complex condition", _cmd_monad_validate, "in json")
    command(monad, "dualize", "twisted dual complex", _cmd_monad_dualize, "in out json")
    command(monad, "hilbert", "Hilbert polynomial of the cohomology sheaf",
            _cmd_monad_hilbert, "in json")
    command(monad, "exactness", "window exactness test", _cmd_monad_exactness, "in json",
            ("--window", {"help": "twist window lo:hi"}),
            ("--positions", {"help": "comma-separated positions"}))
    command(monad, "minimality", "no constants between equal twists",
            _cmd_monad_minimality, "in json")

    beil = group("beilinson", "canonical monad bookkeeping")
    command(beil, "shape", "terms of the canonical monad of a table", _cmd_beilinson_shape,
            "in json")
    command(beil, "dualtable", "table of the twisted dual sheaf", _cmd_beilinson_dualtable,
            "in out")

    grp = group("group", "term automorphisms")
    command(grp, "random", "seeded random group element for a monad", _cmd_group_random,
            "out", ("--monad", required), ("--seed", integer),
            ("--density", {"type": float, "default": 0.7, "help": "a number in [0, 1]"}))
    command(grp, "act", "twist the differentials by an element", _cmd_group_act, "out",
            ("--monad", required), ("--element", required))
    command(grp, "dual", "element acting on the dual complex", _cmd_group_dual, "out",
            ("--element", required), ("--codim", integer))

    p3 = group("p3", "the 3m+1 parameter space on P^3")
    command(p3, "sample", "seeded draw from the semistable locus", _cmd_p3_sample,
            "out json", ("--seed", integer), field, max_tries)
    command(p3, "check", "membership verdict with reason codes (JSON)", _cmd_p3_check, "in")
    command(p3, "dualize", "transpose onto the 3m-1 side", _cmd_p3_dualize, "in out")
    command(p3, "demo", "sample, check, dualize, verify", _cmd_p3_demo, "json",
            ("--seed", {"type": int, "default": 0}), field, max_tries)

    return ap


def run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args) or 0  # only a failed p3 demo returns its exit code, 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except ParseError as exc:
        _emit(None, {"error": {"kind": "parse", "message": str(exc)}})
        return 2
    except (ValueError, ZeroDivisionError, RuntimeError) as exc:
        _emit(None, {"error": {"kind": "domain", "message": str(exc)}})
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
