"""The four benchmark workloads: input generation, ops and output checks.

A workload is a list of rounds and a round is a short list of ops.  The
timed phase always ends on a round boundary, so every run holds the same
mix of op kinds in the same proportions whatever its length.

Every op reaches the program through its public API (`projmonad.cli.run`
or a library function), looked up on its module at call time so that the
traced run sees the wrapped functions.  Checks compare against references
that the timed code does not produce, and run after the op's timer stops.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from projmonad import autgroup, cli, complexes, hilbert, modp3, monad, polymat
from projmonad.scalar import GF, QQ

# Pool sizes, in rounds.  Each is several times what one run uses today
# (see README.md); a run that exhausts its pool stops early and says so.
POOL_ROUNDS = {"p3_fp": 512, "hilbert_q": 32, "bott_grid": 64, "group_action": 16}


class OpError(Exception):
    """An op exited nonzero."""


@dataclass
class Op:
    """One timed unit of work.

    run() is timed; collect(result) turns its result into the output byte
    strings (reading output files if any) outside the timer; check(parts)
    returns None when the output is correct and a message otherwise.
    """

    kind: str
    run: Callable[[], object]
    collect: Callable[[object], list[bytes]]
    check: Callable[[list[bytes]], str | None]


@dataclass
class Round:
    ops: list[Op]
    prepare: Callable[[], None] | None = None


def cli_call(argv: list[str]) -> str:
    """Run one CLI command in-process; return its stdout, raise on nonzero exit."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    if code != 0:
        raise OpError(f"exit {code} from {' '.join(argv)}: {buf.getvalue()[:300]}")
    return buf.getvalue()


def _stdout_op(kind: str, argv: list[str], check) -> Op:
    return Op(kind, lambda: cli_call(argv), lambda out: [out.encode()], check)


def _unseen(seen: set[str], draw, fmt) -> tuple[object, str]:
    """Draw until the formatted input is new to this run."""
    while True:
        obj = draw()
        text = fmt(obj)
        if text not in seen:
            seen.add(text)
            return obj, text


# ---------------------------------------------------------------------------
# p3_fp: the paper's main pipeline, `p3 demo`, over a small and a large prime.

P3_FIELDS = ("Fp:101", "Fp:2147483647")


def _check_p3(parts: list[bytes]) -> str | None:
    report = json.loads(parts[0])
    want = {"ok": True, "euler": "3*m + 1", "window_hilbert": "3*m + 1",
            "dual_euler": "3*m - 1"}
    bad = {k: report.get(k) for k, v in want.items() if report.get(k) != v}
    return f"p3 demo report differs: {bad}" if bad else None


def p3_fp(seed: int, workdir: Path, rounds: int) -> list[Round]:
    out = []
    for r in range(rounds):
        ops = []
        for j, field in enumerate(P3_FIELDS):
            argv = ["p3", "demo", "--json", "--seed", str(seed + 2 * r + j),
                    "--field", field]
            ops.append(_stdout_op(field, argv, _check_p3))
        out.append(Round(ops))
    return out


# ---------------------------------------------------------------------------
# hilbert_q: windowed Hilbert polynomials over Q.  Points under a signed
# coordinate permutation keep small entries (int64 Bareiss); translates of
# a line by a random automorphism carry large ones (big-integer Bareiss).

# kind, constructor, dualize?, Hilbert polynomial of the cohomology sheaf
POINT_KINDS = (
    ("cubic", modp3.twisted_cubic_point, False, "3*m + 1"),
    ("forbidden", modp3.forbidden_form_point, False, "3*m + 1"),
    ("cubic-dual", modp3.twisted_cubic_point, True, "3*m - 1"),
    ("forbidden-dual", modp3.forbidden_form_point, True, "3*m - 1"),
)
LINE_POLY = "m + 1"


def _substitute_poly(p: polymat.HomogPoly, perm, signs) -> polymat.HomogPoly:
    """Apply x_i -> signs[i] * x_perm[i] to a form."""
    terms = {}
    for mono, coeff in p.terms.items():
        image = [0] * len(mono)
        negate = False
        for i, e in enumerate(mono):
            image[perm[i]] = e
            negate ^= signs[i] < 0 and e % 2 == 1
        terms[tuple(image)] = -coeff if negate else coeff
    return polymat.HomogPoly(p.field, p.n, p.degree, terms)


def signed_permutation(m: monad.Monad, perm, signs) -> monad.Monad:
    """The complex under the coordinate change x_i -> signs[i] * x_perm[i].

    A ring automorphism applied entrywise keeps d.d = 0 and the Hilbert
    polynomial of the cohomology sheaf.
    """
    diffs = {i: polymat.GradedMatrix(
        d.field, d.source, d.target,
        [[_substitute_poly(p, perm, signs) for p in row] for row in d.entries])
        for i, d in m.diffs.items()}
    return monad.Monad(m.field, m.n, m.terms, diffs, m.c, m.cohomology_position)


def _hilbert_op(kind: str, m: monad.Monad, path: Path, expected: str) -> Op:
    def check(parts: list[bytes]) -> str | None:
        got = json.loads(parts[0])["poly"]
        euler = str(hilbert.euler_poly(m))
        if got != expected or got != euler:
            return f"{kind}: printed {got}, expected {expected}, Euler polynomial {euler}"
        return None

    return _stdout_op(kind, ["monad", "hilbert", "--in", str(path), "--json"], check)


def hilbert_q(seed: int, workdir: Path, rounds: int) -> list[Round]:
    rng = random.Random(seed)
    bases = {kind: (monad.dualize(modp3.point_monad(make(QQ))) if dual
                    else modp3.point_monad(make(QQ)))
             for kind, make, dual, _ in POINT_KINDS}
    line = complexes.line_monad(QQ, 3)
    seen: set[str] = set()

    def permuted(kind):
        perm = rng.sample(range(4), 4)
        signs = [rng.choice((1, -1)) for _ in range(4)]
        return signed_permutation(bases[kind], perm, signs)

    def translated():
        g = autgroup.random_element(QQ, line, seed=rng.randrange(2 ** 31), density=0.7)
        return autgroup.act(g, line)

    out = []
    for r in range(rounds):
        kind, _, _, poly = POINT_KINDS[r % len(POINT_KINDS)]
        ops = []
        for j, (k, draw, expected) in enumerate(((kind, lambda: permuted(kind), poly),
                                                  ("line", translated, LINE_POLY))):
            m, text = _unseen(seen, draw, monad.format_monad)
            path = workdir / f"hilbert_{r}_{j}.monad"
            path.write_text(text, encoding="utf-8")
            ops.append(_hilbert_op(k, m, path, expected))
        out.append(Round(ops))
    return out


# ---------------------------------------------------------------------------
# bott_grid: the Bott table of P^4 from the Euler resolutions, entry by entry.

BOTT_N = 4
BOTT_GRID = tuple((p, t) for p in range(BOTT_N + 1) for t in range(-6, 7))


def _clear_caches():
    """Empty the program's caches, as a fresh interpreter has them."""
    monad._sections_rank.cache_clear()
    polymat.monomials_of_degree.cache_clear()
    polymat.monomial_index.cache_clear()


def _bott_op(p: int, t: int) -> Op:
    def run():
        brute = monad.sheaf_cohomology(complexes.omega_resolution(QQ, BOTT_N, p, t), 0)
        closed = [hilbert.bott_h(BOTT_N, p, q, t) for q in range(BOTT_N + 1)]
        return brute, closed

    def collect(result) -> list[bytes]:
        return [json.dumps([p, t, *result]).encode()]

    def check(parts: list[bytes]) -> str | None:
        _, _, brute, closed = json.loads(parts[0])
        ref = [hilbert.bott_h(BOTT_N, p, q, t) for q in range(BOTT_N + 1)]
        if brute != ref or closed != ref:
            return f"h^q(Omega^{p}({t})): resolution {brute}, table {closed}, Bott {ref}"
        return None

    return Op(f"p{p}", run, collect, check)


def bott_grid(seed: int, workdir: Path, rounds: int) -> list[Round]:
    """One round is the whole grid in a seeded order, starting from empty
    caches, so each round repeats the cache behaviour of one CLI call."""
    rng = random.Random(seed)
    out = []
    for _ in range(rounds):
        order = list(BOTT_GRID)
        rng.shuffle(order)
        out.append(Round([_bott_op(p, t) for p, t in order], prepare=_clear_caches))
    return out


# ---------------------------------------------------------------------------
# group_action: the action square through the CLI on direct sums of two
# Koszul complexes.  Polynomial algebra, parsing and formatting; little rank.

GROUP_CODIM = 2
GROUP_VARIABLES = (((0, 1, 2), (1, 3)), ((0, 1), (2, 3)), ((0, 1, 2), (1, 2, 3)))
GROUP_SHAPES = tuple((n, field, a, b, gap)
                     for n in (3, 4)
                     for field in (GF(101), QQ)
                     for a, b in GROUP_VARIABLES
                     for gap in (2, 3))


def _group_monad(n, field, a, b, gap) -> monad.Monad:
    return complexes.direct_sum(
        complexes.koszul_monad(field, n, a, twist=0, c=GROUP_CODIM),
        complexes.koszul_monad(field, n, b, twist=-gap, c=GROUP_CODIM))


def _group_op(kind: str, m_path: Path, g_path: Path, workdir: Path) -> Op:
    acted, d1, gd, md, d2 = (workdir / name for name in
                             ("acted.monad", "d1.monad", "gd.element", "md.monad", "d2.monad"))
    calls = (
        ["group", "act", "--monad", str(m_path), "--element", str(g_path), "--out", str(acted)],
        ["monad", "dualize", "--in", str(acted), "--out", str(d1)],
        ["group", "dual", "--element", str(g_path), "--codim", str(GROUP_CODIM),
         "--out", str(gd)],
        ["monad", "dualize", "--in", str(m_path), "--out", str(md)],
        ["group", "act", "--monad", str(md), "--element", str(gd), "--out", str(d2)],
    )

    def run():
        return [cli_call(argv) for argv in calls]

    def collect(stdouts) -> list[bytes]:
        return [s.encode() for s in stdouts] + [p.read_bytes() for p in (acted, d1, gd, md, d2)]

    def check(parts: list[bytes]) -> str | None:
        acted_text, d1_text, d2_text = parts[5], parts[6], parts[9]
        if d1_text != d2_text:
            return f"{kind}: the action square does not commute"
        problems = monad.validate(monad.parse_monad(acted_text.decode()))
        return f"{kind}: acted complex invalid: {problems}" if problems else None

    return Op(kind, run, collect, check)


def group_action(seed: int, workdir: Path, rounds: int) -> list[Round]:
    rng = random.Random(seed)
    monads = []
    for k, shape in enumerate(GROUP_SHAPES):
        m = _group_monad(*shape)
        path = workdir / f"group_{k}.monad"
        path.write_text(monad.format_monad(m), encoding="utf-8")
        monads.append((m, path))
    seen: set[str] = set()
    out = []
    for r in range(rounds):
        order = list(range(len(GROUP_SHAPES)))
        rng.shuffle(order)
        ops = []
        for k in order:
            m, m_path = monads[k]
            _, text = _unseen(seen, lambda: autgroup.random_element(
                m.field, m, seed=rng.randrange(2 ** 31), density=0.7),
                autgroup.format_group_element)
            g_path = workdir / f"group_{r}_{k}.element"
            g_path.write_text(text, encoding="utf-8")
            n, field = GROUP_SHAPES[k][:2]
            ops.append(_group_op(f"P{n}/{field!r}/shape{k}", m_path, g_path, workdir))
        out.append(Round(ops))
    return out


GENERATORS = {"p3_fp": p3_fp, "hilbert_q": hilbert_q, "bott_grid": bott_grid,
              "group_action": group_action}


def generate(workload: str, seed: int, workdir: Path) -> list[Round]:
    return GENERATORS[workload](seed, workdir, POOL_ROUNDS[workload])
