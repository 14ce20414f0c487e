"""Bounded complexes of twisted free sheaves and their invariants.

A Monad is a complex C^lo -> ... -> C^hi of free sheaves with d.d = 0,
a declared support codimension c and a marked cohomology position (the
convention is position 0).  Dualization applies Hom(-, O(-n-1)) and
reindexes so that a complex resolving a codimension-c sheaf again has
its cohomology at the marked spot; on the underlying data it is an
exact involution.

Hilbert functions and sheaf cohomology are read off one computation:
the row-0 section complex, whose value at position q in twist t is
h^0(L_q(t)) minus the ranks of the adjacent multiplication matrices.
With L_q = sum_j O(-a_qj), every H^n(L_q(t)) vanishes for
t >= t_n = max a_qj - n, so on a complex exact away from its marked
position p the value at q is h^{q-p}(F(t)).  hilbert_poly_of_cohomology
slides a window up from t_n until every q > p reads 0 and insists that
the values at p reproduce the Euler polynomial; sheaf_cohomology reads
row 0 at t and row n as row 0 of the dual complex at -t.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .hilbert import InterpolationError, IntPoly, check_dimension, euler_poly, interpolate
from .linalg import rank
from .polymat import (
    MAX_DEGREE,
    FreeSheaf,
    GradedMatrix,
    ParseBudget,
    ParseError,
    compose,
    dual_hom,
    parse_poly,
    parse_twists,
    sections_matrix,
)
from .scalar import GF, QQ, Field


class WindowDisagreementError(RuntimeError):
    """Degreewise Hilbert data refused to match the Euler polynomial."""


class Monad:
    """A complex of free sheaves with declared codimension and marked position."""

    __slots__ = ("field", "n", "lo", "hi", "terms", "diffs", "c", "cohomology_position")

    def __init__(self, field: Field, n: int, terms: dict[int, FreeSheaf],
                 diffs: dict[int, GradedMatrix], c: int, cohomology_position: int):
        if not terms:
            raise ValueError("a monad needs at least one term")
        lo, hi = min(terms), max(terms)
        if set(terms) != set(range(lo, hi + 1)):
            raise ValueError("term indices must be consecutive")
        if not 1 <= c <= n:
            raise ValueError(f"codimension {c} out of range 1..{n}")
        if not lo <= cohomology_position <= hi:
            raise ValueError("cohomology position outside the index range")
        for i, sheaf in terms.items():
            if sheaf.n != n:
                raise ValueError(f"term {i} lives on P^{sheaf.n}, not P^{n}")
        for i, d in diffs.items():
            if i < lo or i >= hi:
                raise ValueError(f"differential at {i} has no adjacent terms")
            if d.field != field:
                raise ValueError(f"differential at {i} over the wrong field")
            if d.source != terms[i] or d.target != terms[i + 1]:
                raise ValueError(f"differential at {i} does not match its terms")
        self.field = field
        self.n = n
        self.lo = lo
        self.hi = hi
        self.terms = dict(terms)
        self.diffs = {i: diffs[i] if i in diffs
                      else GradedMatrix.zero(field, terms[i], terms[i + 1])
                      for i in range(lo, hi)}
        self.c = c
        self.cohomology_position = cohomology_position

    def max_twist_magnitude(self) -> int:
        return max((abs(e) for s in self.terms.values() for e in s.twists), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, Monad)
            and other.field == self.field
            and other.n == self.n
            and other.terms == self.terms
            and other.diffs == self.diffs
            and other.c == self.c
            and other.cohomology_position == self.cohomology_position
        )

    def __hash__(self):
        return hash((self.field, self.n, tuple(sorted(self.terms.items())),
                     tuple(sorted(self.diffs.items())), self.c, self.cohomology_position))

    def __repr__(self):
        chain = " -> ".join(str(self.terms[i]) for i in range(self.lo, self.hi + 1))
        return f"Monad(P^{self.n}, {chain})"


def validate(m: Monad) -> list[str]:
    """Report every failure of the complex condition; empty means ok."""
    return [f"d({i + 1}).d({i}) != 0" for i in range(m.lo, m.hi - 1)
            if not compose(m.diffs[i + 1], m.diffs[i]).is_zero()]


def dualize(m: Monad) -> Monad:
    """Hom(-, O(-n-1)) with the codimension-c reindexing i -> -i-c.

    The dual of the term at -i-c sits at i and the differential at i is
    the transpose of the one at -i-c-1; transposition preserves d.d = 0,
    so validity survives.  Applying dualize twice restores the data.
    """
    c = m.c
    terms = {-(i + c): m.terms[i].dual() for i in m.terms}
    diffs = {}
    for i in range(min(terms), max(terms)):
        diffs[i] = dual_hom(m.diffs[-i - c - 1])
    # A complex resolving a codimension-c sheaf at position k extends at
    # least c steps to its left, and then -k lies in the dual range; for
    # data without that headroom the position is clamped into range.
    pos = min(max(-m.cohomology_position, min(terms)), max(terms))
    return Monad(m.field, m.n, terms, diffs, c, pos)


@lru_cache(maxsize=256)
def _sections_rank(d: GradedMatrix, t: int) -> int:
    return rank(sections_matrix(d, t))


def _section_values(terms, diffs, positions, t: int) -> dict[int, int]:
    """Row-0 section-complex values at the given positions in twist t:
    h^0(L_q(t)) minus the ranks of the section matrices next to q, each
    ranked once (a missing differential counts as zero)."""
    ranks = {}
    values = {}
    for q in positions:
        value = terms[q].sections_dim(t)
        for i in (q - 1, q):
            if i not in ranks:
                d = diffs.get(i)
                ranks[i] = _sections_rank(d, t) if d is not None else 0
            value -= ranks[i]
        values[q] = value
    return values


def cohomology_hilbert_function(m: Monad, position: int, t_range) -> list[int]:
    """Degreewise cohomology dimensions at one position across twists:
    the row-0 section-complex value of _section_values at each t."""
    if not m.lo <= position <= m.hi:
        raise ValueError(f"position {position} outside [{m.lo}, {m.hi}]")
    return [_section_values(m.terms, m.diffs, (position,), t)[position] for t in t_range]


def default_window(m: Monad) -> range:
    """The heuristic window [T, T+n+1] with T = (n+1) + max |twist|."""
    t0 = (m.n + 1) + m.max_twist_magnitude()
    return range(t0, t0 + m.n + 2)


def hilbert_poly_of_cohomology(m: Monad) -> IntPoly:
    """Hilbert polynomial of the cohomology sheaf F = H^p, p the marked
    position: the degreewise values at p on n+2 twists, interpolated with
    degree bound n - c, must equal the Euler polynomial (with the sign p
    dictates); otherwise WindowDisagreementError.

    Why the window is right when the complex is exact away from p; write
    L_q = sum_j O(-a_qj) (Eisenbud, The Geometry of Syzygies, ch. 4):

    - Hypercohomology of L(t) gives E_1^{q,r} = H^r(L_q(t)) =>
      H^{q+r-p}(F(t)).  Line bundles have no middle cohomology, so only
      the rows r = 0 and r = n are nonzero.
    - H^n(O(t - a)) = 0 once t - a >= -n, so for t >= t_n = max a_qj - n
      row n vanishes and the section complex at q computes h^{q-p}(F(t)).
    - So where every q > p reads 0, all higher cohomology of F(t)
      vanishes, and the value at p is h^0(F(t)) = chi(F(t)).  A nonzero
      value at some q < p proves that the complex resolves no sheaf at p;
      the error names the first such q.

    The window starts at t_n, never above the Castelnuovo-Mumford bound
    max (a_qj - (p - q)) of a resolution (p - q <= n), and slides up one
    twist at a time to the first n+2 twists on which every q > p reads 0:
    after 2(n+2) twists from the heuristic start T of default_window on,
    if not past it, and up to T + 2(n+2), the end of the old window and
    its retry.  Each stretch passes _check_window_size at q >= p before
    it is entered, the positions q < p just before they are ranked.
    """
    target = euler_poly(m)
    p = m.cohomology_position
    if p % 2:
        target = -target
    n, width = m.n, m.n + 2
    t_n = max((-e for s in m.terms.values() for e in s.twists), default=0) - n
    heuristic = default_window(m).start
    stop = heuristic + 2 * width
    ahead = range(p, m.hi + 1)
    _check_window_size(m, ahead, range(t_n, t_n + 2 * width))
    start = t = t_n
    while p < m.hi and t < start + width:
        if t == t_n + 2 * width:
            if t < heuristic:
                start = t = heuristic
            _check_window_size(m, ahead, range(t, stop))
        if t == stop:
            raise _disagreement(m, target, t_n)
        if any(_section_values(m.terms, m.diffs, ahead[1:], t).values()):
            start = t + 1
        t += 1
    values = cohomology_hilbert_function(m, p, range(start, start + width))
    try:
        if interpolate(values, start, n - m.c) == target:
            return target
    except InterpolationError:
        pass
    raise _disagreement(m, target, t_n)


def _disagreement(m: Monad, target: IntPoly, t_n: int) -> WindowDisagreementError:
    """The error, naming the first q < p that reads nonzero on [t_n, t_n+n+1]."""
    p = m.cohomology_position
    exact = exactness_check(m, range(m.lo, p), range(t_n, t_n + m.n + 2))
    bad = [q for q, ok in exact.items() if not ok]
    cause = f"; position {bad[0]} is not exact, so no sheaf is resolved at {p}" if bad else ""
    return WindowDisagreementError(
        f"window disagreement: degreewise values do not match {target}{cause}")


# Most entries (rows x cols) allowed in one section matrix: 5 times the
# largest the test suite builds (11700 x 15600), now only in the old-window
# oracle of tests/conftest.py, on an Omega resolution of P^3.  Shipped
# windows of those stay under 140 x 120, the benchmark's under 630 x 700.
MAX_SECTION_ENTRIES = 10 ** 9

# Most rows, and most columns, allowed in one section matrix: 12 times
# the longest side the test suite builds (15600), and more than 100
# times any other shipped computation's.  Rows cost memory even when
# empty: a window that tops out at 125800 x 165 peaks near 200 MB.
MAX_SECTION_SIDE = 200_000

# Most twists allowed in one window test: 1000 times the 2(n+2) = 10
# twists that a Hilbert window on P^3 checks up front.
MAX_WINDOW_TWISTS = 10 ** 4


def _check_window_size(m: Monad, positions, t_range):
    """Refuse, before anything is built, a window too large to compute.

    A window of more than MAX_WINDOW_TWISTS twists is refused before it
    is listed.  Section dimensions grow with t, so the matrices at the
    top of the window are the largest; a window whose largest matrix at
    one of the positions has more than MAX_SECTION_ENTRIES entries, or a
    side longer than MAX_SECTION_SIDE, is refused as well.
    """
    # len() of a range past sys.maxsize raises OverflowError; a slice does not
    if t_range[MAX_WINDOW_TWISTS:]:
        count = (t_range[-1] - t_range[0]) // t_range.step + 1
        raise ValueError(f"window of {count} twists, more than {MAX_WINDOW_TWISTS}")
    if not t_range:
        return
    t = max(t_range)
    for pos in positions:
        for d in (m.diffs.get(pos), m.diffs.get(pos - 1)):
            if d is None:
                continue
            rows, cols = d.target.sections_dim(t), d.source.sections_dim(t)
            if rows * cols > MAX_SECTION_ENTRIES:
                raise ValueError(
                    f"twist {t} needs a {rows}x{cols} section matrix, more than "
                    f"{MAX_SECTION_ENTRIES} entries")
            if max(rows, cols) > MAX_SECTION_SIDE:
                raise ValueError(
                    f"twist {t} needs a {rows}x{cols} section matrix, a side longer "
                    f"than {MAX_SECTION_SIDE}")


def exactness_check(m: Monad, positions, t_range) -> dict[int, bool]:
    """Window test: a position passes when its Hilbert data vanishes.

    Vanishing on a window is evidence, not proof, of exactness there.
    The window passes _check_window_size first; each twist ranks only
    the differentials next to the positions asked for.
    """
    _check_window_size(m, positions, t_range)
    if bad := [q for q in positions if not m.lo <= q <= m.hi]:
        raise ValueError(f"position {bad[0]} outside [{m.lo}, {m.hi}]")
    exact = dict.fromkeys(positions, True)
    for t in t_range:
        for q, value in _section_values(m.terms, m.diffs, exact, t).items():
            if value:
                exact[q] = False
    return exact


def minimality_check(m: Monad) -> bool:
    """True when no differential carries a nonzero constant between equal twists."""
    for i in range(m.lo, m.hi):
        d = m.diffs[i]
        for r, f in enumerate(d.target.twists):
            for s, e in enumerate(d.source.twists):
                if f == e and not d.entries[r][s].is_zero():
                    return False
    return True


def sheaf_cohomology(m: Monad, t: int = 0) -> list[int]:
    """All of h^0..h^n of the cohomology sheaf twisted by t.

    Line bundles have no middle cohomology, so the section complexes in
    degrees 0 and n suffice: row 0 is _section_values at t, row n the
    same on the dual terms and transposed differentials at -t (Serre
    duality).  The rows cannot interact as long as no top-row class sits
    n+1 steps left of a bottom-row class, which is checked.  Requires the
    monad to be exact away from its marked position.
    """
    n = m.n
    positions = range(m.lo, m.hi + 1)
    row0 = _section_values(m.terms, m.diffs, positions, t)
    rown = _section_values({j: s.dual() for j, s in m.terms.items()},
                           {i: dual_hom(d) for i, d in m.diffs.items()}, positions, -t)
    if m.hi - m.lo >= n + 1:
        for j in positions:
            if rown[j] and row0.get(j + n + 1):
                raise ValueError(
                    "section rows may interact; cohomology not determined by ranks")
    pos = m.cohomology_position
    return [row0.get(q + pos, 0) + rown.get(q + pos - n, 0) for q in range(n + 1)]


@dataclass(frozen=True)
class CohTable:
    """Nonnegative table h[i][p] = h^{i+p}(F tensor Omega^p(p)) on P^n,
    built from (i, p, h) triples and kept as the sorted nonzero ones."""

    n: int
    d: int
    entries: tuple[tuple[int, int, int], ...]

    def __init__(self, n: int, d: int, entries):
        cleaned = {}
        for i, p, h in entries:
            if not isinstance(h, int) or h < 0:
                raise ValueError(f"entry at ({i}, {p}) must be a nonnegative integer")
            if not 0 <= p <= n:
                raise ValueError(f"column {p} out of range for P^{n}")
            if not 0 <= i + p <= n:
                raise ValueError(f"({i}, {p}) addresses cohomology degree {i + p}")
            if h:
                cleaned[(i, p)] = h
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(
            self, "entries",
            tuple((i, p, h) for (i, p), h in sorted(cleaned.items())))


def beilinson_shape(table: CohTable) -> dict[int, FreeSheaf]:
    """Terms of the canonical monad with the given table: h[i][p] copies
    of O(-p) in position i, twists descending inside each term, since the
    entries are sorted by (i, p).  A table of total rank past
    MAX_SECTION_SIDE is refused before any term is built: each O(-p) has
    a section at every twist t >= n, so there a term of rank r already
    gives section matrices with a side of at least r."""
    rank = sum(h for _, _, h in table.entries)
    if rank > MAX_SECTION_SIDE:
        raise ValueError(f"table of total rank {rank}, more than {MAX_SECTION_SIDE}")
    twists = {i: [] for i in range(-table.n, table.n + 1)}
    for i, p, h in table.entries:
        twists[i] += [-p] * h
    return {i: FreeSheaf(table.n, t) for i, t in twists.items()}


def dual_table_index(i: int, p: int, n: int, c: int) -> tuple[int, int]:
    """Index half of the table duality; an involution on (i, p)."""
    return (-i - c, n - p)


def dual_beilinson_table(table: CohTable) -> CohTable:
    """Table of the twisted dual sheaf F^D(1) from the table of F.

    Pure bookkeeping: the output (i, p) entry reads the input at
    (-i-c, n-p), with c = n - d; no linear algebra is involved.  An input
    entry whose image addresses no cohomology degree of P^n is dropped.
    """
    n, c = table.n, table.n - table.d
    image = (dual_table_index(i, p, n, c) + (h,) for i, p, h in table.entries)
    return CohTable(n, table.d, [(i, p, h) for i, p, h in image if 0 <= i + p <= n])


# ---------------------------------------------------------------------------
# Text format.  Canonical layout:
#
#   P 3 over Q
#   term -2: [-3,-3]
#   ...
#   diff -2:
#   x0^2; x1^2
#   ...
#   codim 2
#   cohomology_at 0
#
# Group element files share the header, the term lines and the block
# rows, with `block <i>:` sections and no trailing keys.  Blocks with no
# entries (a zero-rank side) are omitted.


def format_blocks(n: int, field: Field, terms, word: str, blocks) -> str:
    """Header, term lines and nonempty blocks, from (index, value) pairs."""
    lines = [f"P {n} over {field!r}"]
    lines.extend(f"term {i}: {sheaf}" for i, sheaf in terms)
    for i, b in blocks:
        if b.rows and b.cols:
            lines.append(f"{word} {i}:")
            lines.extend("; ".join(map(str, row)) for row in b.entries)
    return "\n".join(lines) + "\n"


def format_monad(m: Monad) -> str:
    text = format_blocks(m.n, m.field, ((i, m.terms[i]) for i in range(m.lo, m.hi + 1)),
                         "diff", ((i, m.diffs[i]) for i in range(m.lo, m.hi)))
    return text + f"codim {m.c}\ncohomology_at {m.cohomology_position}\n"


def _parse_int(text: str, line: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ParseError(f"bad integer in line {line!r}") from exc


def parse_field(token: str) -> Field:
    """Field tokens: 'Q', 'F<p>', or the flag form 'Fp:<p>'."""
    tok = token.strip()
    if tok == "Q":
        return QQ
    if tok.startswith("Fp:"):
        tok = "F" + tok[3:]
    if tok.startswith("F") and tok[1:].isdigit():
        try:
            return GF(int(tok[1:]))
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown field {token!r}")


def read_blocks(text: str, what: str, word: str, keys: tuple[str, ...] = ()):
    """Split a `what` file into (n, field, terms, raw_rows, key_values):
    sheaves by `term` index, row lines by `<word>` index, and the integer
    of each `<key> v` line, key in keys.  A dimension n above
    hilbert.MAX_DIMENSION is a ValueError, raised before any line past
    the header is read.  Twists that spread more than polymat.MAX_DEGREE
    apart are a ParseError: every form a computation on them builds has
    degree the difference of two of them."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError(f"empty {what} file")
    parts = lines[0].split()
    if len(parts) != 4 or parts[0] != "P" or parts[2] != "over":
        raise ParseError(f"bad header {lines[0]!r}")
    try:
        n = int(parts[1])
    except ValueError as exc:
        raise ParseError(f"bad dimension in header {lines[0]!r}") from exc
    field = parse_field(parts[3])
    check_dimension(n)
    terms: dict[int, FreeSheaf] = {}
    raw_rows: dict[int, list[str]] = {}
    key_values: dict[str, int] = {}
    opener = word + " "
    key_openers = tuple(k + " " for k in keys)
    current: list[str] | None = None
    for line in lines[1:]:
        if line.startswith("term "):
            head, _, rest = line.partition(":")
            idx = _parse_int(head[5:], line)
            if idx in terms:
                raise ParseError(f"duplicate line {line!r}")
            terms[idx] = parse_twists(rest, n)
            current = None
        elif line.startswith(opener):
            idx = _parse_int(line.rstrip(":")[len(opener):], line)
            if idx in raw_rows:
                raise ParseError(f"duplicate line {line!r}")
            current = raw_rows[idx] = []
        elif line.startswith(key_openers):
            key = line[:line.index(" ")]
            if key in key_values:
                raise ParseError(f"duplicate line {line!r}")
            key_values[key] = _parse_int(line.split()[1], line)
            current = None
        elif current is not None:
            current.append(line)
        else:
            raise ParseError(f"unexpected line {line!r}")
    twists = [e for sheaf in terms.values() for e in sheaf.twists]
    if twists and max(twists) - min(twists) > MAX_DEGREE:
        raise ParseError(f"twists {min(twists)} and {max(twists)} are more than "
                         f"{MAX_DEGREE} apart")
    return n, field, terms, raw_rows, key_values


def parse_block(label: str, rows: list[str], field: Field, n: int, src: FreeSheaf,
                tgt: FreeSheaf, budget: ParseBudget) -> GradedMatrix:
    """A row per target summand, cells at degree tgt.twists[r] - src.twists[s];
    every cell spends its term products from the file's budget."""
    if len(rows) != tgt.rank:
        raise ParseError(f"{label}: expected {tgt.rank} rows, got {len(rows)}")
    entries = []
    for r, row in enumerate(rows):
        cells = row.split(";")
        if len(cells) != src.rank:
            raise ParseError(f"{label} row {r}: expected {src.rank} entries")
        entries.append([parse_poly(cell, field, n, tgt.twists[r] - src.twists[s], budget)
                        for s, cell in enumerate(cells)])
    try:
        return GradedMatrix(field, src, tgt, entries)
    except ValueError as exc:
        raise ParseError(f"{label}: {exc}") from exc


def parse_monad(text: str) -> Monad:
    n, field, terms, raw_diffs, keys = read_blocks(
        text, "monad", "diff", ("codim", "cohomology_at"))
    if len(keys) != 2:
        raise ParseError("missing codim or cohomology_at")
    diffs, budget = {}, ParseBudget()
    for idx, rows in raw_diffs.items():
        if idx not in terms or idx + 1 not in terms:
            raise ParseError(f"diff {idx} without surrounding terms")
        diffs[idx] = parse_block(f"diff {idx}", rows, field, n, terms[idx], terms[idx + 1],
                                 budget)
    try:
        return Monad(field, n, terms, diffs, keys["codim"], keys["cohomology_at"])
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
