"""Fuzzing the input boundary: generated monad, group-element and table texts.

The texts follow the file formats closely enough that many parse, with
mutations (dropped, repeated or junk lines, junk cells, bad headers) so
that many do not.  Whatever the text, the parsers raise nothing but
ValueError, and every CLI command ends with exit 0, 1 or 2 within a
fixed time, with any error as JSON that validates against its schema.
Cohomology tables mix JSON ints with bools, floats, strings and huge
dimensions; the table reader accepts exactly what table.schema.json
does.
"""

import contextlib
import io
import json
import tempfile
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import JUNK_CELLS
from projmonad.autgroup import parse_group_element
from projmonad.cli import run
from projmonad.hilbert import MAX_DIMENSION
from projmonad.modp3 import MIDDLE, SOURCE, TARGET
from projmonad.monad import MAX_SECTION_SIDE, parse_monad

# Wall-clock bound for one command on one generated input.
SECONDS_PER_COMMAND = 5.0


def _schema(name: str) -> dict:
    return json.loads(
        resources.files("projmonad.schemas").joinpath(f"{name}.schema.json").read_text())


ERROR_SCHEMA = _schema("error")
TABLE_SCHEMA = _schema("table")
SHAPE_SCHEMA = _schema("shape")

FIELDS = ["Q", "F101", "F7", "F2147483647"]
# F2305843009213693951 is the prime 2^61 - 1, too large for the program
JUNK_FIELDS = ["F4", "F1", "R", "Fp:x", "F2305843009213693951", "F2147483648"]
CONSTANTS = ["1", "-1", "2", "3/2", "100", "0"]
COEFFICIENTS = ["", "2*", "-", "3/2*", "100*", "-7*"]
JUNK_LINES = ["diff 0:", "block 0:", "term 0: [", "term x: [0]", "codim", "cohomology_at 9",
              "P 2 over Q", "x0; x1", "garbage"]


@st.composite
def cells(draw, n: int, degree: int) -> str:
    """A form of the given degree, or now and then a junk cell."""
    if draw(st.integers(0, 39)) == 39:
        return draw(st.sampled_from(JUNK_CELLS))
    if degree < 0:
        return "0"
    if degree == 0:
        return draw(st.sampled_from(CONSTANTS))
    parts = []
    for _ in range(draw(st.integers(0, 2))):
        variables = draw(st.lists(st.integers(0, n), min_size=degree, max_size=degree))
        mono = "*".join(f"x{v}" for v in sorted(variables))
        parts.append(draw(st.sampled_from(COEFFICIENTS)) + mono)
    return " + ".join(parts) or "0"


@st.composite
def block_lines(draw, word: str, i: int, n: int, source, target) -> list[str]:
    """A block as the formatter writes it: none when it has no cells."""
    if not source or not target:
        return []
    return [f"{word} {i}:"] + ["; ".join(draw(cells(n, f - e)) for e in source)
                               for f in target]


def _usually(valid, junk):
    """valid, or one time in ten junk (hypothesis favours small draws,
    so the valid choice takes them)."""
    return st.integers(0, 9).flatmap(lambda k: junk if k == 9 else valid)


@st.composite
def mutated(draw, lines: list[str]) -> str:
    """Drop, repeat or insert a line now and then."""
    lines = list(lines)
    action = draw(st.integers(0, 15))
    if action == 12 and len(lines) > 1:
        del lines[draw(st.integers(1, len(lines) - 1))]
    elif action == 13:
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(lines)))
    elif action == 14:
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(JUNK_LINES)))
    elif action == 15:
        lines[0] = draw(st.sampled_from(["P x over Q", "P 2 over", "P -1 over Q", "Q over P"]))
    return "\n".join(lines) + "\n"


@st.composite
def monad_and_element(draw):
    """A monad text and a group-element text on the same terms; on P^3
    the terms are those of a point of the moduli space, so that the texts
    that parse reach the membership test and the dual of a point."""
    n = draw(st.integers(1, 3))
    header = f"P {n} over {draw(_usually(st.sampled_from(FIELDS), st.sampled_from(JUNK_FIELDS)))}"
    if n == 3:
        indices = range(-2, 1)
        terms = {i: s.twists for i, s in zip(indices, (SOURCE, MIDDLE, TARGET))}
        codims, positions = st.just(2), st.just(0)
    else:
        lo = draw(st.integers(-2, 0))
        indices = range(lo, lo + draw(st.integers(1, 3)))
        terms = {i: draw(st.lists(st.integers(-2, 1), max_size=2)) for i in indices}
        codims, positions = st.integers(1, n), st.sampled_from(indices)
    term_lines = [f"term {i}: [{','.join(map(str, t))}]" for i, t in terms.items()]
    monad = [header] + term_lines
    for i in indices[:-1]:
        if draw(st.integers(0, 4)) < 4:
            monad += draw(block_lines("diff", i, n, terms[i], terms[i + 1]))
    codim = draw(_usually(codims, st.integers(-1, 4)))
    position = draw(_usually(positions, st.integers(-4, 2)))
    monad += [f"codim {codim}", f"cohomology_at {position}"]
    element = [header] + term_lines
    for i in indices:
        element += draw(block_lines("block", i, n, terms[i], terms[i]))
    return draw(mutated(monad)), draw(mutated(element)), draw(st.integers(0, 3))


def _run_bounded(argv) -> tuple[int, str]:
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = run(argv)
    assert time.perf_counter() - start < SECONDS_PER_COMMAND, argv
    return rc, out.getvalue()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(monad_and_element())
def test_generated_texts_end_in_a_code_and_a_json_error(case):
    monad_text, element_text, codim = case
    for parse, text in ((parse_monad, monad_text), (parse_group_element, element_text)):
        try:
            parse(text)
        except ValueError:
            pass
    with tempfile.TemporaryDirectory() as tmp:
        m_path, g_path = Path(tmp) / "m.monad", Path(tmp) / "g.element"
        m_path.write_text(monad_text)
        g_path.write_text(element_text)
        commands = [
            ["monad", "validate", "--in", str(m_path)],
            ["monad", "hilbert", "--in", str(m_path), "--json"],
            ["monad", "dualize", "--in", str(m_path)],
            ["group", "act", "--monad", str(m_path), "--element", str(g_path)],
            ["group", "dual", "--element", str(g_path), "--codim", str(codim)],
            ["p3", "check", "--in", str(m_path)],
            ["p3", "dualize", "--in", str(m_path)],
        ]
        for argv in commands:
            _check_exit(*_run_bounded(argv), argv)


def _check_exit(rc: int, out: str, argv):
    """Exit 0, or 1 or 2 with a domain or parse error that fits its schema."""
    assert rc in (0, 1, 2), argv
    if rc:
        payload = json.loads(out.splitlines()[-1])
        jsonschema.Draft7Validator(ERROR_SCHEMA).validate(payload)
        assert payload["error"]["kind"] == ("domain" if rc == 1 else "parse")


# JSON values that are not table integers, and integers past every bound.
JUNK_VALUES = st.one_of(st.booleans(), st.floats(), st.text(max_size=3), st.none(),
                        st.sampled_from([MAX_DIMENSION + 1, 10**8, 10**30, -3, 0]))


@st.composite
def table_texts(draw) -> str:
    """A cohomology table as JSON, its values now and then junk, its
    keys now and then dropped or extra, now and then no object at all."""
    n = draw(_usually(st.integers(1, 3),
                      st.one_of(st.integers(MAX_DIMENSION + 1, 10**30), JUNK_VALUES)))
    d = draw(_usually(st.integers(-1, 3), JUNK_VALUES))
    cell = _usually(st.integers(-3, 3), JUNK_VALUES)
    entry = _usually(st.lists(cell, min_size=3, max_size=3),
                     st.one_of(JUNK_VALUES, st.lists(cell, max_size=4)))
    table = {"n": n, "d": d, "entries": draw(_usually(st.lists(entry, max_size=4), JUNK_VALUES))}
    action = draw(st.integers(0, 15))
    if action == 13:
        del table[draw(st.sampled_from(sorted(table)))]
    elif action == 14:
        table["extra"] = 1
    elif action == 15:
        return json.dumps(draw(st.one_of(JUNK_VALUES, st.lists(cell, max_size=3))))
    return json.dumps(table)


def _is_schema_table(text: str) -> bool:
    return jsonschema.Draft7Validator(TABLE_SCHEMA).is_valid(json.loads(text))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(table_texts())
def test_generated_tables_end_in_a_code_and_a_json_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.json"
        path.write_text(text)
        for argv in (["beilinson", "shape", "--in", str(path), "--json"],
                     ["beilinson", "dualtable", "--in", str(path)]):
            rc, out = _run_bounded(argv)
            _check_exit(rc, out, argv)
            if rc == 0:
                # accepted tables are schema tables, and so is every output
                assert _is_schema_table(text)
                schema = SHAPE_SCHEMA if argv[1] == "shape" else TABLE_SCHEMA
                jsonschema.Draft7Validator(schema).validate(json.loads(out))
            elif not _is_schema_table(text):
                assert rc == 2, argv


# Each table the reader once let through or crashed on, with the exit
# code it now ends in.
MALFORMED_TABLES = [
    ('{"n": 2.5, "d": 1, "entries": []}', 2),
    ('{"n": 2, "d": "x", "entries": []}', 2),
    ('{"n": 100000000, "d": 1, "entries": []}', 1),
    ('{"n": true, "d": 1, "entries": []}', 2),
    ('{"n": 2, "d": 1, "entries": [[0, 0, true]]}', 2),
    ('{"n": 2, "d": 1, "entries": [[0.5, 0, 1]]}', 2),
    ('{"n": -3, "d": 1, "entries": []}', 2),
    ("[" * 100000, 2),  # nested past the JSON decoder's recursion limit
]


@pytest.mark.parametrize("command", ["shape", "dualtable"])
@pytest.mark.parametrize("text, code", MALFORMED_TABLES)
def test_malformed_tables_end_with_a_json_error(tmp_path, text, code, command):
    path = tmp_path / "table.json"
    path.write_text(text)
    rc, out = _run_bounded(["beilinson", command, "--in", str(path)])
    assert rc == code
    _check_exit(rc, out, command)


@pytest.mark.parametrize("h", [MAX_SECTION_SIDE + 1, 10**8, 10**30])
def test_a_table_of_huge_rank_is_refused_by_shape_and_copied_by_dualtable(tmp_path, h):
    # shape would lay out h summands; dualtable only moves the count
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"n": 1, "d": 0, "entries": [[0, 0, h]]}))
    for flags in ([], ["--json"]):
        rc, out = _run_bounded(["beilinson", "shape", "--in", str(path), *flags])
        assert rc == 1 and f"total rank {h}," in out
        _check_exit(rc, out, "shape")
    rc, out = _run_bounded(["beilinson", "dualtable", "--in", str(path)])
    assert rc == 0
    assert json.loads(out) == {"n": 1, "d": 0, "entries": [[-1, 1, h]]}


NOT_UTF8 = b"P 2 over Q\n\xff\xfe\n"


@pytest.mark.parametrize("argv", [["monad", "validate"], ["p3", "check"],
                                  ["beilinson", "shape"], ["beilinson", "dualtable"]])
def test_non_utf8_input_is_a_parse_error_from_file_and_stdin(tmp_path, monkeypatch, argv):
    path = tmp_path / "bad.txt"
    path.write_bytes(NOT_UTF8)
    rc, out = _run_bounded([*argv, "--in", str(path)])
    assert rc == 2
    _check_exit(rc, out, argv)
    for stdin_argv in (argv, [*argv, "--in", "-"]):
        monkeypatch.setattr("sys.stdin",
                            io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8"))
        assert _run_bounded(stdin_argv) == (rc, out.replace(str(path), "stdin"))


class _FailingStdin:
    def read(self):
        raise OSError("input/output error")


@pytest.mark.parametrize("flags", [[], ["--in", "-"]])
def test_an_unreadable_stdin_is_a_parse_error_naming_stdin(monkeypatch, flags):
    monkeypatch.setattr("sys.stdin", _FailingStdin())
    rc, out = _run_bounded(["monad", "validate", *flags])
    assert rc == 2
    _check_exit(rc, out, "monad validate")
    assert "cannot read stdin: input/output error" in out


def test_singular_element_reaches_the_inverse_error():
    # a parsed element whose constant part is singular fails in
    # graded_inverse, and group act reports it as a domain error
    monad = "P 2 over Q\nterm -1: [-1]\nterm 0: [0]\ndiff -1:\nx0\ncodim 1\ncohomology_at 0\n"
    element = "P 2 over Q\nterm -1: [-1]\nterm 0: [0]\nblock -1:\n0\nblock 0:\n1\n"
    with tempfile.TemporaryDirectory() as tmp:
        m_path, g_path = Path(tmp) / "m.monad", Path(tmp) / "g.element"
        m_path.write_text(monad)
        g_path.write_text(element)
        rc, out = _run_bounded(["group", "act", "--monad", str(m_path),
                                "--element", str(g_path)])
    assert rc == 1
    payload = json.loads(out)
    jsonschema.Draft7Validator(ERROR_SCHEMA).validate(payload)
    assert payload["error"]["message"] == "not an automorphism: constant part is singular"
