"""Fuzzing the input boundary: generated monad and group-element texts.

The texts follow the file formats closely enough that many parse, with
mutations (dropped, repeated or junk lines, junk cells, bad headers) so
that many do not.  Whatever the text, the parsers raise nothing but
ValueError, and every CLI command ends with exit 0, 1 or 2 within a
fixed time, with any error as JSON that validates against its schema.
"""

import contextlib
import io
import json
import tempfile
import time
from importlib import resources
from pathlib import Path

import jsonschema
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import JUNK_CELLS
from projmonad.autgroup import parse_group_element
from projmonad.cli import run
from projmonad.monad import parse_monad

# Wall-clock bound for one command on one generated input.
SECONDS_PER_COMMAND = 5.0

ERROR_SCHEMA = json.loads(
    resources.files("projmonad.schemas").joinpath("error.schema.json").read_text())

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
    """A monad text and a group-element text on the same terms."""
    n = draw(st.integers(1, 2))
    header = f"P {n} over {draw(_usually(st.sampled_from(FIELDS), st.sampled_from(JUNK_FIELDS)))}"
    lo = draw(st.integers(-2, 0))
    indices = range(lo, lo + draw(st.integers(1, 3)))
    terms = {i: draw(st.lists(st.integers(-2, 1), max_size=2)) for i in indices}
    term_lines = [f"term {i}: [{','.join(map(str, t))}]" for i, t in terms.items()]
    monad = [header] + term_lines
    for i in indices[:-1]:
        if draw(st.integers(0, 4)) < 4:
            monad += draw(block_lines("diff", i, n, terms[i], terms[i + 1]))
    codim = draw(_usually(st.integers(1, n), st.integers(-1, 4)))
    position = draw(_usually(st.sampled_from(indices), st.integers(-4, 2)))
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
        ]
        for argv in commands:
            rc, out = _run_bounded(argv)
            assert rc in (0, 1, 2), argv
            if rc:
                payload = json.loads(out.splitlines()[-1])
                jsonschema.Draft7Validator(ERROR_SCHEMA).validate(payload)
                assert payload["error"]["kind"] == ("domain" if rc == 1 else "parse")


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
