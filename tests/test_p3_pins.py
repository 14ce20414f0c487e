"""The bytes of the p3 commands, pinned.

Every case of data/p3_pins.json runs in-process through cli.run in a
directory holding the table's input files and must reproduce its sha256
over the exit code and stdout (conftest.cli_digest).  The pins are
written by scripts/pin_p3_bytes.py, which runs only on purpose; the
table records the Python it was written on.
"""

import json
from pathlib import Path

import pytest

from conftest import cli_digest

PINS = json.loads((Path(__file__).parent / "data" / "p3_pins.json").read_text())


@pytest.fixture(scope="module")
def pin_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("p3_pins")
    for name, text in PINS["files"].items():
        (path / name).write_text(text)
    return path


@pytest.mark.parametrize("case", PINS["cases"], ids=lambda case: " ".join(case["argv"]))
def test_p3_command_reproduces_its_pin(case, pin_dir, monkeypatch):
    monkeypatch.chdir(pin_dir)
    assert cli_digest(case["argv"]) == case["sha256"], (
        f"{case['argv']} moved from its pin (written on Python {PINS['python']})")
