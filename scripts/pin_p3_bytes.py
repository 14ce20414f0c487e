#!/usr/bin/env python3
"""Write tests/data/p3_pins.json, the byte pins of the p3 commands.

The table holds the input files (the twisted cubic over Q, F_2 and
F_101, the forbidden-form point over Q and F_101, and a Koszul complex
that is no point) and one case per command line: `p3 check` and
`p3 dualize` on each file, and `p3 sample` and `p3 demo`, as text and
with --json, for seeds 0-5 over F_101, F_(2^31-1) and F_2.  Each pin is
conftest.cli_digest of the case, run in-process in a directory holding
the files; tests/test_p3_pins.py replays the table.

Run it on purpose only, on the tree whose bytes are to be pinned; a
change that moves bytes on purpose rewrites the pins and names each
moved case.

Usage: PYTHONPATH=src python scripts/pin_p3_bytes.py
"""

import json
import os
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent / "tests"
sys.path.insert(0, str(TESTS))

from conftest import cli_digest  # noqa: E402
from projmonad.complexes import koszul_monad  # noqa: E402
from projmonad.modp3 import forbidden_form_point, twisted_cubic_point  # noqa: E402
from projmonad.monad import format_monad  # noqa: E402
from projmonad.scalar import GF, QQ  # noqa: E402


def inputs() -> dict[str, str]:
    files = {f"cubic-{name}.monad": format_monad(twisted_cubic_point(field))
             for name, field in (("Q", QQ), ("F2", GF(2)), ("F101", GF(101)))}
    files |= {f"forbidden-{name}.monad": format_monad(forbidden_form_point(field))
              for name, field in (("Q", QQ), ("F101", GF(101)))}
    files["koszul.monad"] = format_monad(koszul_monad(QQ, 3, [0, 1]))
    return files


def cases(files) -> list[list[str]]:
    out = [["p3", command, "--in", name] for name in files for command in ("check", "dualize")]
    for field in ("Fp:101", "Fp:2147483647", "Fp:2"):
        for seed in range(6):
            for command in ("sample", "demo"):
                argv = ["p3", command, "--seed", str(seed), "--field", field]
                out += [argv, argv + ["--json"]]
    return out


def main():
    files = inputs()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text)
        os.chdir(tmp)
        try:
            pins = [{"argv": argv, "sha256": cli_digest(argv)} for argv in cases(files)]
        finally:
            os.chdir(cwd)
    table = {"python": sys.version.split()[0], "files": files, "cases": pins}
    path = TESTS / "data" / "p3_pins.json"
    path.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {len(pins)} pins to {path}")


if __name__ == "__main__":
    main()
