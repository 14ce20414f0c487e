#!/usr/bin/env python3
"""Write tests/data/p3_pins.json, the byte pins of every command.

The table holds the input files and one case per command line.  The
inputs are the twisted cubic over Q, F_2 and F_101, the forbidden-form
point over Q and F_101 and the duals of all five, a Koszul complex that
is no point, a line, an Omega resolution, a complex with a rank-0 term,
a malformed file, the cohomology table of a line and two group elements.
The cases are:

- `p3 check` and `p3 dualize` on the points and the Koszul file, and
  `p3 sample` and `p3 demo`, as text and with --json, for seeds 0-5
  over F_101, F_(2^31-1) and F_2;
- `bott` and `hilb`, the five `monad` commands, both `beilinson`
  commands and the three `group` commands, each with and without
  --json where it takes the flag;
- the seven commands that take --out, writing a file;
- command-line and input errors;
- --help of the top parser, the four groups and every command.

Each pin is conftest.cli_digest of the case, run in-process in a
directory holding the files, with COLUMNS=80 for the width of argparse's
help; tests/test_p3_pins.py replays the table.  Q windows of moved
points are left out: they are slow, and the F_101 ones rank the same
code.

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

from conftest import cli_digest, line_cohomology_table  # noqa: E402
from projmonad.autgroup import format_group_element, random_element  # noqa: E402
from projmonad.complexes import koszul_monad, line_monad, omega_resolution  # noqa: E402
from projmonad.modp3 import forbidden_form_point, twisted_cubic_point  # noqa: E402
from projmonad.monad import Monad, dualize, format_monad  # noqa: E402
from projmonad.polymat import FreeSheaf, GradedMatrix  # noqa: E402
from projmonad.scalar import GF, QQ  # noqa: E402

COLUMNS = "80"
POINTS = {f"cubic-{name}": twisted_cubic_point(field)
          for name, field in (("Q", QQ), ("F2", GF(2)), ("F101", GF(101)))}
POINTS |= {f"forbidden-{name}": forbidden_form_point(field)
           for name, field in (("Q", QQ), ("F101", GF(101)))}


def _rank0_monad() -> Monad:
    """A complex whose term -1 has rank 0: 0 -> O(-1) + O(1)."""
    field = GF(101)
    empty, target = FreeSheaf(3, ()), FreeSheaf(3, (-1, 1))
    return Monad(field, 3, {-1: empty, 0: target},
                 {-1: GradedMatrix(field, empty, target, [[], []])}, 2, 0)


def inputs() -> dict[str, str]:
    files = {f"{name}.monad": format_monad(m) for name, m in POINTS.items()}
    files["koszul.monad"] = format_monad(koszul_monad(QQ, 3, [0, 1]))
    files |= {f"dual-{name}.monad": format_monad(dualize(m)) for name, m in POINTS.items()}
    files["line.monad"] = format_monad(line_monad(QQ, 3))
    files["omega.monad"] = format_monad(omega_resolution(QQ, 2, 1, 1))
    files["rank0.monad"] = format_monad(_rank0_monad())
    files["malformed.monad"] = "P 3 over Q\nterm 0: [0,\n"
    table = line_cohomology_table(3, 0)
    files["line-table.json"] = json.dumps(
        {"n": table.n, "d": table.d, "entries": [list(e) for e in table.entries]})
    for name in ("cubic-Q", "cubic-F101"):
        m = POINTS[name]
        files[f"g-{name}.element"] = format_group_element(random_element(m.field, m, seed=4))
    return files


def _with_json(argv) -> list[list[str]]:
    return [argv, argv + ["--json"]]


def p3_cases() -> list[list[str]]:
    out = [["p3", command, "--in", name]
           for name in [*(f"{n}.monad" for n in POINTS), "koszul.monad"]
           for command in ("check", "dualize")]
    for field in ("Fp:101", "Fp:2147483647", "Fp:2"):
        for seed in range(6):
            for command in ("sample", "demo"):
                out += _with_json(["p3", command, "--seed", str(seed), "--field", field])
    return out


def command_cases(files) -> list[list[str]]:
    monads = [name for name in files if name.endswith(".monad")]
    out = []
    for n, p, q, t in ((3, 1, 1, 0), (3, 1, 0, 2), (4, 2, 4, -7), (2, 0, 1, 0)):
        out += _with_json(["bott", "--n", str(n), "--p", str(p), "--q", str(q), "--t", str(t)])
    for n, e in ((2, 1), (3, -5), (4, 0)):
        out += _with_json(["hilb", "--n", str(n), "--e", str(e)])
    for name in monads:
        for command in ("validate", "dualize", "hilbert", "minimality"):
            out += _with_json(["monad", command, "--in", name])
    for name in ("koszul.monad", "line.monad", "omega.monad", "cubic-Q.monad",
                 "cubic-F101.monad", "dual-cubic-F2.monad"):
        out += _with_json(["monad", "exactness", "--in", name])
    out += _with_json(["monad", "exactness", "--in", "cubic-Q.monad", "--window", "-1:1",
                       "--positions", "-2,-1"])
    out += _with_json(["beilinson", "shape", "--in", "line-table.json"])
    out.append(["beilinson", "dualtable", "--in", "line-table.json"])
    for name in ("cubic-Q.monad", "cubic-F2.monad", "cubic-F101.monad", "koszul.monad",
                 "rank0.monad"):
        out.append(["group", "random", "--monad", name, "--seed", "4"])
    out.append(["group", "random", "--monad", "cubic-F101.monad", "--seed", "0",
                "--density", "0.25"])
    for name in ("cubic-Q", "cubic-F101"):
        out.append(["group", "act", "--monad", f"{name}.monad", "--element", f"g-{name}.element"])
        out.append(["group", "dual", "--element", f"g-{name}.element", "--codim", "2"])
    return out


def out_cases() -> list[list[str]]:
    commands = [
        ["monad", "dualize", "--in", "cubic-Q.monad"],
        ["beilinson", "dualtable", "--in", "line-table.json"],
        ["group", "random", "--monad", "cubic-F101.monad", "--seed", "4"],
        ["group", "act", "--monad", "cubic-F101.monad", "--element", "g-cubic-F101.element"],
        ["group", "dual", "--element", "g-cubic-F101.element", "--codim", "2"],
        ["p3", "sample", "--seed", "3"],
        ["p3", "dualize", "--in", "cubic-Q.monad"],
    ]
    out = [argv + ["--out", f"out-{argv[0]}-{argv[1]}.txt"] for argv in commands]
    out += [["monad", "dualize", "--in", "cubic-Q.monad", "--json", "--out", "out-json.txt"],
            ["p3", "sample", "--seed", "3", "--json", "--out", "out-json.txt"]]
    return out


def error_cases() -> list[list[str]]:
    bott = ["bott", "--n", "3", "--p", "1", "--q", "1", "--t", "0"]
    return [
        [],
        ["frobnicate"],
        ["monad", "transpose"],
        ["p3"],
        ["bott", "--n", "abc", "--p", "0", "--q", "0", "--t", "0"],
        ["bott", "--n", "3"],
        bott + ["extra"],
        ["--bogus", "bott"],
        ["--bogus", *bott],
        ["group", "--bogus", "dual"],
        ["monad", "--bogus", "validate", "--in", "cubic-Q.monad"],
        ["monad", "exactness", "--in", "koszul.monad", "--jobs", "2"],
        ["p3", "check", "--in", "cubic-Q.monad", "--json"],
        ["beilinson", "dualtable", "--in", "line-table.json", "--json"],
        ["group", "act", "--monad"],
        ["p3", "demo", "--max-tries", "1.5"],
        ["p3", "sample", "--seed", "0", "--max-tries", "0"],
        ["monad", "validate", "--in", "missing.monad"],
        ["monad", "validate", "--in", "line-table.json"],
        ["monad", "exactness", "--in", "koszul.monad", "--window", "3"],
        ["monad", "exactness", "--in", "koszul.monad", "--positions", "x"],
        ["group", "random", "--monad", "cubic-F101.monad", "--seed", "1", "--density", "2"],
        ["group", "act", "--monad", "koszul.monad", "--element", "g-cubic-F101.element"],
        ["group", "dual", "--element", "g-cubic-F101.element", "--codim", "9"],
        ["group", "dual", "--element", "cubic-F101.monad", "--codim", "2"],
        ["beilinson", "shape", "--in", "cubic-Q.monad"],
        ["bott", "--n", "3", "--p", "5", "--q", "0", "--t", "0"],
        ["hilb", "--n", "-5", "--e", "0"],
        ["p3", "sample", "--field", "Q", "--seed", "0"],
        ["p3", "check", "--in", "line.monad"],
        ["monad", "dualize", "--in", "cubic-Q.monad", "--out", "no/such/dir.monad"],
    ]


def help_cases() -> list[list[str]]:
    groups = {"monad": ("validate", "dualize", "hilbert", "exactness", "minimality"),
              "beilinson": ("shape", "dualtable"),
              "group": ("random", "act", "dual"),
              "p3": ("sample", "check", "dualize", "demo")}
    out = [["--help"], ["bott", "--help"], ["hilb", "--help"]]
    for name, commands in groups.items():
        out.append([name, "--help"])
        out += [[name, command, "--help"] for command in commands]
    return out


def cases(files) -> list[list[str]]:
    return [*p3_cases(), *command_cases(files), *out_cases(), *error_cases(), *help_cases()]


def main():
    files = inputs()
    cwd = os.getcwd()
    os.environ["COLUMNS"] = COLUMNS
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text)
        os.chdir(tmp)
        try:
            pins = [{"argv": argv, "sha256": cli_digest(argv)} for argv in cases(files)]
        finally:
            os.chdir(cwd)
    table = {"python": sys.version.split()[0], "columns": COLUMNS, "files": files,
             "cases": pins}
    path = TESTS / "data" / "p3_pins.json"
    path.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {len(pins)} pins to {path}")


if __name__ == "__main__":
    main()
