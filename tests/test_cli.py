import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from projmonad.cli import run
from projmonad import autgroup as autgroup_module, modp3 as modp3_module
from projmonad import monad as monad_module
from projmonad.autgroup import format_group_element, random_element
from projmonad.complexes import direct_sum, koszul_monad, omega_resolution
from projmonad.hilbert import MAX_DIMENSION, bott_h
from projmonad.modp3 import forbidden_form_point, twisted_cubic_point
from projmonad.monad import MAX_WINDOW_TWISTS, format_monad, parse_monad, sheaf_cohomology
from projmonad.polymat import MAX_DEGREE, MAX_PAREN_DEPTH, MAX_PARSE_PRODUCTS, HomogPoly
from projmonad.scalar import GF, QQ


def _schema(name):
    text = resources.files("projmonad.schemas").joinpath(f"{name}.schema.json").read_text()
    schema = json.loads(text)
    if name == "demo":
        # inline the one cross-file reference so no resolver is needed
        schema["properties"]["membership"] = _schema("membership")
    return schema


def _check(payload, schema_name):
    jsonschema.Draft7Validator(_schema(schema_name)).validate(payload)


def _run_json(capsys, argv):
    rc = run(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


@pytest.fixture
def cubic_file(tmp_path):
    path = tmp_path / "example_p3.monad"
    path.write_text(format_monad(twisted_cubic_point()))
    return str(path)


@pytest.fixture
def cubic_f101_file(tmp_path):
    # prime-field twin for the commands that grind through twist windows
    path = tmp_path / "example_p3_f101.monad"
    path.write_text(format_monad(twisted_cubic_point(GF(101))))
    return str(path)


def test_bott_plain_and_json(capsys):
    assert run(["bott", "--n", "3", "--p", "1", "--q", "1", "--t", "0"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    rc, payload = _run_json(capsys, ["bott", "--n", "3", "--p", "1", "--q", "1",
                                     "--t", "0", "--json"])
    assert rc == 0 and payload == {"h": 1}
    _check(payload, "bott")


def test_hilb_json_schema(capsys):
    rc, payload = _run_json(capsys, ["hilb", "--n", "2", "--e", "0", "--json"])
    assert rc == 0
    assert payload["coeffs"] == ["1", "3/2", "1/2"]
    _check(payload, "poly")


def test_monad_validate(capsys, cubic_file):
    rc, payload = _run_json(capsys, ["monad", "validate", "--in", cubic_file, "--json"])
    assert rc == 0 and payload["ok"]
    _check(payload, "validate")


def test_monad_dualize_twist_lists(capsys, cubic_file, tmp_path):
    out = tmp_path / "dual.monad"
    assert run(["monad", "dualize", "--in", cubic_file, "--out", str(out)]) == 0
    dual = parse_monad(out.read_text())
    assert dual.terms[-2].twists == (-4, -3)
    assert dual.terms[-1].twists == (-3, -2, -2, -2)
    assert dual.terms[0].twists == (-1, -1)
    rc, payload = _run_json(capsys, ["monad", "dualize", "--in", cubic_file, "--json"])
    assert rc == 0 and parse_monad(payload["monad"]) == dual
    _check(payload, "monad_text")


def test_monad_hilbert(capsys, cubic_f101_file):
    assert run(["monad", "hilbert", "--in", cubic_f101_file]) == 0
    assert capsys.readouterr().out.strip() == "3*m + 1"


def test_monad_hilbert_of_dual(capsys, cubic_f101_file, tmp_path):
    out = tmp_path / "dual.monad"
    run(["monad", "dualize", "--in", cubic_f101_file, "--out", str(out)])
    capsys.readouterr()
    assert run(["monad", "hilbert", "--in", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "3*m - 1"


def test_monad_exactness_json(capsys, cubic_file):
    rc, payload = _run_json(capsys, [
        "monad", "exactness", "--in", cubic_file, "--window", "3:6", "--json"])
    assert rc == 0
    assert payload["positions"] == {"-2": True, "-1": True}
    _check(payload, "exactness")


def test_monad_exactness_default_window(capsys, tmp_path):
    path = tmp_path / "k.monad"
    path.write_text(format_monad(koszul_monad(QQ, 2, [0, 1])))
    # T = (n+1) + max |twist| = 3 + 2, n+2 twists
    rc, payload = _run_json(capsys, ["monad", "exactness", "--in", str(path), "--json"])
    assert rc == 0
    assert payload == {"window": [5, 8], "positions": {"-2": True, "-1": True}}
    assert run(["monad", "exactness", "--in", str(path)]) == 0
    assert capsys.readouterr().out == "-2: exact on [5, 8]\n-1: exact on [5, 8]\n"


def test_monad_exactness_with_jobs(capsys, cubic_file):
    # --jobs is gone; the same run without it keeps its answer
    rc, payload = _run_json(capsys, [
        "monad", "exactness", "--in", cubic_file, "--window", "3:6", "--json"])
    assert rc == 0 and payload["positions"] == {"-2": True, "-1": True}
    assert run(["monad", "exactness", "--in", cubic_file, "--window", "3:6",
                "--jobs", "2", "--json"]) == 2
    capsys.readouterr()


def test_monad_minimality(capsys, tmp_path):
    path = tmp_path / "k.monad"
    path.write_text(format_monad(koszul_monad(QQ, 2, [0, 1])))
    rc, payload = _run_json(capsys, ["monad", "minimality", "--in", str(path), "--json"])
    assert rc == 0 and payload == {"minimal": True}
    _check(payload, "minimality")


def test_beilinson_shape_and_dualtable(capsys, tmp_path):
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"n": 2, "d": 1, "entries": [[0, 0, 1], [-1, 1, 1]]}))
    rc, payload = _run_json(capsys, ["beilinson", "shape", "--in", str(table), "--json"])
    assert rc == 0 and payload == {"terms": {"-1": [-1], "0": [0]}}
    _check(payload, "shape")
    rc = run(["beilinson", "dualtable", "--in", str(table)])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert payload == {"n": 2, "d": 1, "entries": [[-1, 2, 1], [0, 1, 1]]}
    _check(payload, "table")


def test_group_pipeline(capsys, cubic_f101_file, tmp_path):
    element = tmp_path / "g.element"
    acted = tmp_path / "acted.monad"
    dual_el = tmp_path / "gd.element"
    assert run(["group", "random", "--monad", cubic_f101_file, "--seed", "4",
                "--out", str(element)]) == 0
    assert run(["group", "act", "--monad", cubic_f101_file, "--element", str(element),
                "--out", str(acted)]) == 0
    assert run(["group", "dual", "--element", str(element), "--codim", "2",
                "--out", str(dual_el)]) == 0
    capsys.readouterr()
    assert run(["monad", "hilbert", "--in", str(acted)]) == 0
    assert capsys.readouterr().out.strip() == "3*m + 1"


def test_p3_check_json(capsys, cubic_file):
    rc, payload = _run_json(capsys, ["p3", "check", "--in", cubic_file])
    assert rc == 0 and payload["member"] and payload["failed"] == []
    _check(payload, "membership")


def test_p3_check_reports_reasons(capsys, tmp_path):
    bad = tmp_path / "forbidden.monad"
    bad.write_text(format_monad(forbidden_form_point()))
    rc, payload = _run_json(capsys, ["p3", "check", "--in", str(bad)])
    assert rc == 0 and not payload["member"]
    assert payload["failed"] == ["d"]
    assert "d" in payload["descriptions"]
    _check(payload, "membership")


def test_p3_sample_json_schema_and_determinism(capsys):
    rc, first = _run_json(capsys, ["p3", "sample", "--seed", "3", "--json"])
    assert rc == 0
    _check(first, "sample")
    rc, second = _run_json(capsys, ["p3", "sample", "--seed", "3", "--json"])
    assert first == second


def test_p3_dualize(capsys, cubic_file):
    assert run(["p3", "dualize", "--in", cubic_file]) == 0
    out = capsys.readouterr().out
    assert "term -2: [-4,-3]" in out
    assert "term 0: [-1,-1]" in out


def test_p3_demo_json(capsys):
    rc, payload = _run_json(capsys, ["p3", "demo", "--seed", "1", "--json"])
    assert rc == 0 and payload["ok"]
    assert payload["euler"] == "3*m + 1" and payload["dual_euler"] == "3*m - 1"
    _check(payload, "demo")


def test_exit_codes(capsys, tmp_path):
    assert run(["monad", "validate", "--in", str(tmp_path / "missing.monad")]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["kind"] == "parse"
    _check(payload, "error")

    bad = tmp_path / "bad.monad"
    bad.write_text("gibberish\n")
    assert run(["monad", "validate", "--in", str(bad)]) == 2
    capsys.readouterr()

    assert run(["p3", "sample", "--seed", "1", "--max-tries", "0"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["kind"] == "parse"
    _check(payload, "error")

    assert run(["p3", "sample", "--seed", "1", "--max-tries", "1", "--field", "Q"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["kind"] == "domain"
    _check(payload, "error")

    assert run(["bott", "--n", "2", "--p", "9", "--q", "0", "--t", "0"]) == 1
    capsys.readouterr()

    assert run(["p3", "sample", "--seed", "1", "--field", "Q"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["kind"] == "domain"


@pytest.mark.parametrize("command, text", [
    ("monad", "P 2 over Q\nterm 0: [0]\ncodim x\ncohomology_at 0\n"),
    ("monad", "P 2 over Q\nterm 0: [0]\ncodim 1\ncohomology_at x\n"),
    ("group", "P 2 over Q\nterm x: [0]\n"),
    ("group", "P 2 over Q\nterm 0: [0]\nblock x:\n1\n"),
], ids=["codim", "cohomology_at", "element-term", "element-block"])
def test_bad_integer_is_parse_error(capsys, tmp_path, command, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    if command == "monad":
        argv = ["monad", "validate", "--in", str(path)]
    else:
        argv = ["group", "dual", "--element", str(path), "--codim", "1"]
    assert run(argv) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["kind"] == "parse"
    _check(payload, "error")


@pytest.mark.parametrize("field", ["Q", "F101"])
@pytest.mark.parametrize("cell", ["x0^1000000000", "2^1000000000"])
def test_huge_exponent_is_parse_error(capsys, tmp_path, field, cell):
    path = tmp_path / "huge.monad"
    path.write_text(f"P 2 over {field}\nterm -1: [-1]\nterm 0: [0]\ndiff -1:\n{cell}\n"
                    "codim 1\ncohomology_at 0\n")
    start = time.perf_counter()
    assert run(["monad", "validate", "--in", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["kind"] == "parse"
    _check(payload, "error")


def _spread_files(tmp_path, gap):
    """A monad file and a group-element file on P^1 with twists gap apart."""
    monad_file = tmp_path / f"spread{gap}.monad"
    monad_file.write_text(f"P 1 over F101\nterm -1: [{-gap}]\nterm 0: [0]\ndiff -1:\n"
                          f"x0^{gap}\ncodim 1\ncohomology_at 0\n")
    element_file = tmp_path / f"spread{gap}.element"
    element_file.write_text(f"P 1 over F101\nterm 0: [0,{gap}]\nblock 0:\n1; 0\n"
                            f"x0^{gap}; 1\n")
    return str(monad_file), str(element_file)


@pytest.mark.parametrize("gap", [MAX_DEGREE + 1, 5 * 10**9])
@pytest.mark.parametrize("command", ["validate", "dualize", "group dual"])
def test_twist_spread_past_the_degree_bound_is_parse_error(capsys, tmp_path, gap, command):
    monad_file, element_file = _spread_files(tmp_path, gap)
    argv = (["group", "dual", "--element", element_file, "--codim", "1"]
            if command == "group dual" else ["monad", command, "--in", monad_file])
    start = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - start < 1.0
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["kind"] == "parse"
    assert "apart" in payload["error"]["message"]
    _check(payload, "error")


def test_twist_spread_at_the_degree_bound_is_accepted(capsys, tmp_path):
    monad_file, element_file = _spread_files(tmp_path, MAX_DEGREE)
    assert run(["monad", "validate", "--in", monad_file]) == 0
    assert run(["monad", "dualize", "--in", monad_file]) == 0
    assert f"x0^{MAX_DEGREE}" in capsys.readouterr().out
    assert run(["group", "dual", "--element", element_file, "--codim", "1"]) == 0
    assert f"x0^{MAX_DEGREE}" in capsys.readouterr().out


def _pipeline_outputs(capsys, workdir, cubic_file) -> list:
    """The bytes of the p3 demos, a Hilbert window over Q, one action
    square and a P^4 Bott column, each computed from cold section-rank
    caches."""
    monad_module._sections_rank.cache_clear()
    out = []
    for seed in range(4):
        for field in ("Fp:101", "Fp:2147483647"):
            assert run(["p3", "demo", "--json", "--seed", str(seed), "--field", field]) == 0
            out.append(capsys.readouterr().out)
    assert run(["monad", "hilbert", "--in", cubic_file]) == 0
    out.append(capsys.readouterr().out)
    m = direct_sum(koszul_monad(GF(101), 3, (0, 1, 2), twist=0, c=2),
                   koszul_monad(GF(101), 3, (1, 3), twist=-2, c=2))
    paths = {name: str(workdir / name) for name in ("m", "g", "acted", "d1", "gd", "md", "d2")}
    Path(paths["m"]).write_text(format_monad(m))
    Path(paths["g"]).write_text(format_group_element(random_element(m.field, m, seed=5)))
    for argv in (["group", "act", "--monad", paths["m"], "--element", paths["g"],
                  "--out", paths["acted"]],
                 ["monad", "dualize", "--in", paths["acted"], "--out", paths["d1"]],
                 ["group", "dual", "--element", paths["g"], "--codim", "2", "--out", paths["gd"]],
                 ["monad", "dualize", "--in", paths["m"], "--out", paths["md"]],
                 ["group", "act", "--monad", paths["md"], "--element", paths["gd"],
                  "--out", paths["d2"]]):
        assert run(argv) == 0
    out += [Path(p).read_text() for p in paths.values()]
    out.append(sheaf_cohomology(omega_resolution(QQ, 4, 2, 1)))
    return out


def test_no_computing_path_decodes_monomials(capsys, tmp_path, monkeypatch, cubic_file):
    # HomogPoly.terms decodes packed monomials into tuples for readers
    # outside the package; the pipeline itself must never need it
    def refuse(self):
        raise AssertionError("a computing path read HomogPoly.terms")

    with monkeypatch.context() as patch:
        patch.setattr(HomogPoly, "terms", property(refuse))
        (tmp_path / "patched").mkdir()
        patched = _pipeline_outputs(capsys, tmp_path / "patched", cubic_file)
    (tmp_path / "plain").mkdir()
    plain = _pipeline_outputs(capsys, tmp_path / "plain", cubic_file)
    assert patched == plain
    assert plain[-5] == plain[-2]  # d1 == d2: the action square commutes


def test_cli_import_leaves_numpy_unloaded():
    import projmonad

    env = dict(os.environ, PYTHONPATH=str(Path(projmonad.__file__).resolve().parents[1]))
    code = "import sys, projmonad.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "False"


def test_cli_round_trip_dualize_twice(capsys, cubic_file, tmp_path):
    once = tmp_path / "d1.monad"
    twice = tmp_path / "d2.monad"
    run(["monad", "dualize", "--in", cubic_file, "--out", str(once)])
    run(["monad", "dualize", "--in", str(once), "--out", str(twice)])
    assert twice.read_text() == open(cubic_file).read()


@pytest.mark.parametrize("command", ["monad validate", "p3 demo"])
def test_large_prime_modulus_is_refused_at_once(capsys, tmp_path, command):
    # 2^61 - 1 is prime: refused for its size before any primality test
    p = 2**61 - 1
    if command == "monad validate":
        path = tmp_path / "big.monad"
        path.write_text(f"P 2 over F{p}\nterm 0: [0]\ncodim 1\ncohomology_at 0\n")
        argv = ["monad", "validate", "--in", str(path)]
    else:
        argv = ["p3", "demo", "--field", f"Fp:{p}", "--json"]
    start = time.perf_counter()
    rc = run(argv)
    assert time.perf_counter() - start < 1.0
    # a modulus the program cannot use is a bad field token, like F4
    assert rc == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == {"kind": "parse", "message": f"modulus {p} exceeds 2^31"}
    _check(payload, "error")


@pytest.fixture
def koszul_file(tmp_path):
    path = tmp_path / "koszul.monad"
    path.write_text(format_monad(koszul_monad(QQ, 2, [0, 1], twist=0, c=2)))
    return str(path)


def _fresh_run(argv):
    """Exit code, stdout and stderr of the CLI in a new interpreter."""
    import projmonad

    env = dict(os.environ, PYTHONPATH=str(Path(projmonad.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "projmonad.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("args", [["3"], ["4", "-6", "6"]])
def test_bott_grid_script_agrees(args):
    import projmonad

    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(Path(projmonad.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, str(root / "scripts" / "bott_grid.py"), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "all entries agree"


def test_cached_parser_leaks_no_state_between_runs(capsys, koszul_file, tmp_path):
    bott = ["bott", "--n", "3", "--p", "1", "--q", "1", "--t", "0"]
    calls = [
        bott + ["--json"],
        bott,
        ["monad", "dualize", "--in", koszul_file, "--out", str(tmp_path / "in_process.monad")],
        ["monad", "dualize", "--in", koszul_file],
        ["monad", "exactness", "--in", koszul_file, "--bogus"],
        ["monad", "exactness", "--in", koszul_file, "--window", "1:3", "--json"],
        ["monad", "exactness", "--in", koszul_file, "--window", "1:3"],
        ["hilb", "--n", "2", "--e", "1"],
    ]
    for argv in calls:
        rc = run(argv)
        got = capsys.readouterr()
        fresh_argv = [str(tmp_path / "fresh.monad") if a.endswith("in_process.monad") else a
                      for a in argv]
        assert (rc, got.out, got.err) == _fresh_run(fresh_argv), argv
    assert (tmp_path / "in_process.monad").read_text() == (tmp_path / "fresh.monad").read_text()


@pytest.mark.parametrize("argv, says", [
    (["bott", "--n", "abc", "--p", "0", "--q", "0", "--t", "0"], "invalid int value"),
    (["bott", "--n", "3"], "required"),
    (["monad", "exactness", "--jobs", "2"], "unrecognized arguments"),
    (["frobnicate"], "invalid choice"),
    (["monad", "transpose"], "invalid choice"),
    (["p3", "sample"], "--seed"),
    (["p3"], "required"),
    ([], "required"),
    (["group", "act", "--monad"], "expected one argument"),
    (["p3", "demo", "--max-tries", "1.5"], "invalid int value"),
    # the innermost parser that saw an unrecognized argument names itself
    (["monad", "exactness", "--jobs", "2"],
     "projmonad monad exactness: unrecognized arguments: --jobs 2"),
    (["p3", "check", "--in", "point.monad", "--json"],
     "projmonad p3 check: unrecognized arguments: --json"),
    (["bott", "--n", "3", "--p", "1", "--q", "1", "--t", "0", "extra"],
     "projmonad bott: unrecognized arguments: extra"),
    (["monad", "--bogus", "validate", "--in", "point.monad"],
     "projmonad monad: unrecognized arguments: --bogus"),
])
def test_malformed_command_line_is_a_json_parse_error(capsys, argv, says):
    assert run(argv) == 2
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["error"]["kind"] == "parse" and says in payload["error"]["message"]
    assert err == ""
    _check(payload, "error")


@pytest.mark.parametrize("argv", [["--help"], ["bott", "--help"], ["monad", "hilbert", "-h"]])
def test_help_still_exits_zero(capsys, argv):
    assert run(argv) == 0
    assert capsys.readouterr().out.startswith("usage: projmonad")


def test_malformed_command_line_in_a_new_process():
    rc, out, err = _fresh_run(["bott", "--n", "abc"])
    assert (rc, err) == (2, "")
    _check(json.loads(out), "error")


# Every command that writes to --out, with the inputs it reads.
OUT_COMMANDS = {
    "monad dualize": ["monad", "dualize", "--in", "{cubic}"],
    "beilinson dualtable": ["beilinson", "dualtable", "--in", "{table}"],
    "group random": ["group", "random", "--monad", "{cubic_f101}", "--seed", "4"],
    "group act": ["group", "act", "--monad", "{cubic_f101}", "--element", "{element}"],
    "group dual": ["group", "dual", "--element", "{element}", "--codim", "2"],
    "p3 sample": ["p3", "sample", "--seed", "3"],
    "p3 dualize": ["p3", "dualize", "--in", "{cubic}"],
}
# The ones among them that also take --json.
OUT_JSON_COMMANDS = {"monad dualize", "p3 sample"}


def _out_argv(tmp_path, cubic_file, cubic_f101_file, command) -> list[str]:
    """The arguments of an OUT_COMMANDS entry, its input files written."""
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"n": 2, "d": 1, "entries": [[0, 0, 1], [-1, 1, 1]]}))
    element = tmp_path / "g.element"
    m = parse_monad(Path(cubic_f101_file).read_text())
    element.write_text(format_group_element(random_element(m.field, m, seed=4)))
    files = {"cubic": cubic_file, "cubic_f101": cubic_f101_file, "table": table,
             "element": element}
    return [a.format(**files) for a in OUT_COMMANDS[command]]


@pytest.mark.parametrize("target", ["missing directory", "directory"])
@pytest.mark.parametrize("command", OUT_COMMANDS)
def test_unwritable_out_is_a_json_parse_error(capsys, tmp_path, cubic_file, cubic_f101_file,
                                              command, target):
    out = tmp_path / "no" / "such" / "x" if target == "missing directory" else tmp_path
    argv = _out_argv(tmp_path, cubic_file, cubic_f101_file, command) + ["--out", str(out)]
    assert run(argv) == 2
    got = capsys.readouterr()
    payload = json.loads(got.out)
    assert payload["error"]["kind"] == "parse"
    assert payload["error"]["message"].startswith(f"cannot write {out}: ")
    assert got.err == ""
    _check(payload, "error")


@pytest.mark.parametrize("command", OUT_COMMANDS)
def test_json_goes_to_out(capsys, tmp_path, cubic_file, cubic_f101_file, command):
    # --out holds exactly what stdout gets without it, in text and in JSON
    argv = _out_argv(tmp_path, cubic_file, cubic_f101_file, command)
    for flags in ([], ["--json"]) if command in OUT_JSON_COMMANDS else ([],):
        assert run(argv + flags) == 0
        printed = capsys.readouterr().out
        assert printed
        out = tmp_path / "out"
        assert run(argv + flags + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == printed
        if flags:
            json.loads(printed)
    if command not in OUT_JSON_COMMANDS:
        assert run(argv + ["--json"]) == 2
        capsys.readouterr()


def test_monad_exactness_bad_positions_is_parse_error(capsys, koszul_file):
    assert run(["monad", "exactness", "--in", koszul_file, "--positions", "x"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["kind"] == "parse"
    _check(payload, "error")


@pytest.mark.parametrize("flag, message", [
    ("--window=", "window must look like lo:hi, got ''"),
    ("--positions=", "bad positions ''"),
    ("--window=3:x", "bad window '3:x'"),
    ("--window=5:3", "empty window '5:3'"),
])
def test_monad_exactness_empty_value_is_parse_error(capsys, koszul_file, flag, message):
    # an empty value is not the default; a malformed or empty window is refused
    assert run(["monad", "exactness", "--in", koszul_file, flag]) == 2
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["error"] == {"kind": "parse", "message": message}
    assert err == ""
    _check(payload, "error")


@pytest.mark.parametrize("argv, kind, message", [
    (["monad", "exactness", "--in", "{koszul}", "--positions", "9"],
     "domain", "position 9 outside [-2, 0]"),
    (["monad", "validate", "--in", "{short_row}"], "parse", "diff -1 row 0: expected 2 entries"),
    (["monad", "validate", "--in", "{no_term}"], "parse", "a monad needs at least one term"),
    (["group", "act", "--monad", "{cubic_f101}", "--element", "{koszul_element}"],
     "domain", "group element does not match term -2"),
], ids=["position outside", "short diff row", "no term", "element of another complex"])
def test_hostile_input_is_one_json_error(capsys, tmp_path, koszul_file, cubic_f101_file,
                                         argv, kind, message):
    files = {"koszul": koszul_file, "cubic_f101": cubic_f101_file}
    for name, text in [
        ("short_row", "P 2 over Q\nterm -1: [0,0]\nterm 0: [0]\ndiff -1:\n1\n"
                      "codim 1\ncohomology_at 0\n"),
        ("no_term", "P 2 over Q\ncodim 1\ncohomology_at 0\n"),
        ("koszul_element", format_group_element(
            random_element(QQ, parse_monad(Path(koszul_file).read_text()), seed=1))),
    ]:
        files[name] = str(tmp_path / name)
        (tmp_path / name).write_text(text)
    assert run([a.format(**files) for a in argv]) == (1 if kind == "domain" else 2)
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["error"] == {"kind": kind, "message": message}
    assert err == ""
    _check(payload, "error")


EXACTNESS = ["monad", "exactness", "--in", "{koszul}"]


@pytest.mark.parametrize("spaced, joined", [
    (EXACTNESS + ["--window", "-3:2"], EXACTNESS + ["--window=-3:2"]),
    (EXACTNESS + ["--positions", "-2,-1"], EXACTNESS + ["--positions=-2,-1"]),
    (EXACTNESS + ["--window", "-3:2", "--positions", "-2", "--json"],
     EXACTNESS + ["--window=-3:2", "--positions=-2", "--json"]),
    (["hilb", "--n", "3", "--e", "-4"], ["hilb", "--n", "3", "--e=-4"]),
], ids=["window", "positions", "window, positions and json", "hilb"])
def test_negative_option_values_need_no_equals_sign(capsys, koszul_file, spaced, joined):
    # a value that starts with a minus and a digit is read as the value
    assert run([a.format(koszul=koszul_file) for a in joined]) == 0
    expected = capsys.readouterr().out
    assert run([a.format(koszul=koszul_file) for a in spaced]) == 0
    assert capsys.readouterr().out == expected


def test_monad_exactness_huge_window_is_domain_error(capsys, koszul_file):
    start = time.perf_counter()
    assert run(["monad", "exactness", "--in", koszul_file, "--window", "0:100000"]) == 1
    assert time.perf_counter() - start < 1.0
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["kind"] == "domain"
    _check(payload, "error")


def test_monad_exactness_many_twists_is_domain_error(capsys, koszul_file):
    # every section matrix of this window is empty, so only the twist
    # count stops it; the window is never listed
    start = time.perf_counter()
    assert run(["monad", "exactness", "--in", koszul_file, "--window=-200000:0"]) == 1
    assert time.perf_counter() - start < 1.0
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["kind"] == "domain"
    assert f"more than {MAX_WINDOW_TWISTS}" in payload["error"]["message"]
    _check(payload, "error")


@pytest.mark.parametrize("window", ["0:99999999999999999999", "-99999999999999999999:0"])
def test_monad_exactness_window_past_a_machine_size_is_domain_error(capsys, koszul_file,
                                                                     window):
    # more twists than len() of a range can count
    start = time.perf_counter()
    assert run(["monad", "exactness", "--in", koszul_file, f"--window={window}"]) == 1
    assert time.perf_counter() - start < 1.0
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == {
        "kind": "domain",
        "message": f"window of 100000000000000000000 twists, more than {MAX_WINDOW_TWISTS}"}
    _check(payload, "error")


def test_monad_exactness_narrow_high_window_is_domain_error(capsys, koszul_file):
    # two twists, so only the section-matrix size stops it
    start = time.perf_counter()
    assert run(["monad", "exactness", "--in", koszul_file, "--window", "5000:5001"]) == 1
    assert time.perf_counter() - start < 1.0
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["kind"] == "domain"
    assert "section matrix" in payload["error"]["message"]
    _check(payload, "error")


@pytest.mark.parametrize("depth, code", [
    (MAX_PAREN_DEPTH, 0), (MAX_PAREN_DEPTH + 1, 2), (3000, 2)])
def test_paren_nesting_bound(capsys, tmp_path, depth, code):
    path = tmp_path / "nested.monad"
    cell = "(" * depth + "x0" + ")" * depth
    path.write_text(f"P 2 over Q\nterm -1: [-1]\nterm 0: [0]\ndiff -1:\n{cell}\n"
                    "codim 1\ncohomology_at 0\n")
    assert run(["monad", "validate", "--in", str(path), "--json"]) == code
    payload = json.loads(capsys.readouterr().out)
    if code:
        assert payload["error"]["kind"] == "parse"
        _check(payload, "error")
    else:
        assert payload == {"ok": True, "violations": []}


def test_power_of_a_sum_is_refused_by_product_count(capsys, tmp_path):
    # degree 90 is legal here, but multiplying the power out takes 2.2e8
    # term products (minutes); the count stops it
    path = tmp_path / "power.monad"
    path.write_text("P 3 over F101\nterm 0: [0]\nterm 1: [90]\ndiff 0:\n"
                    "(x0+x1+x2+x3)^90\ncodim 1\ncohomology_at 1\n")
    start = time.perf_counter()
    assert run(["monad", "validate", "--in", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == {
        "kind": "parse", "message": f"input needs more than {MAX_PARSE_PRODUCTS} term products"}
    _check(payload, "error")


POWER_CELL = "(x0+x1+x2+x3)^30"  # 7e5 term products: under the bound alone


@pytest.mark.parametrize("kind", ["monad", "element"])
def test_product_bound_is_shared_by_the_cells_of_a_file(capsys, tmp_path, kind):
    # ten cells each under MAX_PARSE_PRODUCTS took seconds when every cell
    # had a bound of its own; one budget per file refuses them together
    if kind == "monad":
        path = tmp_path / "ten.monad"
        path.write_text("P 3 over F101\nterm 0: [0]\nterm 1: [" + ",".join(["30"] * 10)
                        + "]\ndiff 0:\n" + f"{POWER_CELL}\n" * 10
                        + "codim 1\ncohomology_at 1\n")
        argv = ["monad", "validate", "--in", str(path)]
    else:
        rows = [";".join(["0"] * r + ["1"] + ["0"] * (9 - r) + [POWER_CELL]) for r in range(10)]
        path = tmp_path / "ten.element"
        path.write_text("P 3 over F101\nterm 0: [" + ",".join(["30"] * 10) + ",0]\nblock 0:\n"
                        + "".join(f"{row}\n" for row in rows) + "0;" * 10 + "1\n")
        argv = ["group", "dual", "--element", str(path), "--codim", "1"]
    start = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - start < 2.0
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == {
        "kind": "parse", "message": f"input needs more than {MAX_PARSE_PRODUCTS} term products"}
    _check(payload, "error")


@pytest.mark.parametrize("density, rc", [
    ("nan", 2), ("inf", 2), ("-0.5", 2), ("-.5", 2), ("1.5", 2), ("0", 0), ("1", 0)])
def test_group_random_density_must_lie_in_unit_interval(capsys, cubic_f101_file, density, rc):
    assert run(["group", "random", "--monad", cubic_f101_file, "--seed", "4",
                "--density", density]) == rc
    out = capsys.readouterr().out
    if rc == 0:
        assert out.startswith("P 3 over F101\n")
        return
    payload = json.loads(out)
    assert payload["error"] == {
        "kind": "parse", "message": f"density must lie in [0, 1], got {float(density)}"}
    _check(payload, "error")


@pytest.mark.parametrize("command, tries", [
    ("demo", "-3"), ("demo", "0"), ("sample", "0"), ("sample", "-1")])
def test_max_tries_below_one_is_parse_error(capsys, monkeypatch, command, tries):
    def no_draw(*args):
        raise AssertionError("drew a point")

    monkeypatch.setattr(modp3_module, "_determinantal_phi", no_draw)
    assert run(["p3", command, "--json", "--seed", "0", "--max-tries", tries]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == {
        "kind": "parse", "message": f"max-tries must be at least 1, got {tries}"}
    _check(payload, "error")


def test_p3_demo_solves_each_inverse_and_ranks_each_section_matrix_once(capsys, monkeypatch):
    solved = []
    solve = autgroup_module.graded_inverse

    def counting(g):
        solved.append(g)
        return solve(g)

    for module in (autgroup_module, modp3_module):
        monkeypatch.setattr(module, "graded_inverse", counting)
    built = []
    build = monad_module.sections_matrix

    def counting_sections(d, t):
        built.append((d.source, d.target, t))
        return build(d, t)

    for module in (monad_module, modp3_module):
        monkeypatch.setattr(module, "sections_matrix", counting_sections)
    monad_module._sections_rank.cache_clear()
    rc, payload = _run_json(capsys, ["p3", "demo", "--json", "--seed", "0"])
    assert rc == 0 and payload["ok"] and payload["tries"] == 1
    # one solve for the draw, three for g's blocks; gd carries its own
    assert len(solved) == 4
    info = monad_module._sections_rank.cache_info()
    # phi at twist 3 is ranked for membership, then found again by the window
    assert (info.hits, info.misses) == (1, 5)
    # phi at twist 3 is built for the kernel solve and for its one rank;
    # membership decides clause (b) without a section matrix of phi
    assert len(built) == 7
    assert built.count((modp3_module.MIDDLE, modp3_module.TARGET, 3)) == 2


@pytest.mark.parametrize("argv", [
    ["hilb", "--n", "-5", "--e", "0"], ["monad", "validate", "--in"], ["monad", "hilbert", "--in"],
], ids=["hilb", "monad_validate", "monad_hilbert"])
def test_negative_dimension_is_domain_error(capsys, tmp_path, argv):
    dim = -5
    if argv[0] == "monad":
        dim = -1
        path = tmp_path / "negative.monad"
        path.write_text(f"P {dim} over Q\nterm 0: [0]\ncodim 1\ncohomology_at 0\n")
        argv = argv + [str(path)]
    start = time.perf_counter()
    assert run(argv) == 1
    assert time.perf_counter() - start < 1.0
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == {"kind": "domain", "message": f"dimension {dim} is negative"}
    _check(payload, "error")


def test_empty_group_element_is_parse_error(capsys, tmp_path):
    path = tmp_path / "empty.element"
    path.write_text("P 2 over Q\n")
    assert run(["group", "dual", "--element", str(path), "--codim", "1"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["kind"] == "parse"
    _check(payload, "error")


def test_p3_dualize_equals_monad_dualize(capsys, cubic_f101_file):
    assert run(["p3", "dualize", "--in", cubic_f101_file]) == 0
    p3_out = capsys.readouterr().out
    assert run(["monad", "dualize", "--in", cubic_f101_file]) == 0
    assert capsys.readouterr().out == p3_out


@pytest.mark.parametrize("command", ["check", "dualize"])
@pytest.mark.parametrize("line, replacement", [
    ("codim 2", "codim 3"), ("cohomology_at 0", "cohomology_at -1")], ids=["codim", "position"])
def test_p3_commands_refuse_other_codim_or_position(capsys, tmp_path, command, line,
                                                    replacement):
    text = format_monad(twisted_cubic_point())
    assert line + "\n" in text
    path = tmp_path / "moved.monad"
    path.write_text(text.replace(line + "\n", replacement + "\n"))
    assert run(["p3", command, "--in", str(path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["kind"] == "domain"
    assert "codim 2 and cohomology at 0" in payload["error"]["message"]
    _check(payload, "error")


def _deep_twist_file(tmp_path, k):
    """O(-(k+1)) -> O + O(-k) by (x0^(k+1), x0): its window starts near t = k."""
    path = tmp_path / f"deep{k}.monad"
    path.write_text(f"P 3 over F101\nterm -1: [{-(k + 1)}]\nterm 0: [0,{-k}]\n"
                    f"diff -1:\nx0^{k + 1}\nx0\ncodim 1\ncohomology_at 0\n")
    return str(path)


@pytest.mark.parametrize("k, reason", [(1000, "entries"), (120, "side longer than")])
def test_monad_hilbert_deep_twist_is_domain_error(capsys, tmp_path, k, reason):
    # k = 120 stays under the entry bound (375k x 165 at the top of the
    # retry window), so only the side bound stops it
    start = time.perf_counter()
    assert run(["monad", "hilbert", "--in", _deep_twist_file(tmp_path, k)]) == 1
    assert time.perf_counter() - start < 1.0
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["kind"] == "domain"
    assert "section matrix" in payload["error"]["message"]
    assert reason in payload["error"]["message"]
    _check(payload, "error")


@pytest.mark.parametrize("body, reason", [
    # zero map into O(10^9): position 1 reads nonzero from t = -10^9 on
    ("term 0: [1000000000]\nterm 1: [1000000000]\n", "section matrix"),
    # position 1 reads nonzero from t = -1 on, and the old window sat near 2000
    ("term 0: [0]\nterm 1: [2000,2000]\ndiff 0:\nx0^2000\nx1^2000\n",
     "window disagreement"),
], ids=["zero_map_far_up", "slide_past_t_n"])
def test_monad_hilbert_slide_is_bounded(capsys, tmp_path, body, reason):
    # a window sliding one twist at a time to the old window's end would
    # rank 2 * 10^9, or about 2000, twists before giving up
    path = tmp_path / "far_right.monad"
    path.write_text(f"P 1 over F101\n{body}codim 1\ncohomology_at 0\n")
    start = time.perf_counter()
    assert run(["monad", "hilbert", "--in", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["kind"] == "domain"
    assert reason in payload["error"]["message"]
    _check(payload, "error")


def test_dimension_bound(capsys, tmp_path, cubic_f101_file):
    rc, payload = _run_json(capsys, ["hilb", "--n", str(MAX_DIMENSION), "--e", "0", "--json"])
    assert rc == 0
    _check(payload, "poly")
    rc, payload = _run_json(capsys, ["bott", "--n", str(MAX_DIMENSION), "--p", "1", "--q", "0",
                                     "--t", "3", "--json"])
    assert rc == 0 and payload == {"h": bott_h(MAX_DIMENSION, 1, 0, 3)}
    start = time.perf_counter()
    assert run(["hilb", "--n", str(MAX_DIMENSION + 1), "--e", "0"]) == 1
    assert time.perf_counter() - start < 1.0
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["kind"] == "domain"
    _check(payload, "error")
    path = tmp_path / "huge_dimension.monad"
    path.write_text("P 100000 over Q\nterm -1: [-1]\nterm 0: [0]\ndiff -1:\nx0\n"
                    "codim 1\ncohomology_at 0\n")
    start = time.perf_counter()
    assert run(["monad", "hilbert", "--in", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["kind"] == "domain"
    _check(payload, "error")
    # one cell summing 20 variables on P^2000000: parsing it would take
    # seconds and hundreds of MB, so every reader refuses the header
    n = 2_000_000
    cell = " + ".join(f"x{n - k}" for k in range(20))
    monad_path = tmp_path / "huge.monad"
    monad_path.write_text(f"P {n} over Q\nterm -1: [-1]\nterm 0: [0]\ndiff -1:\n{cell}\n"
                          "codim 1\ncohomology_at 0\n")
    element_path = tmp_path / "huge.element"
    element_path.write_text(f"P {n} over Q\nterm 0: [0,-1]\nblock 0:\n1; {cell}\n0; 1\n")
    commands = [
        ["monad", "hilbert", "--in", str(monad_path)],
        ["monad", "validate", "--in", str(monad_path)],
        ["monad", "dualize", "--in", str(monad_path)],
        ["group", "random", "--monad", str(monad_path), "--seed", "0"],
        ["group", "act", "--monad", cubic_f101_file, "--element", str(element_path)],
        ["group", "dual", "--element", str(element_path), "--codim", "1"],
        # unbounded, this binomial coefficient takes minutes
        ["bott", "--n", str(n), "--p", "3", "--q", "0", "--t", str(n), "--json"],
    ]
    for argv in commands:
        start = time.perf_counter()
        assert run(argv) == 1, argv
        assert time.perf_counter() - start < 1.0, argv
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == {
            "kind": "domain", "message": f"dimension {n} is larger than {MAX_DIMENSION}"}
        _check(payload, "error")
    # the bound itself is a dimension files may use
    at_bound = tmp_path / "at_bound.monad"
    at_bound.write_text(f"P {MAX_DIMENSION} over Q\nterm 0: [0]\ncodim 1\ncohomology_at 0\n")
    assert run(["monad", "validate", "--in", str(at_bound)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("codim", [0, -5, 4, 99])
def test_group_dual_codimension_out_of_range(capsys, tmp_path, cubic_f101_file, codim):
    element = tmp_path / "g.element"
    assert run(["group", "random", "--monad", cubic_f101_file, "--seed", "4",
                "--out", str(element)]) == 0
    out = tmp_path / "gd.element"
    assert run(["group", "dual", "--element", str(element), "--codim", str(codim),
                "--out", str(out)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == {"kind": "domain",
                                "message": f"codimension {codim} out of range 1..3"}
    _check(payload, "error")
    assert not out.exists()
    for c in (1, 2, 3):
        assert run(["group", "dual", "--element", str(element), "--codim", str(c),
                    "--out", str(out)]) == 0
