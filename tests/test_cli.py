"""Command line: parsing, exit codes, deterministic exports, derive round-trips."""

import argparse
import ast
import json
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from nervetower import cli, oracles
from nervetower.cli import (EXIT_INPUT, EXIT_OK, EXIT_RESOURCE, EXIT_UNCERTAIN,
                            bundled_names, load_bundled, load_spec_text,
                            main, parse_spec, spec_to_doc)
from nervetower.nerve import build_nerve
from nervetower.oracles import SpecError

GASKET_DOC = {
    "name": "inline-gasket",
    "orientation": "forward",
    "m": 3,
    "backend": {
        "kind": "geometric",
        "maps": [
            {"matrix": [["1/2", 0], [0, "1/2"]], "translation": [0, 0]},
            {"matrix": [["1/2", 0], [0, "1/2"]], "translation": ["1/2", 0]},
            {"matrix": [["1/2", 0], [0, "1/2"]], "translation": [0, "1/2"]},
        ],
        "envelope": [[0, 0], [1, 0], [0, 1]],
    },
}

SLOW_DOC = {
    "name": "slow",
    "orientation": "forward",
    "m": 2,
    "backend": {
        "kind": "geometric",
        "maps": [
            {"matrix": [["1/2", 0], [0, "1/4"]], "translation": [0, 0]},
            {"matrix": [["1/2", 0], [0, "1/4"]], "translation": ["1/4", "1/4"]},
        ],
        "envelope": [[0, 0], [1, 0], [1, 1], [0, 1]],
    },
}


def write_doc(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestParseSpec:
    def test_inline_geometric(self):
        loaded = parse_spec(GASKET_DOC)
        assert loaded.spec.m == 3
        assert loaded.spec.is_geometric
        assert loaded.flags.pivot is None

    def test_floats_rejected(self):
        text = json.dumps(GASKET_DOC).replace('"1/2"', "0.5")
        with pytest.raises(SpecError):
            load_spec_text(text)

    def test_unknown_flag_rejected(self):
        doc = dict(GASKET_DOC, flags={"assert_lx_connected": True, "typo": 1})
        with pytest.raises(SpecError):
            parse_spec(doc)

    def test_pivot_flag_range(self):
        with pytest.raises(SpecError):
            parse_spec(dict(GASKET_DOC, flags={"pivot": 9}))

    def test_bad_kind(self):
        doc = dict(GASKET_DOC, backend={"kind": "mystery"})
        with pytest.raises(SpecError):
            parse_spec(doc)

    def test_bad_orientation(self):
        with pytest.raises(SpecError):
            parse_spec(dict(GASKET_DOC, orientation="sideways"))

    def test_backward_spec_inverts(self):
        doc = dict(GASKET_DOC, orientation="backward")
        doc["backend"] = dict(doc["backend"], maps=[
            {"matrix": [[2, 0], [0, 2]], "translation": [0, 0]},
            {"matrix": [[2, 0], [0, 2]], "translation": [-1, 0]},
            {"matrix": [[2, 0], [0, 2]], "translation": [0, -1]},
        ])
        loaded = parse_spec(doc)
        assert loaded.spec.orientation == "backward"

    def test_all_bundled_specs_load(self):
        names = bundled_names()
        assert len(names) == 15
        for name in names:
            loaded = load_bundled(name)
            assert loaded.spec.name == name

    def test_readme_spec_examples_parse(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
        assert blocks
        for text in blocks:
            load_spec_text(text)

    def test_geometric_round_trip(self):
        loaded = parse_spec(GASKET_DOC)
        doc = spec_to_doc(loaded.spec)
        again = parse_spec(doc)
        assert spec_to_doc(again.spec) == doc


class TestExitCodes:
    def test_missing_file_or_name(self, capsys):
        assert main(["nerve", "nope-no-such-system", "--depth", "1"]) == EXIT_INPUT
        assert "error" in capsys.readouterr().err

    def test_float_in_spec_file(self, tmp_path, capsys):
        text = json.dumps(GASKET_DOC).replace('"1/2"', "0.5")
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        assert main(["nerve", str(path), "--depth", "1"]) == EXIT_INPUT

    def test_bad_subsystem_word(self, tmp_path, capsys):
        out = str(tmp_path / "d.json")
        code = main(["derive", "gasket", "--subsystem", "99", "--out", out])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("words", ["", ","])
    def test_subsystem_without_words(self, capsys, words):
        assert main(["derive", "gasket", "--subsystem", words]) == EXIT_INPUT
        assert capsys.readouterr() == ("", "error: --subsystem needs at least one word\n")

    def test_table_symbol_outside_the_alphabet(self, tmp_path, capsys):
        path = write_doc(tmp_path, {
            "name": "bad", "orientation": "forward", "m": 3,
            "backend": {"kind": "table", "levels": {"1": [[[1], [5]]]}}})
        assert main(["tower", path, "--max-depth", "1"]) == EXIT_INPUT
        assert capsys.readouterr().err == \
            "error: backend.levels[1][0]: symbol 5 outside 1..3\n"

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_hypothesis_flags_must_be_booleans(self, tmp_path, capsys, value):
        path = write_doc(tmp_path, {
            "name": "flagged", "orientation": "forward", "m": 2,
            "backend": {"kind": "table", "levels": {"1": [["1", "2"]]}},
            "flags": {"assert_lx_connected": value}})
        assert main(["tower", path, "--max-depth", "1"]) == EXIT_INPUT
        assert capsys.readouterr().err == \
            "error: flags.assert_lx_connected must be true or false\n"

    @pytest.mark.parametrize("levels,message", [
        # cells 1 and 2 meet, yet no child of 1 meets a child of 2
        ({"1": [["1", "2"]], "2": [["11", "12"]]},
         "table level 1 lists {1, 2}, which no level-2 simplex truncates onto"),
        # cells 12 and 21 meet inside cells 1 and 2, which do not meet
        ({"1": [], "2": [["12", "21"]]},
         "table level 2 truncates onto {1, 2}, which level 1 does not list")])
    def test_table_levels_must_form_a_tower(self, tmp_path, capsys, levels, message):
        path = write_doc(tmp_path, {"name": "not-a-tower", "orientation": "forward", "m": 2,
                                    "backend": {"kind": "table", "levels": levels}})
        assert main(["tower", path, "--max-depth", "2"]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [["tower", "--max-depth", "2"], ["classify"]])
    def test_table_blocks_must_hold_the_copies(self, tmp_path, capsys, argv):
        """This table forms a tower, but block 1 of level 2 lacks the copy
        11-12-13 of the level-1 triangle (both commands used to stop with a
        ConsistencyError traceback from the component verdict)."""
        levels = {"1": [["1", "2", "3"]],
                  "2": [["12", "21", "31"], ["13", "32"], ["23", "33"]]}
        path = write_doc(tmp_path, {"name": "no-copies", "orientation": "forward", "m": 3,
                                    "backend": {"kind": "table", "levels": levels}})
        assert main([argv[0], path, *argv[1:]]) == EXIT_INPUT
        assert capsys.readouterr().err == ("error: table level 2 does not list {11, 12}, the"
                                           " copy of level-1 simplex {1, 2} in block 1\n")

    def test_field_gf0_is_not_the_rationals(self, capsys):
        assert main(["tower", "finite-trivial", "--max-depth", "1",
                     "--field", "gf0"]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: unrecognized field 'gf0'")

    def test_field_large_prime_is_quick(self, capsys):
        """Trial division up to the square root ran past 20 s on this prime."""
        start = time.perf_counter()
        assert main(["tower", "gasket", "--max-depth", "2",
                     "--field", "gf100000000000000003"]) == EXIT_OK
        assert time.perf_counter() - start < 2
        assert capsys.readouterr().out.startswith("k,a_0,a_1,a_2,lambda,components\n")

    @pytest.mark.parametrize("digits", ["7" * 5000, "1" * 25, str(10 ** 24 + 7)],
                             ids=["5000-digits", "25-digits", "10^24+7"])
    def test_field_past_the_bound_is_refused(self, capsys, digits):
        """A 5,000-digit characteristic ended in int()'s ValueError traceback."""
        assert main(["tower", "gasket", "--max-depth", "2",
                     "--field", "gf" + digits]) == EXIT_INPUT
        assert capsys.readouterr().err == \
            "error: field characteristic must be a prime below 10^24\n"

    def test_uncertain_exit(self, tmp_path, capsys):
        path = write_doc(tmp_path, SLOW_DOC)
        code = main(["nerve", path, "--depth", "1", "--refine-depth", "0",
                     "--cert-period", "1", "--cert-preperiod", "0",
                     "--out-json", str(tmp_path / "n.json"),
                     "--out-dot", str(tmp_path / "n.dot")])
        assert code == EXIT_UNCERTAIN
        doc = json.loads((tmp_path / "n.json").read_text())
        assert doc["uncertain"]
        dot = (tmp_path / "n.dot").read_text().splitlines()
        assert '  "1" -- "2" [style=dashed label="uncertain"];' in dot

    def test_singular_cell_map_is_unknown_not_a_traceback(self, tmp_path, capsys):
        # cell map 1 flattens the triangle onto a segment: the overlap points
        # of pair (1,2) cannot be pulled back through it
        doc = dict(GASKET_DOC, name="singular-first-map")
        doc["backend"] = dict(doc["backend"], maps=[
            {"matrix": [["1/2", 0], [0, 0]], "translation": [0, 0]},
            *GASKET_DOC["backend"]["maps"][1:]])
        path = write_doc(tmp_path, doc)
        assert main(["tower", path, "--max-depth", "2",
                     "--out-csv", str(tmp_path / "t.csv")]) == EXIT_OK
        report = tmp_path / "c.json"
        assert main(["classify", path, "--out-report", str(report)]) == EXIT_UNCERTAIN
        pu = json.loads(report.read_text())["postunbranched"]
        assert (pu["status"], pu["mechanism"]) == ("unknown", "singular-cell-map")
        assert pu["pairs"]["1,2"]["status"] == "unknown"
        assert "cell map 1 is singular" in pu["pairs"]["1,2"]["detail"]
        assert pu["witness"].startswith("pair (1,2): cell map 1 is singular")
        assert "cell map 1 is singular" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["nerve", "gasket", "--depth", "2"],
        ["tower", "gasket", "--max-depth", "2"],
        ["classify", "gasket"],
        ["derive", "gasket", "--iterate", "2"],
    ])
    @pytest.mark.parametrize("cap", ["-5", "0"])
    def test_non_positive_max_cells_is_a_usage_error(self, capsys, argv, cap):
        """A cap below 1 is rejected while parsing, as bad input, not
        reported as a resource refusal after the spec is loaded."""
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--max-cells", cap])
        assert exc.value.code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"error: argument --max-cells: must be a positive integer, got {int(cap)}\n")

    @pytest.mark.parametrize("argv", [
        ["nerve", "gasket", "--depth", "2"],
        ["tower", "gasket", "--max-depth", "2"],
        ["classify", "gasket"],
    ])
    @pytest.mark.parametrize("flag,value,rule", [
        ("--refine-depth", "-1", "a non-negative integer"),
        ("--cert-period", "0", "a positive integer"),
        ("--cert-preperiod", "-1", "a non-negative integer"),
    ])
    def test_nonsensical_budget_is_a_usage_error(self, capsys, argv, flag, value, rule):
        """A budget flag out of range is named while parsing (it used to
        reach the oracle as an unnamed `nonsensical budget`)."""
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument {flag}: must be {rule}, got {value}\n")

    # each case keeps its id when a row is dropped
    @pytest.mark.parametrize("argv,flag", [
        pytest.param(["nerve", "gasket", "--depth", "2"], "--dim-cap", id="argv0---dim-cap"),
        pytest.param(["tower", "gasket", "--max-depth", "2"], "--dim-cap", id="argv1---dim-cap"),
        pytest.param(["classify", "gasket"], "--dim-cap", id="argv2---dim-cap"),
        pytest.param(["nerve", "gasket"], "--depth", id="argv4---depth"),
        pytest.param(["tower", "gasket"], "--max-depth", id="argv6---max-depth"),
        pytest.param(["classify", "gasket"], "--max-depth", id="argv7---max-depth"),
    ])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_non_positive_depth_or_cap_is_a_usage_error(self, capsys, argv, flag, value):
        """Depths and the dim cap are checked while parsing and named in the
        message; they used to reach the library as `dim_cap must be at least
        1` or `check depth must be at least 1`."""
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"error: argument {flag}: must be a positive integer, got {value}\n")

    @pytest.mark.parametrize("flag,value", [
        ("--dim-cap", "2"), ("--refine-depth", "8"), ("--cert-period", "2"),
        ("--cert-preperiod", "1"),
    ])
    def test_derive_takes_no_nerve_budget(self, capsys, flag, value):
        """derive builds no nerve, so the dim cap and the oracle budget are
        not its flags: even a valid value is an unrecognized argument."""
        with pytest.raises(SystemExit) as exc:
            main(["derive", "gasket", "--iterate", "2", flag, value])
        assert exc.value.code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: unrecognized arguments: {flag} {value}\n")

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_non_positive_iterate_is_a_usage_error(self, capsys, value):
        """--iterate is checked while parsing, like the other counts."""
        with pytest.raises(SystemExit) as exc:
            main(["derive", "gasket", "--iterate", value])
        assert exc.value.code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"error: argument --iterate: must be a positive integer, got {value}\n")

    @pytest.mark.parametrize("entry,where", [
        ({"matrix": [["1/2", 0], [0, "1/0"]], "translation": [0, 0]}, "matrix[1][1]"),
        ({"matrix": [["1/2", 0], [0, "1/2"]], "translation": [0, "3/0"]}, "translation[1]"),
    ])
    def test_zero_denominator_names_its_entry(self, tmp_path, capsys, entry, where):
        doc = dict(GASKET_DOC)
        doc["backend"] = dict(doc["backend"], maps=[entry, *GASKET_DOC["backend"]["maps"][1:]])
        assert main(["tower", write_doc(tmp_path, doc), "--max-depth", "1"]) == EXIT_INPUT
        bad = entry["matrix"][1][1] if where.startswith("matrix") else entry["translation"][1]
        assert capsys.readouterr().err == \
            f'error: backend.maps[0].{where}: zero denominator in "{bad}"\n'

    def test_resource_cap(self, tmp_path, capsys):
        code = main(["tower", "gasket", "--max-depth", "9", "--max-cells", "1000",
                     "--out-csv", str(tmp_path / "t.csv")])
        assert code == EXIT_RESOURCE
        assert "--max-cells" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["nerve", "gasket", "--depth", "7"], "3^7 cells"),
        (["tower", "gasket", "--max-depth", "7"], "3^7 cells"),
        (["classify", "gasket", "--max-depth", "7"], "3^7 cells"),
        (["classify", "pentagasket"], "5^3 cells"),  # the default depth
        (["derive", "gasket", "--iterate", "7"], "3^7 generators"),
    ])
    def test_resource_cap_message(self, tmp_path, capsys, argv, message):
        """Every command refuses before any work, with one message and no output."""
        out = tmp_path / "out"
        extra = {"nerve": "--out-json", "tower": "--out-csv", "classify": "--out-report",
                 "derive": "--out"}[argv[0]]
        assert main(argv + ["--max-cells", "100", extra, str(out)]) == EXIT_RESOURCE
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == \
            ("", f"error: {message} exceed --max-cells 100\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["nerve", "gasket", "--depth"],
        ["tower", "gasket", "--max-depth"],
        ["classify", "gasket", "--max-depth"],
        ["derive", "gasket", "--iterate"],
    ])
    def test_huge_depth_is_refused_at_once(self, capsys, argv):
        """The cap is compared while m^depth is multiplied up: computing
        3^100000000 first made each of these hang."""
        start = time.perf_counter()
        assert main(argv + ["100000000"]) == EXIT_RESOURCE
        assert time.perf_counter() - start < 1
        what = "generators" if argv[0] == "derive" else "cells"
        assert capsys.readouterr().err == \
            f"error: 3^100000000 {what} exceed --max-cells 250000\n"

    @pytest.mark.parametrize("argv", [
        ["nerve", "gasket", "--depth", "2"],
        ["tower", "gasket", "--max-depth", "2"],
        ["classify", "gasket"],
    ])
    def test_huge_certificate_budget_is_refused_at_once(self, capsys, argv):
        """The tail table holds about m^(period + preperiod) addresses, so its
        cost triples with each step of the gasket's --cert-period: building
        it for 40 never returned."""
        start = time.perf_counter()
        assert main(argv + ["--cert-period", "40"]) == EXIT_RESOURCE
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == \
            ("", "error: 3^41 tail addresses exceed --max-cells 250000\n")

    @pytest.mark.parametrize("argv", [
        ["tower", "gasket", "--max-depth", "3", "--pu-depth", "4"],
        ["classify", "gasket", "--depth", "4"],
    ])
    def test_postunbranched_depth_is_no_option(self, capsys, argv):
        """The orbit walk decides every depth, so no option sets one."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INPUT
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flag", [
        (["nerve", "gasket", "--depth", "2"], "--out-json"),
        (["nerve", "gasket", "--depth", "2"], "--out-dot"),
        (["tower", "gasket", "--max-depth", "2"], "--out-csv"),
        (["tower", "gasket", "--max-depth", "2"], "--out-report"),
        (["classify", "gasket"], "--out-report"),
        (["derive", "gasket", "--iterate", "2"], "--out"),
    ])
    @pytest.mark.parametrize("target", ["a-directory", "missing-parent/out"])
    def test_unwritable_output_path(self, tmp_path, capsys, argv, flag, target):
        """An output path that is a directory, or whose directory is missing,
        is bad input reported on one line, not an OSError traceback."""
        out = tmp_path / target
        if target == "a-directory":
            out.mkdir()
        assert main(argv + [flag, str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and str(out) in err
        assert err.count("\n") == 1

    def test_spec_file_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_bytes(b"\xff\xfe")
        assert main(["tower", str(path), "--max-depth", "2"]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(
            f"error: spec file {path} is not UTF-8 text: ")

    @pytest.mark.parametrize("extra", [[], ["--dim-cap", "1"]])
    def test_inconsistent_triangle(self, tmp_path, capsys, extra):
        # vertex 1 overlaps 2 at (1)^inf and 3 at (2)^inf: its lift into the
        # triangle is ambiguous at depth 1, even when triangles are above the cap
        pairs = {"1,2": [1], "1,3": [2], "2,1": [1], "2,3": [1], "3,1": [1], "3,2": [1]}
        path = write_doc(tmp_path, {
            "name": "bad-triangle", "orientation": "forward", "m": 3,
            "backend": {"kind": "symbolicPU", "n1": [[1, 2, 3]],
                        "addresses": {pair: {"pre": [], "per": per}
                                      for pair, per in pairs.items()}}})
        code = main(["tower", path, "--max-depth", "3",
                     "--out-csv", str(tmp_path / "t.csv"), *extra])
        assert code == EXIT_INPUT
        assert "vertex 1 lifts ambiguously at depth 1" in capsys.readouterr().err

    def test_list_ok(self, capsys):
        assert main(["list"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "gasket: forward, m=3, geometric" in out
        assert "pentagasket: forward, m=5, symbolicPU" in out
        assert "banded-annuli: backward, m=4, table" in out

    def test_python_dash_m(self):
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "nervetower", "list"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == EXIT_OK, done.stderr
        assert "gasket: forward, m=3, geometric" in done.stdout


def readme_command_lines() -> list[str]:
    """The `nervetower` lines of the README's "Command line" block, with
    backslash continuations joined."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.strip() for line in block.replace("\\\n", " ").splitlines()
            if line.strip().startswith("nervetower ")]


COMMANDS = ["list", "nerve", "tower", "classify", "derive"]


def test_readme_command_lines_parse():
    """Each example parses, through the full parser and through the one that
    `main` builds for its command, to the same namespace: an option renamed
    or removed fails here."""
    lines = readme_command_lines()
    assert {line.split()[1] for line in lines} == set(COMMANDS)
    for line in lines:
        argv = shlex.split(line)[1:]
        assert cli.build_parser(argv[0]).parse_args(argv) == cli.build_parser().parse_args(argv)


def test_readme_library_block_gives_its_commented_results():
    """The README's Library block runs as written, and each line that ends
    in a comment evaluates to the value the comment gives."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(block, namespace)
    results = [re.fullmatch(r"([^#\s].*?)\s+# (.+)", line) for line in block.splitlines()]
    results = [(m[1], m[2]) for m in results if m]
    assert len(results) == 3
    for expression, value in results:
        assert eval(expression, namespace) == ast.literal_eval(value), expression


ENTRY_POINTS = [["tower", "--max-depth", "4", "--dim-cap", "1"],
                ["tower", "--max-depth", "4", "--dim-cap", "2"],
                ["classify", "--max-depth", "4"], ["nerve", "--depth", "4"], ["build_nerve"]]


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=" ".join)
@pytest.mark.parametrize("name", ["gasket", "snowflake"])
def test_licensed_systems_query_depth_1_only_from_every_entry_point(name, entry, monkeypatch,
                                                                    capsys, tmp_path):
    """A certified postunbranched geometric system is lifted past depth 1
    whoever builds it, since `nerve._levels` alone decides: `tower` at both
    dim caps, `classify`, `nerve` and a bare `build_nerve` ask the oracle
    about depth-1 cells only.  The gasket's pivot flag makes `tower` and
    `classify` build N_2 in the pivot check too, before the tower."""
    queried = []
    intersect = oracles.cells_intersect
    monkeypatch.setattr(oracles, "cells_intersect", lambda spec, ws, *rest:
                        queried.append(len(ws[0])) or intersect(spec, ws, *rest))
    if entry == ["build_nerve"]:
        build_nerve(load_bundled(name).spec, 4)
    else:
        out = ["--out-json", str(tmp_path / "n.json")] if entry[0] == "nerve" else []
        assert main([entry[0], name, *entry[1:], *out]) == EXIT_OK
    assert queried and set(queried) == {1}


USAGE_ERRORS = [[], ["bogus"], ["tower"], ["tower", "gasket", "--max-depth", "0"],
                ["tower", "gasket", "--max-depth", "2", "extra"],
                ["classify", "gasket", "--bogus"]]


def _outcome(run, capsys) -> tuple:
    """The exit status, stdout and stderr of `run()`, with argparse's exits
    caught."""
    try:
        code = run()
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _written(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


class TestOneCommandParser:
    """`main` builds only the subparser its first argument names; it must
    answer every line as the parser of all five commands does."""

    @pytest.mark.parametrize("via", ["argv", "sys.argv"])
    @pytest.mark.parametrize("argv", [shlex.split(line)[1:] for line in readme_command_lines()]
                             + [["--help"]] + [[name, "--help"] for name in COMMANDS]
                             + USAGE_ERRORS, ids=shlex.join)
    def test_same_output_as_the_full_parser(self, argv, via, tmp_path, monkeypatch, capsys):
        """The same stdout, stderr, exit status and written files, whether
        the command line is passed in or read from `sys.argv` as the console
        script does."""
        monkeypatch.setattr(sys, "argv", ["nervetower", *argv])
        outcomes = []
        for build in ("one", "full"):
            workdir = tmp_path / build
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            with monkeypatch.context() as patched:
                if build == "full":
                    full = cli.build_parser
                    patched.setattr(cli, "build_parser", lambda command=None: full())
                outcome = _outcome(lambda: main(argv) if via == "argv" else main(), capsys)
            outcomes.append((outcome, _written(workdir)))
        assert outcomes[0] == outcomes[1]

    def test_usage_errors_keep_their_text(self, capsys):
        usage = "usage: nervetower [-h] {list,nerve,tower,classify,derive} ...\n"
        assert _outcome(lambda: main(["bogus"]), capsys) == (2, "", usage + (
            "nervetower: error: argument command: invalid choice: 'bogus' (choose from"
            " 'list', 'nerve', 'tower', 'classify', 'derive')\n"))
        assert _outcome(lambda: main([]), capsys) == (2, "", usage + (
            "nervetower: error: the following arguments are required: command\n"))
        assert _outcome(lambda: main(["list", "extra"]), capsys) == (2, "", usage + (
            "nervetower: error: unrecognized arguments: extra\n"))

    def test_a_command_builds_two_parsers(self, tmp_path, monkeypatch):
        """The top-level parser and the tower subparser, not all six."""
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert main(["tower", "pentagasket", "--max-depth", "2",
                     "--out-csv", str(tmp_path / "t.csv")]) == EXIT_OK
        assert built == ["nervetower", "nervetower tower"]


class TestNerveCommand:
    def test_json_and_dot_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        da, db = tmp_path / "a.dot", tmp_path / "b.dot"
        for js, dot in ((a, da), (b, db)):
            code = main(["nerve", "gasket", "--depth", "2",
                         "--out-json", str(js), "--out-dot", str(dot)])
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        assert da.read_bytes() == db.read_bytes()

    def test_json_content(self, tmp_path):
        out = tmp_path / "n.json"
        main(["nerve", "gasket", "--depth", "2", "--out-json", str(out)])
        doc = json.loads(out.read_text())
        assert doc["depth"] == 2
        assert doc["counts"] == {"0": 9, "1": 12}
        assert ["12", "21"] in doc["simplices"]["1"]
        assert doc["complete"] is True

    def test_dot_output(self, tmp_path):
        dot = tmp_path / "n.dot"
        main(["nerve", "gasket", "--depth", "1", "--out-dot", str(dot)])
        text = dot.read_text()
        assert text.startswith("graph ")
        assert '"1" -- "2"' in text


def _interval_overlap_on(direction):
    """interval-overlap carried onto the segment from the origin to
    `direction`: each map x/2 + t becomes p/2 + t * direction."""
    half = [["1/2", 0], [0, "1/2"]]
    return {
        "name": "interval-overlap", "orientation": "forward", "m": 3,
        "backend": {
            "kind": "geometric",
            "maps": [{"matrix": half, "translation": [str(Fraction(t) * d) for d in direction]}
                     for t in ("0", "1/4", "1/2")],
            "envelope": [[0, 0], list(direction)],
        },
    }


class TestTowerCommand:
    @pytest.mark.parametrize("direction", [(0, 1), (1, 1)], ids=["vertical", "diagonal"])
    def test_interval_overlap_off_the_x_axis(self, tmp_path, capsys, direction):
        """Moved onto a vertical or a diagonal segment, interval-overlap's
        envelopes meet along that line, and its tower and nerves are the
        bundled system's."""
        outputs = []
        for spec in ("interval-overlap", write_doc(tmp_path, _interval_overlap_on(direction))):
            assert main(["tower", spec, "--max-depth", "4"]) == EXIT_OK
            assert main(["nerve", spec, "--depth", "3"]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_gasket_csv_and_report(self, tmp_path):
        csv_path, rep_path = tmp_path / "t.csv", tmp_path / "t.json"
        code = main(["tower", "gasket", "--max-depth", "3",
                     "--out-csv", str(csv_path), "--out-report", str(rep_path)])
        assert code == EXIT_OK
        assert csv_path.read_text() == (
            "k,a_0,a_1,a_2,lambda,components\n"
            "1,1,1,0,,1\n"
            "2,1,4,0,1,1\n"
            "3,1,13,0,1,1\n"
        )
        doc = json.loads(rep_path.read_text())
        assert doc["a"]["1"] == [1, 4, 13]
        assert doc["lambda"] == {"2": 1, "3": 1}
        assert doc["flags"]["postunbranched"] is True
        assert doc["flags"]["singleton_overlaps"] is True
        assert doc["component_verdict"]["kind"] == "connected"
        assert doc["b1_infinity"]["status"] == "finite"
        assert doc["b1_infinity"]["value"] == 1

    def test_csv_to_stdout_prints_what_the_default_prints(self, capsys):
        """`--out-csv -` writes the CSV alone on standard output, with no
        report after it, as when the flag is left out."""
        outs = []
        for extra in ([], ["--out-csv", "-"]):
            assert main(["tower", "gasket", "--max-depth", "2", *extra]) == EXIT_OK
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == "k,a_0,a_1,a_2,lambda,components\n1,1,1,0,,1\n2,1,4,0,1,1\n"

    def test_report_deterministic(self, tmp_path):
        outs = []
        for name in ("r1.json", "r2.json"):
            rep = tmp_path / name
            main(["tower", "pentagasket", "--max-depth", "3",
                  "--out-csv", str(tmp_path / (name + ".csv")),
                  "--out-report", str(rep)])
            outs.append(rep.read_bytes())
        assert outs[0] == outs[1]

    def test_false_flag_leaves_the_hypothesis_unverified(self, tmp_path):
        path = write_doc(tmp_path, {
            "name": "flagged", "orientation": "forward", "m": 2,
            "backend": {"kind": "table", "levels": {"1": [["1", "2"]]}},
            "flags": {"assert_lx_connected": False}})
        rep = tmp_path / "r.json"
        assert main(["tower", path, "--max-depth", "1", "--out-csv", str(tmp_path / "r.csv"),
                     "--out-report", str(rep)]) == EXIT_OK
        assert json.loads(rep.read_text())["component_verdict"]["hypothesis"] == "unverified"

    def test_flags_from_file_drive_verdict(self, tmp_path):
        rep = tmp_path / "ft.json"
        code = main(["tower", "finite-trivial", "--max-depth", "2",
                     "--out-csv", str(tmp_path / "ft.csv"),
                     "--out-report", str(rep)])
        assert code == EXIT_OK
        doc = json.loads(rep.read_text())
        assert doc["component_verdict"]["kind"] == "finitely-many"
        assert doc["component_verdict"]["count"] == 3
        assert doc["component_verdict"]["hypothesis"] == "user-asserted"

    def test_asserted_injective_table_reaches_both_verdicts(self, tmp_path):
        doc = {"name": "split-table", "orientation": "forward", "m": 2,
               "backend": {"kind": "table", "levels": {"1": [], "2": []}},
               "flags": {"assert_lx_connected": True, "assert_injective": True}}
        rep = tmp_path / "split.json"
        code = main(["tower", write_doc(tmp_path, doc), "--max-depth", "2",
                     "--out-csv", str(tmp_path / "split.csv"), "--out-report", str(rep)])
        assert code == EXIT_OK
        report = json.loads(rep.read_text())
        assert report["flags"]["injective"] is True
        assert report["limit_verdicts"]["0"]["mechanism"] == "two-block-split"
        assert report["limit_verdicts"]["0"]["status"] == "infinite"
        assert report["component_verdict"]["mechanism"] == "two-block-split"
        assert report["component_verdict"]["kind"] == "uncountable"

    def test_dim_cap_1_reports_b1_infinity_unknown(self, tmp_path):
        # a cap of 1 leaves r = 1 inexact, so no lambda is computed at all
        rep = tmp_path / "cap1.json"
        code = main(["tower", "gasket", "--max-depth", "4", "--dim-cap", "1",
                     "--out-csv", str(tmp_path / "cap1.csv"), "--out-report", str(rep)])
        assert code == EXIT_OK
        doc = json.loads(rep.read_text())
        assert doc["lambda"] == {}
        assert doc["b1_infinity"] == {"status": "unknown", "value": None,
                                      "mechanism": "no-certificate",
                                      "detail": "no lambda computed"}

    def test_gf2_field_accepted(self, tmp_path):
        code = main(["tower", "gasket", "--max-depth", "2", "--field", "gf2",
                     "--out-csv", str(tmp_path / "f.csv")])
        assert code == EXIT_OK


class TestClassifyCommand:
    def test_gasket_summary(self, capsys):
        code = main(["classify", "gasket"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "postunbranched at every depth (orbit-walk)" in out
        assert "every touching pair meets in a single point" in out
        assert "9/9 identities hold" in out
        assert "condition pivot-cycle: yes" in out
        assert "infinite rank" in out

    def test_interval_refutation(self, capsys):
        code = main(["classify", "interval-overlap"])
        assert code == EXIT_OK  # refutation is a decided answer
        out = capsys.readouterr().out
        assert "not postunbranched" in out
        assert "recurrence replay: skipped" in out

    def test_pivot_override_and_bundle(self, tmp_path, capsys):
        rep = tmp_path / "c.json"
        code = main(["classify", "five-map-funnel", "--pivot", "3",
                     "--out-report", str(rep)])
        assert code == EXIT_OK
        doc = json.loads(rep.read_text())
        assert doc["pivot_conditions"]["pivot"] == 3
        assert doc["pivot_conditions"]["conclusion"] is False
        assert doc["pivot_conditions"]["conditions"]["base-connected"]["ok"] is False
        assert doc["postunbranched"]["status"] == "postunbranched"

    def test_starved_budget_exit(self, tmp_path, capsys):
        path = write_doc(tmp_path, SLOW_DOC)
        code = main(["classify", path, "--refine-depth", "0",
                     "--cert-period", "1", "--cert-preperiod", "0"])
        assert code == EXIT_UNCERTAIN

    def test_deep_address_split_is_bad_input(self, tmp_path, capsys):
        """Vertex 1's addresses split at index 3, so its lift is ambiguous
        from depth 5 on: classify refuses the spec although its tower to
        depth 3 lifts consistently."""
        ones = {"pre": [], "per": [1]}
        addresses = {pair: ones for pair in ("1,3", "2,1", "2,3", "3,1", "3,2")}
        addresses["1,2"] = {"pre": [1, 1, 1, 2], "per": [1]}
        path = write_doc(tmp_path, {
            "name": "split-late", "orientation": "forward", "m": 3,
            "backend": {"kind": "symbolicPU", "n1": [[1, 2, 3]], "addresses": addresses}})
        assert main(["classify", path]) == EXIT_INPUT
        assert capsys.readouterr() == ("", "error: simplex (1, 2, 3): vertex 1 lifts "
                                           "ambiguously at depth 4: 1111, 1112\n")

    def test_table_default_depth_is_capped_at_the_table(self, tmp_path, capsys):
        # banded-annuli stores depths 1 and 2: the default replay stops at 2
        reports = [tmp_path / "default.json", tmp_path / "k2.json"]
        assert main(["classify", "banded-annuli", "--out-report", str(reports[0])]) == EXIT_OK
        assert main(["classify", "banded-annuli", "--max-depth", "2",
                     "--out-report", str(reports[1])]) == EXIT_OK
        assert reports[0].read_bytes() == reports[1].read_bytes()

    def test_table_explicit_depth_beyond_the_table(self, capsys):
        assert main(["classify", "banded-annuli", "--max-depth", "3"]) == EXIT_INPUT
        assert "stores no depth-3 data" in capsys.readouterr().err


class TestDeriveCommand:
    def test_iterate_round_trip(self, tmp_path, capsys):
        out = tmp_path / "g2.json"
        code = main(["derive", "gasket", "--iterate", "2", "--name", "g2",
                     "--out", str(out)])
        assert code == EXIT_OK
        loaded = parse_spec(json.loads(out.read_text()))
        assert loaded.spec.m == 9
        nerve_out = tmp_path / "g2-nerve.json"
        main(["nerve", str(out), "--depth", "1", "--out-json", str(nerve_out)])
        doc = json.loads(nerve_out.read_text())
        assert doc["counts"] == {"0": 9, "1": 12}

    def test_bundled_subsystems_match_fresh_derive(self, tmp_path):
        cases = {
            "gasket-sub7": "11,13,22,23,31,32,33",
            "gasket-sub-mixed": "11,12,21,22,31,32,33",
        }
        import importlib.resources as resources
        for name, words in cases.items():
            out = tmp_path / (name + ".json")
            code = main(["derive", "gasket", "--subsystem", words,
                         "--name", name, "--out", str(out)])
            assert code == EXIT_OK
            packaged = resources.files("nervetower").joinpath(
                "specs", name + ".json").read_bytes()
            assert out.read_bytes() == packaged

    def test_derive_needs_geometry(self, tmp_path, capsys):
        code = main(["derive", "finite-cycle", "--iterate", "2",
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_INPUT

    def test_stdout_default(self, capsys):
        code = main(["derive", "gasket", "--iterate", "1", "--name", "same"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["m"] == 3
