"""Command-line behavior: outputs, file handling, and exit codes."""

from __future__ import annotations

import importlib
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spnmap
from spnmap import parse_spn
from spnmap.cli import main
from test_formats import MIXTURE_DOC

DIAMOND_DOC = "graph 4\nedge 1 2\nedge 2 3\nedge 3 4\nedge 4 1\nedge 1 3\n"
TWO_CLAUSE_DOC = "p cnf 4 2\n-1 2 -3 0\n-1 3 4 0\n"
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


@pytest.fixture
def mixture_file(tmp_path):
    path = tmp_path / "mixture.spn"
    path.write_text(MIXTURE_DOC, encoding="utf-8")
    return str(path)


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "diamond.graph"
    path.write_text(DIAMOND_DOC, encoding="utf-8")
    return str(path)


@pytest.fixture
def cnf_file(tmp_path):
    path = tmp_path / "two.cnf"
    path.write_text(TWO_CLAUSE_DOC, encoding="utf-8")
    return str(path)


def first_value(line: str) -> float:
    tokens = line.split()
    assert tokens[0] == "value" and tokens[2] == "logvalue"
    assert float(tokens[3]) == pytest.approx(math.log(float(tokens[1])), rel=1e-9)
    return float(tokens[1])


class TestValidate:
    def test_valid_network(self, mixture_file, capsys):
        assert main(["validate", mixture_file]) == 0
        assert capsys.readouterr().out.strip() == "valid"

    def test_invalid_network_lists_violations(self, tmp_path, capsys):
        doc = "spn 2\nnode 0 sum\nnode 1 leaf 0 .5 .5\nedge 0 1 0.8\n"
        path = tmp_path / "bad.spn"
        path.write_text(doc, encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "violation normalization node 0" in out

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.spn"
        path.write_text("spn zero\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["validate", "/no/such/file.spn"]) == 2
        assert "error" in capsys.readouterr().err


class TestEvalAndMarginal:
    def test_eval(self, mixture_file, capsys):
        assert main(["eval", mixture_file, "--assignment", "0=1,1=0"]) == 0
        assert first_value(capsys.readouterr().out) == pytest.approx(0.4, abs=1e-12)

    def test_eval_requires_total_assignment(self, mixture_file, capsys):
        assert main(["eval", mixture_file, "--assignment", "0=1"]) == 1
        assert "missing variable" in capsys.readouterr().err

    def test_marginal(self, mixture_file, capsys):
        assert main(["marginal", mixture_file, "--evidence", "1=0"]) == 0
        assert first_value(capsys.readouterr().out) == pytest.approx(0.7, abs=1e-12)

    def test_marginal_defaults_to_total_mass(self, mixture_file, capsys):
        assert main(["marginal", mixture_file]) == 0
        assert first_value(capsys.readouterr().out) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_network_exits_1(self, tmp_path, capsys):
        doc = "spn 2\nnode 0 sum\nnode 1 leaf 0 .5 .5\nedge 0 1 0.8\n"
        path = tmp_path / "bad.spn"
        path.write_text(doc, encoding="utf-8")
        assert main(["marginal", str(path)]) == 1
        assert "violation" in capsys.readouterr().err


class TestMap:
    def test_exact(self, mixture_file, capsys):
        assert main(["map", mixture_file, "--algo", "exact"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert first_value(lines[0]) == pytest.approx(0.4, abs=1e-12)
        assert lines[1] == "config 0=1 1=0"

    def test_maxprod(self, mixture_file, capsys):
        assert main(["map", mixture_file, "--algo", "maxprod"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert first_value(lines[0]) == pytest.approx(0.3, abs=1e-12)
        assert lines[1] == "config 0=0 1=0"

    def test_amap_with_evidence(self, mixture_file, capsys):
        assert main(["map", mixture_file, "--algo", "amap", "--evidence", "1=1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] in ("config 0=0 1=1", "config 0=1 1=1")
        assert first_value(lines[0]) == pytest.approx(0.15, abs=1e-12)

    def test_bad_algo_exits_2(self, mixture_file, capsys):
        assert main(["map", mixture_file, "--algo", "bogus"]) == 2

    def test_bad_evidence_value_exits_1(self, mixture_file, capsys):
        assert main(["map", mixture_file, "--algo", "exact", "--evidence", "0=9"]) == 1


class TestReduce:
    def test_mis_output_reparses(self, graph_file, capsys):
        assert main(["reduce", "mis", graph_file]) == 0
        out = capsys.readouterr().out
        net = parse_spn(out)
        assert len(net.nodes) == 21
        assert "# normalizer 6" in out

    def test_mis_to_file(self, graph_file, tmp_path, capsys):
        target = tmp_path / "mis.spn"
        assert main(["reduce", "mis", graph_file, "--output", str(target)]) == 0
        assert capsys.readouterr().out == ""
        net = parse_spn(target.read_text(encoding="utf-8"))
        assert len(net.nodes) == 21

    def test_cnf_single_copy(self, cnf_file, capsys):
        assert main(["reduce", "cnf", cnf_file]) == 0
        out = capsys.readouterr().out
        net = parse_spn(out)
        assert len(net.nodes) == 71
        assert "# copies 1" in out
        assert "# threshold 1/14" in out

    def test_cnf_amplified(self, cnf_file, tmp_path):
        target = tmp_path / "amp.spn"
        code = main(
            ["reduce", "cnf", cnf_file, "--epsilon", "0.0", "--output", str(target)]
        )
        assert code == 0
        text = target.read_text(encoding="utf-8")
        net = parse_spn(text)
        # epsilon 0 forces q = 1 + floor(2 ln 2) = 2 copies.
        assert "# copies 2" in text
        assert len(net.nodes) == 2 * 71 + 1

    def test_cnf_at_the_papers_epsilon(self, cnf_file, tmp_path):
        # The threshold (1/14)**3870 has more digits than str() converts.
        target = tmp_path / "amp.spn"
        code = main(
            ["reduce", "cnf", cnf_file, "--epsilon", "0.6", "--output", str(target)]
        )
        assert code == 0
        with target.open(encoding="utf-8") as fh:
            header = [next(fh) for _ in range(4)]
        assert header[1] == "# copies 3870\n"
        threshold = header[2].split()
        assert threshold[:-1] == ["#", "threshold", "1/14", "per", "copy,", "total", "log"]
        assert float(threshold[-1]) == pytest.approx(-3870 * math.log(14), rel=1e-12)
        assert header[3] == f"spn {3870 * 71 + 1}\n"

    def test_graph_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.graph"
        path.write_text("graph 2\nedge 1 9\n", encoding="utf-8")
        assert main(["reduce", "mis", str(path)]) == 2


class TestExperiment:
    def test_csv_on_stdout(self, capsys):
        code = main(
            [
                "experiment",
                "mis",
                "--vertices",
                "5",
                "--edge-pct",
                "20,40",
                "--reps",
                "3",
                "--seed",
                "7",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "vertices,edge_pct,nodes,mean_ratio,stddev_ratio"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "5" and first[1] == "20" and first[2] == "31"
        assert float(first[3]) >= 1.0 - 1e-9

    def test_csv_to_file(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        code = main(
            [
                "experiment",
                "mis",
                "--vertices",
                "5",
                "--edge-pct",
                "40",
                "--reps",
                "2",
                "--csv",
                str(target),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        lines = target.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 2

    def test_bad_grid_exits_1(self, capsys):
        code = main(
            ["experiment", "mis", "--vertices", "1", "--edge-pct", "20", "--reps", "2"]
        )
        assert code == 1

    def test_malformed_list_exits_2(self, capsys):
        code = main(["experiment", "mis", "--vertices", "5;6", "--edge-pct", "20"])
        assert code == 2


class TestStats:
    def test_mixture_stats(self, mixture_file, capsys):
        assert main(["stats", mixture_file]) == 0
        out = capsys.readouterr().out
        assert "nodes 8" in out
        assert "sums 1" in out
        assert "products 3" in out
        assert "leaves 4" in out
        assert "height 2" in out
        assert "degrees 3" in out

    def test_leaf_only_network_prints_dash_for_degrees(self, tmp_path, capsys):
        path = tmp_path / "leaf.spn"
        path.write_text("spn 1\nnode 0 leaf 0 0.5 0.5\n", encoding="utf-8")
        assert main(["stats", str(path)]) == 0
        assert "degrees -" in capsys.readouterr().out


class TestUsage:
    def test_no_arguments_exits_2(self, capsys):
        assert main([]) == 2

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.skipif(
        not PYPROJECT.is_file(), reason="pyproject.toml not next to tests/"
    )
    def test_entry_point_is_installed(self, mixture_file, tmp_path):
        """The declared spnmap console script runs spnmap.cli.main as an
        installer's wrapper would, so an install yields a working command."""
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
        assert "spnmap" in scripts
        module_name, _, attr = scripts["spnmap"].partition(":")
        assert getattr(importlib.import_module(module_name), attr) is main

        wrapper = f"import sys; from {module_name} import {attr}; sys.exit({attr}())"
        package_parent = str(Path(spnmap.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (package_parent, env.get("PYTHONPATH")))
        )
        check_console_script(
            [sys.executable, "-c", wrapper], mixture_file, tmp_path, env
        )

    @pytest.mark.skipif(
        shutil.which("spnmap") is None, reason="spnmap console script not on PATH"
    )
    def test_console_script_on_path(self, mixture_file, tmp_path):
        check_console_script([shutil.which("spnmap")], mixture_file, tmp_path)


def check_console_script(command, mixture_file, cwd, env=None):
    """`command` passes its arguments to the CLI and exits with its code."""
    invalid = Path(cwd) / "invalid.spn"
    invalid.write_text(
        "spn 2\nnode 0 sum\nnode 1 leaf 0 .5 .5\nedge 0 1 0.8\n", encoding="utf-8"
    )
    for args, code in (
        (["validate", mixture_file], 0),
        (["validate", str(invalid)], 1),
        ([], 2),
    ):
        done = subprocess.run(
            [*command, *args],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == code, (args, done.stdout, done.stderr)
        if code == 0:
            assert done.stdout.strip() == "valid"
