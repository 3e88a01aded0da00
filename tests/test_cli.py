"""Command-line interface: reports, exit codes and error payloads."""

import json
import math

import numpy as np
import pytest

import varcap
from varcap.cli import (
    EXIT_IO,
    EXIT_MESH,
    EXIT_OK,
    EXIT_PRINCIPLE,
    EXIT_USAGE,
    main,
    richardson_extrapolate,
)
from varcap.errors import VarcapError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestGenerate:
    def test_obj_output(self, tmp_path, capsys):
        path = tmp_path / "sphere.obj"
        code, out = run_cli(
            capsys, "generate", "--shape", "icosphere", "--subdiv", "1",
            "--out", str(path),
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["schema"] == "genreport/1"
        assert report["triangles"] == 80
        mesh = varcap.load_mesh(str(path), "obj")
        assert mesh.n_triangles == 80

    def test_stl_output(self, tmp_path, capsys):
        path = tmp_path / "cube.stl"
        code, out = run_cli(
            capsys, "generate", "--shape", "cube", "--panels-per-edge", "2",
            "--out", str(path),
        )
        assert code == EXIT_OK
        assert json.loads(out)["format"] == "stl"
        assert varcap.load_mesh(str(path), "stl-binary").n_triangles == 48

    def test_requires_shape(self, tmp_path, capsys):
        code, out = run_cli(capsys, "generate", "--out", str(tmp_path / "x.obj"))
        assert code == EXIT_USAGE
        assert json.loads(out)["schema"] == "caperror/1"


class TestSolve:
    def test_sphere_json_report(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out = run_cli(
            capsys, "solve", "--shape", "icosphere", "--subdiv", "1",
            "--json", "--out", str(out_path),
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["schema"] == "capreport/1"
        assert report["capacitance"]["C_over_4pi"] == pytest.approx(0.957, abs=0.01)
        assert report["capacitance"]["c_zeroth"] <= report["capacitance"]["C"]
        assert report["diagnostics"]["cholesky_succeeded"] is True
        assert report["diagnostics"]["min_eigenvalue"] > 0
        # Per-class assembly work: 80 panels, each with 3 edge neighbours;
        # the diagonal is closed-form, so it evaluates no quadrature points.
        assembly = report["diagnostics"]["assembly"]
        assert assembly["far"] == {"entries": 80 * 80, "points_per_entry": 6}
        assert assembly["self"] == {"entries": 80, "points_per_entry": 0}
        assert assembly["edge"] == {"entries": 240, "points_per_entry": 100}
        assert assembly["vertex"]["points_per_entry"] == 64
        assert assembly["near"]["points_per_entry"] == 64
        for name in assembly:
            assert report["timings"][f"assemble_{name}_s"] >= 0.0
        # The file copy matches what was printed.
        assert json.loads(out_path.read_text()) == report

    def test_small_sphere_scales(self, capsys):
        caps = []
        for radius in ("1", "1e-7"):
            code, out = run_cli(
                capsys, "solve", "--shape", "icosphere", "--radius", radius,
                "--subdiv", "2", "--json",
            )
            assert code == EXIT_OK, out
            caps.append(json.loads(out)["capacitance"]["C"])
        assert abs(caps[1] / 1e-7 - caps[0]) <= 1e-12 * caps[0]

    def test_text_report(self, capsys):
        code, out = run_cli(capsys, "solve", "--shape", "icosphere", "--subdiv", "1")
        assert code == EXIT_OK
        assert "C / 4pi" in out
        assert "cholesky ok" in out

    def test_solve_from_mesh_file(self, tmp_path, capsys):
        path = tmp_path / "sphere.obj"
        varcap.save_obj(varcap.make_icosphere(1.0, 1), str(path))
        code, out = run_cli(capsys, "solve", "--mesh", str(path), "--json")
        assert code == EXIT_OK
        assert json.loads(out)["mesh"]["panels"] == 80

    def test_mesh_and_shape_conflict(self, tmp_path, capsys):
        code, out = run_cli(
            capsys, "solve", "--mesh", str(tmp_path / "a.obj"),
            "--shape", "cube", "--json",
        )
        assert code == EXIT_USAGE

    def test_missing_mesh_file(self, tmp_path, capsys):
        code, out = run_cli(
            capsys, "solve", "--mesh", str(tmp_path / "missing.obj"), "--json"
        )
        assert code == EXIT_IO
        err = json.loads(out)["error"]
        assert err["code"] == EXIT_IO

    def test_open_mesh_rejected(self, tmp_path, capsys):
        path = tmp_path / "open.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        code, out = run_cli(capsys, "solve", "--mesh", str(path), "--json")
        assert code == EXIT_MESH
        err = json.loads(out)["error"]
        assert err["type"] == "NotWatertightError"
        assert err["boundary_edges"]


class TestConverge:
    def test_cube_study_with_extrapolation(self, capsys):
        code, out = run_cli(
            capsys, "converge", "--shape", "cube", "--levels", "2,4,8", "--json"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["schema"] == "convreport/1"
        assert [r["level"] for r in report["rows"]] == [2, 4, 8]
        caps = [r["C"] for r in report["rows"]]
        assert caps == sorted(caps)  # lower bounds increase under refinement
        extra = report["extrapolation"]
        assert extra is not None
        assert len(extra["pair_estimates"]) == 2
        assert extra["limit"] / (4 * math.pi) == pytest.approx(0.66, abs=0.01)

    def test_computes_only_reported_values(self, capsys, monkeypatch):
        # convreport/1 has no SPD diagnostics or subspace bounds per level.
        def unused(*args, **kwargs):
            raise AssertionError("converge computed a value it does not report")

        monkeypatch.setattr(varcap.bem, "spd_check", unused)
        monkeypatch.setattr(varcap.capacitance, "bound_ledger", unused)
        code, out = run_cli(
            capsys, "converge", "--shape", "icosphere", "--levels", "1,2", "--json"
        )
        assert code == EXIT_OK, out
        for row in json.loads(out)["rows"]:
            assert 0 < row["c_zeroth"] <= row["C"]

    def test_two_levels_no_extrapolation(self, capsys):
        code, out = run_cli(
            capsys, "converge", "--shape", "icosphere", "--levels", "1,2", "--json"
        )
        assert code == EXIT_OK
        assert json.loads(out)["extrapolation"] is None

    def test_bad_levels(self, capsys):
        for levels in ("4", "4,6,8"):
            code, out = run_cli(
                capsys, "converge", "--shape", "cube", "--levels", levels, "--json"
            )
            assert code == EXIT_USAGE, levels


class TestVerifyPrinciple:
    def write_form(self, tmp_path, matrix, u):
        path = tmp_path / "form.json"
        path.write_text(
            json.dumps({"schema": "symform/1", "matrix": matrix, "u": u})
        )
        return str(path)

    def test_positive_definite_consistent(self, tmp_path, capsys):
        path = self.write_form(tmp_path, [[2.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
        code, out = run_cli(capsys, "verify-principle", "--input", path)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["classification"] == "nonneg"
        assert report["principle_holds_on_probes"] is True
        assert report["consistent"] is True
        assert report["witness"] is None

    def test_indefinite_consistent_with_witness(self, tmp_path, capsys):
        path = self.write_form(tmp_path, [[1.0, 0.0], [0.0, -1.0]], [1.0, 1.0])
        code, out = run_cli(capsys, "verify-principle", "--input", path)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["classification"] == "indefinite"
        assert report["consistent"] is True
        witness = report["witness"]
        assert witness is not None
        assert witness["quotient"] > report["quadratic_form_at_u"] + 1.0

    def test_negative_definite_consistent(self, tmp_path, capsys):
        path = self.write_form(tmp_path, [[-1.0, 0.0], [0.0, -2.0]], [1.0, 0.0])
        code, out = run_cli(capsys, "verify-principle", "--input", path)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["classification"] == "nonpos"
        assert report["consistent"] is True

    def test_bad_schema(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/1"}))
        code, out = run_cli(capsys, "verify-principle", "--input", str(path))
        assert code == EXIT_USAGE

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, out = run_cli(capsys, "verify-principle", "--input", str(path))
        assert code == EXIT_IO


class TestRichardson:
    def test_recovers_geometric_limit(self):
        limit, c = 2.5, 0.3
        values = [limit - c * 4.0**-k for k in range(4)]
        result = richardson_extrapolate(values)
        assert result["order"] == pytest.approx(2.0, rel=1e-12)
        assert result["limit"] == pytest.approx(limit, rel=1e-12)
        for est in result["pair_estimates"]:
            assert est == pytest.approx(limit, rel=1e-12)

    def test_needs_three_values(self):
        with pytest.raises(VarcapError):
            richardson_extrapolate([1.0, 2.0])

    def test_non_monotone_rejected(self):
        with pytest.raises(VarcapError):
            richardson_extrapolate([1.0, 2.0, 1.5, 2.5])
