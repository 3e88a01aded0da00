"""Command-line interface: reports, exit codes and error payloads."""

import argparse
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import varcap
from varcap.cli import (
    EXIT_IO,
    EXIT_MESH,
    EXIT_OK,
    EXIT_PRINCIPLE,
    EXIT_USAGE,
    SHAPES,
    _emit,
    _shape_config,
    build_parser,
    main,
    richardson_extrapolate,
)
from varcap.errors import VarcapError

SHAPE_OPTIONS = {"--shape", "--size", "--subdiv"}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSurface:
    def test_options_per_subcommand(self):
        # Every option is listed here, so adding one shows up in review.
        (sub,) = (
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        options = {
            name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        assert options == {
            "generate": SHAPE_OPTIONS | {"--out"},
            "solve": SHAPE_OPTIONS | {"--mesh", "--workers", "--out", "--json"},
            "converge": {"--shape", "--size", "--levels", "--workers", "--out", "--json"},
            "verify-principle": {"--input", "--out"},
        }
        assert sum(map(len, options.values())) == 19

    def test_readme_command_lines_parse(self):
        # Every varcap line of README's command-line block names only
        # options that exist.
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh", 1)[1]
        lines = [
            line for line in block.split("```", 1)[0].splitlines()
            if line.startswith("varcap ")
        ]
        assert len(lines) >= 5
        sized = set()
        for line in lines:
            args = build_parser().parse_args(shlex.split(line)[1:])
            if getattr(args, "size", None):
                sized.add(_shape_config(args)["shape"])
        # Each built-in shape has a line whose --size has that shape's length.
        assert sized == set(SHAPES)

    @pytest.mark.parametrize("workers", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [["solve", "--shape", "cube"], ["converge", "--shape", "cube", "--levels", "2,4"]],
        ids=["solve", "converge"],
    )
    def test_workers_below_one_rejected(self, argv, workers, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--workers", workers])
        assert exc.value.code == EXIT_USAGE
        assert "--workers: must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--shape", "icosphere", "--quad-order", "1"],
            ["solve", "--shape", "icosphere", "--solver", "cg"],
            ["converge", "--shape", "cube", "--levels", "2,4", "--seed", "0"],
            ["solve", "--shape", "icosphere", "--seed", "0"],
            ["verify-principle", "--input", "form.json", "--trials", "5"],
        ],
    )
    def test_removed_options_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, code, expected",
        [
            (["solve", "--shape", "cube", "--subdiv", "8", "--json"], EXIT_OK, '"panels": 768'),
            (["solve", "--mesh", "f.obj", "--subdiv", "2"], EXIT_USAGE, "--mesh takes no"),
            (["solve", "--mesh", "f.obj", "--size", "2"], EXIT_USAGE, "--mesh takes no"),
            (
                ["solve", "--shape", "ellipsoid", "--size", "1", "2"], EXIT_USAGE,
                "--shape ellipsoid takes 3 --size value(s), got 2",
            ),
            (
                ["converge", "--shape", "cube", "--levels", "2,4", "--subdiv", "4"], EXIT_USAGE,
                "unrecognized arguments: --subdiv 4",
            ),
        ],
        ids=["cube-subdiv", "mesh-subdiv", "mesh-size", "ellipsoid-two-sizes", "converge-subdiv"],
    )
    def test_every_option_used_or_rejected(
        self, argv, code, expected, tmp_path, monkeypatch, capsys
    ):
        # The chosen shape uses each shape option given, or the run is a
        # usage error; none is ignored.
        monkeypatch.chdir(tmp_path)
        varcap.save_obj(varcap.make_icosphere(1.0, 1), "f.obj")
        try:
            result = main(argv)
        except SystemExit as exc:
            result = exc.code
        captured = capsys.readouterr()
        assert result == code
        assert expected in captured.out + captured.err


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
        mesh = varcap.load_mesh(str(path))
        assert mesh.n_triangles == 80

    def test_stl_output(self, tmp_path, capsys):
        path = tmp_path / "cube.stl"
        code, out = run_cli(
            capsys, "generate", "--shape", "cube", "--subdiv", "2",
            "--out", str(path),
        )
        assert code == EXIT_OK
        assert json.loads(out)["format"] == "stl"
        assert varcap.load_mesh(str(path)).n_triangles == 48

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
        assert report["schema"] == "capreport/8"
        assert report["config"] == {
            "command": "solve", "mesh": None, "shape": "icosphere", "size": [1.0], "subdiv": 1,
        }
        assert "solve_iterations" not in report["diagnostics"]
        assert report["capacitance"]["C_over_4pi"] == pytest.approx(0.957, abs=0.01)
        assert report["capacitance"]["c_zeroth"] <= report["capacitance"]["C"]
        assert report["diagnostics"]["lambda_min_lower_bound"] > 0
        assert "spd_check_s" not in report["timings"]
        # Per-class assembly work: 80 panels, each with 3 edge neighbours;
        # the diagonal is closed-form, so it evaluates no quadrature points.
        assembly = report["diagnostics"]["assembly"]
        assert assembly["far"] == {"entries": 80 * 79 // 2, "points_per_entry": 36}
        assert assembly["self"] == {"entries": 80, "points_per_entry": 0}
        assert assembly["edge"] == {"entries": 240, "points_per_entry": 100}
        assert assembly["vertex"]["points_per_entry"] == 64
        # Near-ring pairs are evaluated once and mirrored: 1,350 pairs, the
        # closer 420 with the near tier's 8 x 8 rule and 930 with 5 x 5.
        assert assembly["near"] == {"entries": 420, "points_per_entry": 64}
        assert assembly["ring"] == {"entries": 930, "points_per_entry": 25}
        for name in assembly:
            assert report["timings"][f"assemble_{name}_s"] >= 0.0
        # J comes from the bound ledger's zeroth approximation, bitwise equal
        # to a separate zeroth_capacitance call on the same system.
        system = varcap.assemble(varcap.build_panels(varcap.make_icosphere(1.0, 1)))
        j_integral = varcap.zeroth_capacitance(system).j_integral
        assert report["capacitance"]["J"] == j_integral
        # The file copy matches what was printed.
        assert json.loads(out_path.read_text()) == report

    def test_small_sphere_scales(self, capsys):
        caps = []
        for radius in ("1", "1e-7"):
            code, out = run_cli(
                capsys, "solve", "--shape", "icosphere", "--size", radius,
                "--subdiv", "2", "--json",
            )
            assert code == EXIT_OK, out
            caps.append(json.loads(out)["capacitance"]["C"])
        assert abs(caps[1] / 1e-7 - caps[0]) <= 1e-12 * caps[0]

    def test_text_report(self, capsys):
        code, out = run_cli(capsys, "solve", "--shape", "icosphere", "--subdiv", "1")
        assert code == EXIT_OK
        assert "C / 4pi" in out
        assert "lambda_min >=" in out

    def test_one_factorization_and_no_eigensolver(self, capsys, monkeypatch):
        # The direct solve's Cholesky factorization is also the positivity
        # proof, so solve factors A_h once and computes no eigenvalues of it.
        calls = []
        dpftrf = scipy.linalg.lapack.dpftrf

        def counted(n, *args, **kwargs):
            calls.append(n)
            return dpftrf(n, *args, **kwargs)

        def unused(*args, **kwargs):
            raise AssertionError("solve ran a second check of A_h")

        monkeypatch.setattr(scipy.linalg.lapack, "dpftrf", counted)
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(scipy.linalg, name, unused)
        monkeypatch.setattr(varcap.bem, "spd_check", unused)
        code, out = run_cli(capsys, "solve", "--shape", "icosphere", "--subdiv", "1", "--json")
        assert code == EXIT_OK, out
        assert calls == [80]
        assert json.loads(out)["diagnostics"]["lambda_min_lower_bound"] > 0

    def test_solve_from_mesh_file(self, tmp_path, capsys):
        path = tmp_path / "sphere.obj"
        varcap.save_obj(varcap.make_icosphere(1.0, 1), str(path))
        code, out = run_cli(capsys, "solve", "--mesh", str(path), "--json")
        assert code == EXIT_OK
        assert json.loads(out)["mesh"]["panels"] == 80

    def test_binary_stl_with_solid_header(self, tmp_path, capsys):
        # Some exporters begin a binary STL header with "solid".
        path = tmp_path / "b.stl"
        varcap.save_stl(varcap.make_icosphere(1.0, 1), str(path))
        data = path.read_bytes()
        path.write_bytes(b"solid exported by some CAD tool".ljust(80) + data[80:])
        code, out = run_cli(capsys, "solve", "--mesh", str(path), "--json")
        assert code == EXIT_OK, out
        assert json.loads(out)["mesh"]["panels"] == 80
        # Any other file that begins with "solid" is ASCII STL.
        ascii_path = tmp_path / "a.stl"
        ascii_path.write_text("solid a\nendsolid a\n")
        code, out = run_cli(capsys, "solve", "--mesh", str(ascii_path), "--json")
        assert code == EXIT_IO
        assert "0 facets" in json.loads(out)["error"]["message"]

    def test_obj_under_any_name(self, tmp_path, capsys):
        path = tmp_path / "mesh.txt"
        varcap.save_obj(varcap.make_icosphere(1.0, 1), str(path))
        code, out = run_cli(capsys, "solve", "--mesh", str(path), "--json")
        assert code == EXIT_OK, out
        assert json.loads(out)["mesh"]["panels"] == 80

    def test_truncated_stl(self, tmp_path, capsys):
        path = tmp_path / "cut.stl"
        varcap.save_stl(varcap.make_icosphere(1.0, 1), str(path))
        path.write_bytes(path.read_bytes()[:-10])
        code, out = run_cli(capsys, "solve", "--mesh", str(path), "--json")
        assert code == EXIT_IO
        assert "truncated binary STL" in json.loads(out)["error"]["message"]

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

    @pytest.mark.parametrize("shape, level", [("cube", 4), ("icosphere", 2)])
    def test_obj_with_per_face_vertex_records(self, shape, level, tmp_path, capsys):
        # Exporters repeat vertex records per face at UV or normal seams.
        # Every format is welded, so such an OBJ solves to the same C, bit
        # for bit, as the shared-vertex file.
        mesh = SHAPES[shape][0](1.0, level)
        shared, split = tmp_path / "shared.obj", tmp_path / "split.obj"
        varcap.save_obj(mesh, str(shared))
        corners = mesh.vertices[mesh.triangles].reshape(-1, 3).tolist()
        split.write_text(
            "".join(f"v {x!r} {y!r} {z!r}\n" for x, y, z in corners)
            + "".join(f"f {k + 1} {k + 2} {k + 3}\n" for k in range(0, len(corners), 3))
        )
        reports = []
        for path in (shared, split):
            code, out = run_cli(capsys, "solve", "--mesh", str(path), "--json")
            assert code == EXIT_OK, out
            reports.append(json.loads(out))
        assert reports[1]["mesh"]["vertices"] == mesh.n_vertices
        assert reports[1]["capacitance"]["C"] == reports[0]["capacitance"]["C"]

    def test_sliver_mesh_reports_panel_index(self, tmp_path, capsys):
        # A tetrahedron whose face (1, 3, 2) is split at a point 1e-15 off
        # the middle of its edge (1, 2): the sixth face, (1, 5, 2), is a
        # sliver, and the error names its 0-based index.
        path = tmp_path / "sliver.obj"
        verts = "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nv 0.5 1e-15 0\n"
        faces = "f 1 3 5\nf 5 3 2\nf 1 2 4\nf 1 4 3\nf 2 3 4\nf 1 5 2\n"
        path.write_text(verts + faces)
        code, out = run_cli(capsys, "solve", "--mesh", str(path), "--json")
        assert code == EXIT_MESH
        err = json.loads(out)["error"]
        assert err["type"] == "DegenerateTriangleError"
        assert err["indices"] == [5]


class TestConverge:
    def test_cube_study_with_extrapolation(self, capsys):
        code, out = run_cli(
            capsys, "converge", "--shape", "cube", "--levels", "2,4,8", "--json"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["schema"] == "convreport/4"
        assert report["config"] == {
            "command": "converge", "shape": "cube", "size": [1.0], "levels": [2, 4, 8],
        }
        assert [r["level"] for r in report["rows"]] == [2, 4, 8]
        caps = [r["C"] for r in report["rows"]]
        assert caps == sorted(caps)  # lower bounds increase under refinement
        extra = report["extrapolation"]
        assert extra is not None
        assert len(extra["pair_estimates"]) == 2
        assert extra["limit"] / (4 * math.pi) == pytest.approx(0.66, abs=0.01)

    def test_computes_only_reported_values(self, capsys, monkeypatch):
        # convreport/4 has no SPD diagnostics or subspace bounds per level.
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
        for levels in ("4", "4,6,8", "2,x"):
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
        # The slack scales with the matrix, so tiny matrices classify the same.
        for scale in (1.0, 1e-13, 1e-16):
            matrix = [[-scale, 0.0], [0.0, -2.0 * scale]]
            path = self.write_form(tmp_path, matrix, [1.0, 0.0])
            code, out = run_cli(capsys, "verify-principle", "--input", path)
            assert code == EXIT_OK, scale
            report = json.loads(out)
            assert report["classification"] == "nonpos"
            assert report["consistent"] is True

    def test_zero_form_consistent(self, tmp_path, capsys):
        path = self.write_form(tmp_path, [[0.0, 0.0], [0.0, 0.0]], [1.0, 1.0])
        code, out = run_cli(capsys, "verify-principle", "--input", path)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["classification"] == "nonneg"
        assert report["consistent"] is True

    @pytest.mark.parametrize(
        "x, classification",
        [(2.0, "nonneg"), (-3.0, "nonpos"), (0.0, "nonneg")],
        ids=["positive", "negative", "zero"],
    )
    def test_one_by_one_form(self, x, classification, tmp_path, capsys):
        # A 1 x 1 form is its one eigenpair: lambda_min = lambda_max = x and
        # z = w = +-e1. A zero form counts as nonneg.
        form = varcap.SymmetricForm.from_matrix([[x]])
        assert form.lambda_min == form.lambda_max == x
        assert abs(form.z[0]) == abs(form.w[0]) == 1.0
        path = self.write_form(tmp_path, [[x]], [1.5])
        code, out = run_cli(capsys, "verify-principle", "--input", path)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["classification"] == classification
        assert report["consistent"] is True
        assert report["witness"] is None

    @pytest.mark.parametrize(
        "matrix, u",
        [
            # 0.5 (m + m.T) overflows; the report said "nonneg" with NaN values.
            ([[1e308, 0.0], [0.0, -1e308]], [1.0, 1.0]),
            # (Au, u) overflows; the report said Infinity and "consistent": true.
            ([[2.0, 1.0], [1.0, 2.0]], [1e200, 1e200]),
        ],
        ids=["symmetrize-overflow", "quadratic-form-overflow"],
    )
    def test_overflow_is_an_error_not_nan(self, matrix, u, tmp_path, capsys):
        path = self.write_form(tmp_path, matrix, u)
        code, out = run_cli(capsys, "verify-principle", "--input", path)
        assert code == EXIT_USAGE
        payload = json.loads(out)
        assert payload["schema"] == "caperror/1"
        assert payload["error"]["type"] == "NonFiniteInputError"

    def test_finite_quotient_whose_square_overflows(self, tmp_path, capsys):
        # (Au, u) = 2e306 is finite, and so is the quotient at v = u, but
        # (u.Au)^2 is not.
        path = self.write_form(tmp_path, [[1.0, 0.0], [0.0, 1.0]], [1e153, 1e153])
        code, out = run_cli(capsys, "verify-principle", "--input", path)
        assert code == EXIT_OK, out
        report = json.loads(out)
        assert report["classification"] == "nonneg"
        assert report["consistent"] is True
        assert report["best_quotient"] == report["quadratic_form_at_u"] == 2e306

    def test_reports_are_strict_json(self):
        with pytest.raises(ValueError):
            _emit({"C": math.nan}, None, True)

    def test_bad_schema(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/1"}))
        code, out = run_cli(capsys, "verify-principle", "--input", str(path))
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "payload",
        [
            [1.0, 2.0],
            {"schema": "symform/1", "matrix": [[1.0, 0.0], [0.0]], "u": [1.0, 1.0]},
            {"schema": "symform/1", "matrix": [["a", 0.0], [0.0, 1.0]], "u": [1.0, 1.0]},
            {"schema": "symform/1", "matrix": [[1.0, 0.0], [0.0, 1.0]], "u": ["x", 1.0]},
            # Strings that spell numbers, and booleans alone, are not numbers.
            {"schema": "symform/1", "matrix": [["2.0", 0.0], [0.0, "1"]], "u": [1.0, 1.0]},
            {"schema": "symform/1", "matrix": [[2.0, 0.0], [0.0, 1.0]], "u": [1.0, "1.0"]},
            {"schema": "symform/1", "matrix": [[True, False], [False, True]], "u": [1.0, 1.0]},
            {"schema": "symform/1", "matrix": [[1.0]]},
        ],
        ids=[
            "not-an-object", "ragged-matrix", "text-matrix", "text-u",
            "numeric-string-matrix", "numeric-string-u", "boolean-matrix", "no-u",
        ],
    )
    def test_malformed_input_is_a_varcap_error(self, payload, tmp_path, capsys):
        path = tmp_path / "form.json"
        path.write_text(json.dumps(payload))
        code, out = run_cli(capsys, "verify-principle", "--input", str(path))
        assert code == EXIT_USAGE
        err = json.loads(out)["error"]
        assert issubclass(getattr(varcap.errors, err["type"]), VarcapError), err

    @pytest.mark.parametrize(
        "content",
        [
            b"{not json",
            b'{"schema": "symform/1", "note": "\xff", "matrix": [[1.0]], "u": [1.0]}',
            b'\xef\xbb\xbf{"schema": "symform/1", "matrix": [[1.0]], "u": [1.0]}',
            # Not JSON under RFC 8259: non-finite literals and a number past
            # the double range.
            b'{"schema": "symform/1", "matrix": [[NaN]], "u": [1.0]}',
            b'{"schema": "symform/1", "matrix": [[1.0]], "u": [Infinity]}',
            b'{"schema": "symform/1", "matrix": [[1e400]], "u": [1.0]}',
        ],
        ids=["not-json", "not-utf8", "bom", "nan", "infinity", "overflow"],
    )
    def test_invalid_json(self, content, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out = run_cli(capsys, "verify-principle", "--input", str(path))
        assert code == EXIT_IO
        assert json.loads(out)["error"]["type"] == "MeshFormatError"

    def test_parsed_doubles_are_exact(self, tmp_path, capsys, monkeypatch):
        # Seeded doubles over many exponents, a subnormal and a negative zero,
        # written by json.dumps: the CLI must read the doubles json.loads reads.
        rng = np.random.default_rng(40)
        a = rng.standard_normal((40, 40)) * 10.0 ** rng.integers(-12, 12, (40, 40))
        m = a + a.T
        m[0, 1] = m[1, 0] = 5e-324
        m[2, 3] = m[3, 2] = -0.0
        u = rng.standard_normal(40)
        u[5], u[6] = 5e-324, -0.0
        text = json.dumps({"schema": "symform/1", "matrix": m.tolist(), "u": u.tolist()})
        path = tmp_path / "form.json"
        path.write_text(text)
        seen = []
        from_matrix = varcap.varprinciple.SymmetricForm.from_matrix

        def spy(matrix):
            seen.append(matrix)
            return from_matrix(matrix)

        monkeypatch.setattr(varcap.varprinciple.SymmetricForm, "from_matrix", spy)
        code, out = run_cli(capsys, "verify-principle", "--input", str(path))
        assert code == EXIT_OK
        ref = json.loads(text)
        m_ref, u_ref = np.array(ref["matrix"]), np.array(ref["u"])
        assert np.array(seen[0]).tobytes() == m_ref.tobytes()
        s = 0.5 * (m_ref + m_ref.T)
        qfu = json.loads(out)["quadratic_form_at_u"]
        assert np.float64(qfu).tobytes() == ((u_ref @ s) @ u_ref).tobytes()


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

    @pytest.mark.parametrize(
        "values, ratio",
        [([1.0, 2.0, 2.0], "inf"), ([1.0, 2.0, 3.0], "1"), ([1.0, 1.5, 2.25], "0.666667")],
    )
    def test_differences_must_shrink(self, values, ratio):
        # Equal or growing differences have no limit: no division by zero,
        # and no negative order with a meaningless limit.
        with pytest.raises(VarcapError, match=rf"= {ratio} must"):
            richardson_extrapolate(values)
