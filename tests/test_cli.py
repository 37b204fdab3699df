"""End-to-end command line behaviour: config handling, exit codes, output
tables, and determinism of repeated runs."""

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import dielshape
from dielshape.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main

CSV_HEADER = ["theta", "phi", "re_Ex", "im_Ex", "re_Ey", "im_Ey", "re_Ez", "im_Ez"]


def write_cfg(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "material": {"eps_i": 2.25},
        "discretization": {"L": 6, "nquad": 14},
        "directions": {"n_theta": 4, "n_phi": 6},
        "output": str(tmp_path),
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def strict_json(path):
    """The JSON document at path; NaN and Infinity tokens are an error."""

    def reject(token):
        raise ValueError(f"{path} holds the non-JSON token {token}")

    return json.loads(Path(path).read_text(), parse_constant=reject)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestSolve:
    def test_sphere_solve_writes_tables(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert main(["solve", "--config", str(cfg)]) == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["command"] == "solve"
        assert summary["residual"] < 1e-10
        assert 1.0 <= summary["condition_number"] < 1e6
        # default surface is the unit sphere, so the series comparison runs
        assert summary["mie_relative_l2_error"] < 1e-5
        header, rows = read_csv(tmp_path / "far_field.csv")
        assert header == CSV_HEADER
        assert len(rows) == 4 * 6
        # stdout carries the same summary document
        assert json.loads(capsys.readouterr().out) == summary

    def test_deterministic_output(self, tmp_path):
        cfg = write_cfg(tmp_path)
        main(["solve", "--config", str(cfg)])
        first = (tmp_path / "far_field.csv").read_bytes()
        main(["solve", "--config", str(cfg)])
        assert (tmp_path / "far_field.csv").read_bytes() == first

    def test_no_contrast_writes_null_mie_error(self, tmp_path):
        # without contrast the series field is zero, so the relative error
        # has no value; it is written as null, not as the token Infinity
        cfg = write_cfg(tmp_path, material={"eps_i": 1})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["solve", "--config", str(cfg)]) == EXIT_OK
        summary = strict_json(tmp_path / "summary.json")
        assert summary["mie_relative_l2_error"] is None

    def test_wobbly_surface_accepted(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            surface={"radial": {"0,0": float(np.sqrt(4 * np.pi)), "2,0": 0.2}},
        )
        assert main(["solve", "--config", str(cfg)]) == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert "mie_relative_l2_error" not in summary


class TestDsolve:
    def test_routes_and_pairwise_diffs(self, tmp_path):
        cfg = write_cfg(tmp_path, deformation="radial")
        assert main(["dsolve", "--config", str(cfg), "--routes", "A,C"]) == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert sorted(summary["tables"]) == ["A", "C"]
        assert summary["pairwise_relative_l2"]["A-C"] < 1e-4
        for r in ("A", "C"):
            header, rows = read_csv(tmp_path / f"dfar_route{r}.csv")
            assert header == CSV_HEADER
            assert len(rows) == 4 * 6

    def test_invalid_route_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, deformation="radial")
        assert main(["dsolve", "--config", str(cfg), "--routes", "A,X"]) == EXIT_CONFIG

    def test_missing_deformation_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert main(["dsolve", "--config", str(cfg), "--routes", "A"]) == EXIT_CONFIG

    def test_shipped_example_config_runs(self, tmp_path):
        example = Path(__file__).resolve().parents[1] / "demos" / "cli_example.json"
        cfg = dict(json.loads(example.read_text()), output=str(tmp_path))
        path = tmp_path / "cli_example.json"
        path.write_text(json.dumps(cfg))
        assert main(["dsolve", "--config", str(path)]) == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert sorted(summary["tables"]) == ["A", "B", "C"]

    def test_deformation_specs_build_the_same_fields(self):
        # a translation is the constant components a sqrt(4 pi), and on the
        # unit sphere the constant radial profile sqrt(4 pi) is "radial"
        from dielshape.cli import build_deformation
        from dielshape.geometry import sphere

        S = sphere(1.0, 4, 10)
        r4pi = np.sqrt(4.0 * np.pi)
        shift = (0.3, -0.2, 0.5)
        pairs = [
            (
                {"translation": list(shift)},
                {"components": [{"0,0": a * r4pi} for a in shift]},
            ),
            ({"radial_profile": {"0,0": r4pi}}, "radial"),
        ]
        for spec, same in pairs:
            xi = build_deformation({"deformation": spec}, S).values
            ref = build_deformation({"deformation": same}, S).values
            np.testing.assert_allclose(xi, ref, rtol=0, atol=1e-13)


class TestMie:
    def test_mie_table(self, tmp_path):
        cfg = write_cfg(tmp_path, surface={"radius": 0.8})
        assert main(["mie", "--config", str(cfg)]) == EXIT_OK
        header, rows = read_csv(tmp_path / "mie_far_field.csv")
        assert header == CSV_HEADER
        assert len(rows) == 4 * 6


class TestValidate:
    def test_bio_suite_passes(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert main(["validate", "--config", str(cfg), "--suite", "bio"]) == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["all_pass"] is True
        for prop in summary["properties"].values():
            assert set(prop) == {"measured", "tolerance", "pass"}

    def test_solver_suite_reports_structure(self, tmp_path):
        # the solver suite's tolerances assume benchmark resolution, which is
        # too slow here; at L = 6 only the report structure is checked.
        cfg = write_cfg(tmp_path)
        assert main(["validate", "--config", str(cfg), "--suite", "solver"]) == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        props = summary["properties"]
        assert set(props) == {"no_contrast_far", "eta_independence"}
        assert props["eta_independence"]["pass"] is True

    @pytest.mark.parametrize(
        "suite,overrides,names",
        [
            ("surfcalc", {}, {"scurl_grad_zero", "div_curl_zero", "grad_div_duality"}),
            ("shapederiv", {"deformation": "radial"}, {"routeA_routeC", "routeA_routeB"}),
        ],
    )
    def test_suite_passes_on_sphere(self, tmp_path, suite, overrides, names):
        cfg = write_cfg(tmp_path, **overrides)
        assert main(["validate", "--config", str(cfg), "--suite", suite]) == EXIT_OK
        summary = strict_json(tmp_path / "summary.json")
        assert set(summary["properties"]) == names
        for prop in summary["properties"].values():
            assert np.isfinite(prop["measured"]) and prop["pass"] is True
        assert summary["all_pass"] is True

    def test_zero_step_rejected(self, tmp_path, capsys):
        # the step h is read as dsolve reads it, so h = 0 is no NaN
        cfg = write_cfg(tmp_path, deformation="radial", h=0)
        rc = main(["validate", "--config", str(cfg), "--suite", "shapederiv"])
        assert rc == EXIT_CONFIG
        assert json.loads(capsys.readouterr().out)["error"] == "config"

    def test_unknown_suite_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert (
            main(["validate", "--config", str(cfg), "--suite", "nope"]) == EXIT_CONFIG
        )


class TestErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["solve", "--config", str(tmp_path / "absent.json")])
        assert rc == EXIT_CONFIG
        assert json.loads(capsys.readouterr().out)["error"] == "config"

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["solve", "--config", str(path)]) == EXIT_CONFIG

    def test_overflowing_number_rejected(self, tmp_path, capsys):
        big = "1" + "0" * 400  # an integer beyond float range
        for command, text in [
            ("solve", '{"material": {"eps_i": 1e400}}'),
            ("solve", '{"material": {"eps_i": %s}}' % big),
            ("solve", '{"discretization": {"L": %s}}' % big),
            ("dsolve", '{"deformation": "radial", "h": %s}' % big),
        ]:
            path = tmp_path / "big.json"
            path.write_text(text)
            assert main([command, "--config", str(path)]) == EXIT_CONFIG, text
            assert json.loads(capsys.readouterr().out)["error"] == "config"

    def test_unknown_material_key(self, tmp_path):
        cfg = write_cfg(tmp_path, material={"eps_i": 2.25, "color": "blue"})
        assert main(["solve", "--config", str(cfg)]) == EXIT_CONFIG

    def test_inadmissible_deformation_is_numerical_failure(self, tmp_path):
        # Deforming the sphere through the origin is caught by the geometry
        # admissibility checks during the finite-difference route.
        cfg = write_cfg(tmp_path, deformation="radial", h=1.5)
        rc = main(["dsolve", "--config", str(cfg), "--routes", "C"])
        assert rc == EXIT_NUMERICAL

    @pytest.mark.parametrize(
        "command,overrides",
        [
            ("solve", {"wave": [1, 2]}),
            ("solve", {"directions": 5}),
            ("solve", {"discretization": {"L": "x"}}),
            ("solve", {"surface": {"radial": 3}}),
            ("solve", {"material": [2.25]}),
            ("solve", {"output": 7}),
            ("mie", {"surface": "ellipsoid"}),
            ("mie", {"discretization": {"N_mie": "many"}}),
            ("dsolve", {"deformation": "radial", "h": "small"}),
            ("dsolve", {"deformation": {"translation": 5}}),
            ("mie", {"surface": {"radial": {"0,0": 3.5449077018110318, "2,0": 0.2}}}),
            ("mie", {"surface": {"type": "ellipsoid", "radius": 2}}),
            ("solve", {"surface": {"type": "ellipsoid", "radius": 2}}),
            ("solve", {"surface": {"type": "sphere", "radial": {"0,0": 3.5449077018110318}}}),
            ("solve", {"surface": {"radius": 2, "radial": {"0,0": 3.5449077018110318}}}),
            # json reads NaN; it, zero wave vectors and a zero step are rejected
            ("solve", {"material": {"eps_i": float("nan")}}),
            ("solve", {"surface": {"radius": float("nan")}}),
            ("solve", {"wave": {"direction": [0, 0, 0]}}),
            ("solve", {"wave": {"polarization": [0, 0, 0]}}),
            ("dsolve", {"deformation": "radial", "h": 0}),
            # booleans are no numbers, and sizes must be integral
            ("solve", {"material": {"eps_i": True}}),
            ("solve", {"discretization": {"L": 3.7}}),
            ("solve", {"discretization": {"L": 6, "nquad": 14.5}}),
            ("solve", {"directions": {"n_theta": 2.9}}),
            ("solve", {"directions": {"n_theta": True}}),
            ("solve", {"directions": {"n_phi": 5.5}}),
            ("mie", {"discretization": {"N_mie": 10.5}}),
            # every entry of a config vector or coefficient map is a number
            ("solve", {"wave": {"direction": [0, 0, True]}}),
            ("solve", {"wave": {"polarization": [True, 0, 0]}}),
            ("dsolve", {"deformation": {"translation": [True, False, 0]}}),
            ("solve", {"surface": {"radial": {"0,0": True}}}),
            ("dsolve", {"deformation": {"radial_profile": {"0,0": True}}}),
            ("dsolve", {"deformation": {"components": [{"0,0": True}, {}, {}]}}),
            # the series needs at least one order
            ("mie", {"discretization": {"N_mie": 0}}),
            ("mie", {"discretization": {"N_mie": -2}}),
        ],
    )
    def test_malformed_section(self, tmp_path, capsys, command, overrides):
        cfg = write_cfg(tmp_path, **overrides)
        assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
        assert json.loads(capsys.readouterr().out)["error"] == "config"

    def test_bad_thread_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DIELSHAPE_NUM_THREADS", "abc")
        cfg = write_cfg(tmp_path)
        assert main(["solve", "--config", str(cfg)]) == EXIT_CONFIG
        assert json.loads(capsys.readouterr().out)["error"] == "config"

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_thread_env_below_one(self, tmp_path, monkeypatch, capsys, value):
        # OpenBLAS reads 0 threads as "all cores"; the limit must be >= 1.
        # The check runs before any numeric work, so no thread is started.
        monkeypatch.setenv("DIELSHAPE_NUM_THREADS", value)
        cfg = write_cfg(tmp_path)
        assert main(["solve", "--config", str(cfg)]) == EXIT_CONFIG
        assert json.loads(capsys.readouterr().out)["error"] == "config"


class TestThreadLimit:
    def test_cli_import_leaves_numpy_unloaded(self):
        # DIELSHAPE_NUM_THREADS only takes effect if numpy (and its BLAS) is
        # loaded after main() has applied it
        code = "import sys, dielshape.cli; assert 'numpy' not in sys.modules"
        src = str(Path(dielshape.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
