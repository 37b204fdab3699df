"""End-to-end command line behaviour: config handling, exit codes, output
tables, and determinism of repeated runs."""

import csv
import json
import os
import subprocess
import sys
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

    def test_unknown_material_key(self, tmp_path):
        cfg = write_cfg(tmp_path, material={"eps_i": 2.25, "color": "blue"})
        assert main(["solve", "--config", str(cfg)]) == EXIT_CONFIG

    def test_inadmissible_deformation_is_numerical_failure(self, tmp_path):
        # Deforming the sphere through the origin is caught by the geometry
        # admissibility checks during the finite-difference route.
        cfg = write_cfg(tmp_path, deformation="radial", h=1.5)
        rc = main(["dsolve", "--config", str(cfg), "--routes", "C"])
        assert rc == EXIT_NUMERICAL

    def test_bad_thread_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DIELSHAPE_NUM_THREADS", "abc")
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
