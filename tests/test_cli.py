import csv
import json
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

import ccplan
from ccplan.cli import (
    EXIT_INVALID,
    EXIT_NOT_CONVERGED,
    EXIT_NUMERICAL,
    EXIT_OK,
    main,
)
from ccplan.geometry import GeometryError

SCENES = files("ccplan") / "scenes"
CORRIDOR = str(SCENES / "corridor2d.json")
POINTBOT = str(SCENES / "pointbot2d.json")


def run_plan(out_dir, scene=CORRIDOR, delta="0.01", extra=()):
    return main(["plan", "--scene", scene, "--robot", POINTBOT,
                 "--start=-1.5,0", "--goal=1.5,0", "--timesteps", "10",
                 "--delta", delta, "--margin", "0.02",
                 "--out-dir", str(out_dir), *extra])


def blanket_scene(tmp_path, sigma2=0.5):
    data = json.loads((SCENES / "corridor2d.json").read_text())
    for ob in data["obstacles"]:
        ob["covariance"] = [[sigma2, 0.0], [0.0, sigma2]]
    path = tmp_path / "blanket.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestPlan:
    def test_success_artifacts(self, tmp_path, capsys):
        assert run_plan(tmp_path) == EXIT_OK
        for name in ("trajectory.csv", "allocation.csv", "plan.svg",
                     "plan.json"):
            assert (tmp_path / name).exists()
        summary = json.loads((tmp_path / "plan.json").read_text())
        assert summary["status"] == "converged"
        assert summary["totalCertifiedRisk"] <= 0.01 + 10 * 1e-4
        printed = json.loads(capsys.readouterr().out)
        assert printed == summary

    def test_trajectory_csv_roundtrip(self, tmp_path):
        run_plan(tmp_path)
        with open(tmp_path / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "q0", "q1"]
        traj = np.array([[float(x) for x in row[1:]] for row in rows[1:]])
        assert traj.shape == (10, 2)
        np.testing.assert_array_equal(traj[0], [-1.5, 0.0])
        np.testing.assert_array_equal(traj[-1], [1.5, 0.0])

    def test_allocation_csv_sums_to_budget(self, tmp_path):
        run_plan(tmp_path)
        with open(tmp_path / "allocation.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "delta", "certifiedRisk"]
        alloc = sum(float(r[1]) for r in rows[1:])
        assert alloc <= 0.01 + 1e-9

    def test_svg_is_wellformed(self, tmp_path):
        import xml.etree.ElementTree as ET
        run_plan(tmp_path)
        root = ET.fromstring((tmp_path / "plan.svg").read_text())
        assert root.tag.endswith("svg")

    def test_infeasible_exit_code_still_writes(self, tmp_path, capsys):
        scene = blanket_scene(tmp_path)
        out = tmp_path / "out"
        assert run_plan(out, scene=scene, delta="0.001") \
            == EXIT_NOT_CONVERGED
        summary = json.loads((out / "plan.json").read_text())
        assert summary["status"] == "infeasible"
        assert (out / "trajectory.csv").exists()

    def test_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run_plan(a)
        run_plan(b)
        assert (a / "trajectory.csv").read_bytes() \
            == (b / "trajectory.csv").read_bytes()
        assert (a / "allocation.csv").read_bytes() \
            == (b / "allocation.csv").read_bytes()


class TestCertify:
    def test_reports_per_obstacle(self, tmp_path, capsys):
        code = main(["certify", "--scene", CORRIDOR, "--robot", POINTBOT,
                     "--theta=-0.05,0.3", "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "certify.json").read_text())
        names = [e["obstacle"] for e in report["obstacles"]]
        assert names == ["pillar-upper", "pillar-lower"]
        for entry in report["obstacles"]:
            assert entry["epsPrime"] <= entry["eps1"] + 1e-15
            if not entry["saturated"]:
                assert len(entry["gradient"]) == 2
        assert report["totalRisk"] == pytest.approx(
            sum(e["epsPrime"] for e in report["obstacles"]))

    def test_wrong_dof_rejected(self, tmp_path, capsys):
        code = main(["certify", "--scene", CORRIDOR, "--robot", POINTBOT,
                     "--theta", "0.1", "--out-dir", str(tmp_path)])
        assert code == EXIT_INVALID


class TestValidate:
    def test_roundtrip_within_certified(self, tmp_path, capsys):
        run_plan(tmp_path)
        capsys.readouterr()
        code = main(["validate", "--scene", CORRIDOR, "--robot", POINTBOT,
                     "--trajectory", str(tmp_path / "trajectory.csv"),
                     "--samples", "20000", "--seed", "0",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "validate.json").read_text())
        assert report["estimateWithinCertified"]
        assert report["monteCarlo"]["sampleCount"] == 20000
        assert len(report["certifiedRiskPerTimestep"]) == 10

    def test_bad_header_rejected(self, tmp_path, capsys):
        bad = tmp_path / "traj.csv"
        bad.write_text("x,q0,q1\r\n0,0.0,0.0\r\n")
        code = main(["validate", "--scene", CORRIDOR, "--robot", POINTBOT,
                     "--trajectory", str(bad), "--out-dir", str(tmp_path)])
        assert code == EXIT_INVALID

    def test_missing_file_rejected(self, tmp_path, capsys):
        code = main(["validate", "--scene", CORRIDOR, "--robot", POINTBOT,
                     "--trajectory", str(tmp_path / "nope.csv"),
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_INVALID


class TestCompare:
    def test_table_and_ordering(self, tmp_path, capsys):
        code = main(["compare", "--scene", CORRIDOR, "--robot", POINTBOT,
                     "--start=-1.5,0", "--goal=1.5,0", "--timesteps", "10",
                     "--delta", "0.01", "--margin", "0.02",
                     "--samples", "20000", "--ira-samples", "1000",
                     "--seed", "2", "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "compare.json").read_text())
        rows = {r["algorithm"]: r for r in report["table"]}
        assert set(rows) == {"risk-blind", "ira", "certified"}
        assert rows["risk-blind"]["pathLength"] \
            < rows["certified"]["pathLength"]
        assert rows["risk-blind"]["monteCarloRisk"] > 0.01
        assert rows["certified"]["monteCarloRisk"] <= 0.01
        with open(tmp_path / "compare.csv", newline="") as fh:
            csv_rows = list(csv.reader(fh))
        assert len(csv_rows) == 4


class TestErrorReporting:
    def test_non_spd_covariance_names_obstacle(self, tmp_path, capsys):
        data = json.loads((SCENES / "corridor2d.json").read_text())
        data["obstacles"][0]["covariance"] = [[0.001, 0.9], [0.9, 0.001]]
        scene = tmp_path / "bad.json"
        scene.write_text(json.dumps(data))
        code = main(["certify", "--scene", str(scene), "--robot", POINTBOT,
                     "--theta", "0,0", "--out-dir", str(tmp_path)])
        assert code == EXIT_INVALID
        assert "pillar-upper" in capsys.readouterr().err

    def test_missing_scene_file(self, tmp_path, capsys):
        code = main(["certify", "--scene", str(tmp_path / "nope.json"),
                     "--robot", POINTBOT, "--theta", "0,0",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_INVALID

    def test_dimension_mismatch(self, tmp_path, capsys):
        arm = str(SCENES / "arm4dof3d.json")
        code = main(["certify", "--scene", CORRIDOR, "--robot", arm,
                     "--theta", "0,0,0,0", "--out-dir", str(tmp_path)])
        assert code == EXIT_INVALID

    def test_numerical_failure_exit_code(self, monkeypatch, capsys):
        import ccplan.cli as cli

        def boom(args):
            raise GeometryError("support query diverged")

        monkeypatch.setattr(cli, "cmd_certify", boom)
        code = main(["certify", "--scene", CORRIDOR, "--robot", POINTBOT,
                     "--theta", "0,0"])
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    def test_linalg_failure_is_numerical(self, monkeypatch, capsys):
        # LinAlgError subclasses ValueError, yet it is a numerical failure,
        # not invalid input.
        import ccplan.cli as cli

        def boom(args):
            raise np.linalg.LinAlgError("matrix is not positive definite")

        monkeypatch.setattr(cli, "cmd_certify", boom)
        code = main(["certify", "--scene", CORRIDOR, "--robot", POINTBOT,
                     "--theta", "0,0"])
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err


class TestBlasThreads:
    """The CLI runs NumPy with one BLAS thread unless the caller sets the
    thread count: each variable's value as NumPy is first imported."""

    VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    CHILD = """
import os, sys
seen = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append([os.environ.get(v, "unset") for v in {vars!r}])
sys.meta_path.insert(0, Spy())
import ccplan.cli
print(*seen[0])
"""

    def child(self, **env):
        base = {k: v for k, v in os.environ.items() if k not in self.VARS}
        base["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(ccplan.__file__).parents[1]),
            os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", self.CHILD.format(vars=self.VARS)],
            env={**base, **env}, capture_output=True, text=True, check=True)
        return out.stdout.split()

    def test_one_thread_by_default(self):
        assert self.child() == ["1", "1", "1"]

    def test_caller_setting_wins(self):
        assert self.child(OPENBLAS_NUM_THREADS="2") == ["2", "1", "1"]
