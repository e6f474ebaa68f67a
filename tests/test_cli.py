"""Command-line interface: schemas, headers, idempotence, exit codes."""

import json
import math
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

jsonschema = pytest.importorskip("jsonschema")

from ridgeshift.cli import main


@pytest.fixture
def iso_config(tmp_path):
    cfg = {
        "p": 24,
        "spectrum": {"kind": "identity"},
        "signal": {"kind": "isotropic", "alpha2": 1.0},
        "shift": {"kind": "none"},
        "sigma2": 0.5,
        "sigma0_sq": 0.0,
    }
    path = tmp_path / "iso.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture
def banded_config(tmp_path):
    cfg = {
        "p": 40,
        "spectrum": {"kind": "ar1", "rho": 0.5},
        "signal": {"kind": "eigvec-combination", "indices": [1, 40], "weights": [0.5, 0.5]},
        "shift": {"kind": "none"},
        "sigma2": 0.01,
        "sigma0_sq": 0.0,
    }
    path = tmp_path / "banded.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run_to_file(tmp_path, args):
    out = tmp_path / "out.txt"
    code = main(args + ["--out", str(out)])
    return code, out


class TestFixpoint:
    def test_csv_header_and_values(self, tmp_path, iso_config):
        code, out = run_to_file(
            tmp_path, ["fixpoint", "--config", iso_config, "--phi", "2", "--lambda", "0"]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "lambda,phi,psi,mu,v,tilde_v,residual"
        row = lines[1].split(",")
        assert float(row[3]) == pytest.approx(1.0, rel=1e-10)
        assert float(row[5]) == pytest.approx(1.0, rel=1e-10)

    def test_below_minimum_is_numeric_failure(self, tmp_path, iso_config):
        code = main(["fixpoint", "--config", iso_config, "--phi", "4", "--lambda", "-2"])
        assert code == 2

    def _row(self, tmp_path, config, *flags):
        code, out = run_to_file(tmp_path, ["fixpoint", "--config", config, *flags])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        return dict(zip(lines[0].split(","), lines[1].split(",")))

    def test_infinite_aspect_sentinel(self, tmp_path, iso_config):
        row = self._row(tmp_path, iso_config, "--phi", "2", "--lambda", "0.5", "--psi", "inf")
        assert (row["mu"], row["v"], row["tilde_v"], row["residual"]) == ("inf", "0", "0", "0")

    def test_ridgeless_v_flagged_infinite(self, tmp_path, iso_config):
        row = self._row(tmp_path, iso_config, "--phi", "0.5", "--lambda", "0")
        assert (row["mu"], row["v"]) == ("0", "inf")

    def test_v_is_the_reciprocal_level(self, tmp_path, iso_config):
        row = self._row(tmp_path, iso_config, "--phi", "2", "--lambda", "0")
        assert float(row["v"]) == 1.0 / float(row["mu"])

    def test_nan_penalty_is_invalid(self, capsys, iso_config):
        code = main(["fixpoint", "--config", iso_config, "--phi", "2", "--lambda", "nan"])
        assert code == 1
        assert "penalty must be finite" in capsys.readouterr().err


class TestLambdamin:
    def test_grid(self, tmp_path, iso_config):
        code, out = run_to_file(
            tmp_path, ["lambdamin", "--config", iso_config, "--grid", "0.25:4:4"]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "phi,mu_zero,lambda_min"
        last = lines[-1].split(",")
        assert float(last[0]) == 4.0
        assert float(last[2]) == pytest.approx(-1.0, abs=1e-10)


class TestRisk:
    def test_header_and_variance_monotone(self, tmp_path, iso_config):
        code, out = run_to_file(
            tmp_path,
            ["risk", "--config", iso_config, "--phi", "2", "--grid", "0.01:10:25:log"],
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "lambda,phi,bias,variance,shift,kappa2,total"
        var = [float(l.split(",")[3]) for l in lines[1:]]
        assert np.all(np.diff(var) < 0)  # variance falls as the penalty grows

    def test_totals_close_sum(self, tmp_path, banded_config):
        code, out = run_to_file(
            tmp_path, ["risk", "--config", banded_config, "--phi", "0.5", "--grid", "0:1:5"]
        )
        assert code == 0
        for line in out.read_text().strip().splitlines()[1:]:
            _, _, b, v, s, k, t = map(float, line.split(","))
            assert t == pytest.approx(b + v + s + k, abs=1e-15)

    def test_nan_penalty_is_invalid(self, tmp_path, iso_config):
        code, out = run_to_file(
            tmp_path, ["risk", "--config", iso_config, "--phi", "2", "--grid", "nan:1:3"]
        )
        assert code == 1
        assert not out.exists()

    def test_sweep_keeps_a_nan_penalty_as_a_nan_cell(self, tmp_path, iso_config):
        code, out = run_to_file(
            tmp_path,
            ["sweep", "--config", iso_config, "--grid", "nan:1:2", "--phi-grid", "0.5:2:2"],
        )
        assert code == 0
        totals = [line.split(",")[2] for line in out.read_text().strip().splitlines()[1:]]
        assert totals[:2] == ["nan", "nan"] and "nan" not in totals[2:]


class TestOptimize:
    def test_isotropic_optimum_row(self, tmp_path, iso_config):
        code, out = run_to_file(tmp_path, ["optimize", "--config", iso_config, "--phi", "2"])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:6] == ["row_type", "lambda", "psi", "risk", "mu", "boundary"]
        row = dict(zip(header, lines[1].split(",")))
        assert row["row_type"] == "optimum"
        assert float(row["lambda"]) == pytest.approx(1.0, rel=1e-4)  # phi / snr
        assert float(row["lambda_min"]) == pytest.approx(-((1 - math.sqrt(2)) ** 2), abs=1e-10)
        assert float(row["naive_lambda_min"]) == pytest.approx(-((1 - math.sqrt(2)) ** 2), abs=1e-10)

    def test_joint_row(self, tmp_path, iso_config):
        code, out = run_to_file(
            tmp_path, ["optimize", "--config", iso_config, "--phi", "0.5", "--joint"]
        )
        assert code == 0
        text = out.read_text()
        assert "joint-optimum" in text


class TestConditions:
    def test_rows_present(self, tmp_path, banded_config):
        code, out = run_to_file(
            tmp_path, ["conditions", "--config", banded_config, "--phi", "5", "--grid-points", "150"]
        )
        assert code == 0
        text = out.read_text()
        assert text.splitlines()[0] == "record,id,value,worst_margin,detail"
        assert "sign-prediction" in text
        assert "strict-alignment-implication" in text


class TestPath:
    def test_contour_rows(self, tmp_path, iso_config):
        code, out = run_to_file(
            tmp_path,
            ["path", "--config", iso_config, "--phi", "0.5", "--psi-bar", "4", "--samples", "9"],
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "theta,lambda,psi,mu"
        mus = [float(l.split(",")[3]) for l in lines[1:]]
        assert np.allclose(mus, 1.0, atol=1e-8)


class TestSimulate:
    def test_table_and_determinism(self, tmp_path, iso_config):
        args = [
            "simulate", "--config", iso_config, "--phi", "2", "--grid", "0.2:1:2",
            "--reps", "3", "--seed", "7",
        ]
        code1, out1 = run_to_file(tmp_path, args)
        text1 = out1.read_text()
        code2, out2 = run_to_file(tmp_path, args)
        assert code1 == code2 == 0
        assert text1 == out2.read_text()  # byte-identical rerun
        assert text1.splitlines()[0] == (
            "lambda,phi,psi,empirical_mean,empirical_se,theory_total,rel_error"
        )


class TestSweep:
    def test_psi_grid_boundary(self, tmp_path, iso_config):
        code, out = run_to_file(
            tmp_path,
            [
                "sweep", "--config", iso_config, "--phi", "0.5",
                "--grid=-0.9:0.5:15", "--psi-grid", "0.5:9:18",
            ],
        )
        assert code == 0
        rows = [l.split(",") for l in out.read_text().strip().splitlines()[1:]]
        for lam_s, psi_s, total_s in rows:
            lam, psi, total = float(lam_s), float(psi_s), float(total_s)
            boundary = -((1.0 - math.sqrt(psi)) ** 2)
            if lam < boundary - 1e-9:
                assert math.isnan(total)
            elif lam > boundary + 1e-6 or psi > 0.5 + 1e-9:
                assert math.isfinite(total)


class TestSweepPhiGrid:
    def test_lambda_by_phi_mode(self, tmp_path, iso_config):
        code, out = run_to_file(
            tmp_path,
            ["sweep", "--config", iso_config, "--grid", "0.1:1:4", "--phi-grid", "0.5:2:3"],
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,y,total"
        assert len(lines) == 1 + 4 * 3
        for line in lines[1:]:
            assert math.isfinite(float(line.split(",")[2]))


class TestJsonFormat:
    def test_validates_against_schema(self, tmp_path, iso_config):
        out = tmp_path / "out.json"
        code = main(
            ["risk", "--config", iso_config, "--phi", "2", "--grid", "0.1:1:3",
             "--format", "json", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        schema = json.loads(
            resources.files("ridgeshift.schemas").joinpath("cli_output.schema.json").read_text()
        )
        jsonschema.validate(payload, schema)
        assert payload["columns"][0] == "lambda"

    def test_infinities_are_encoded(self, tmp_path, iso_config):
        out = tmp_path / "out.json"
        code = main(
            ["fixpoint", "--config", iso_config, "--phi", "0.5", "--lambda", "0",
             "--format", "json", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())  # must be strict JSON
        row = payload["rows"][0]
        assert row[4] == "inf"  # reciprocal level at the ridgeless point


class TestErrors:
    def test_missing_config_file(self, tmp_path):
        code = main(["risk", "--config", str(tmp_path / "nope.json"), "--phi", "2",
                     "--grid", "0:1:3"])
        assert code == 1

    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"p": 1}')  # p below the minimum dimension
        code = main(["risk", "--config", str(bad), "--phi", "2", "--grid", "0:1:3"])
        assert code == 1

    @pytest.mark.parametrize("sigma0", [{"kind": "ar1"}, {"kind": "ar1", "rho": 1.0}])
    def test_ar1_test_covariance_needs_rho_inside_the_unit_interval(self, tmp_path, capsys, sigma0):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "p": 4, "spectrum": {"kind": "ar1", "rho": 0.5},
            "signal": {"kind": "eigvec-combination", "indices": [1], "weights": [1.0]},
            "shift": {"kind": "covariate", "sigma0": sigma0}, "sigma2": 0.1,
        }))
        code = main(["fixpoint", "--config", str(bad), "--phi", "2", "--lambda", "0.1"])
        assert code == 1
        assert "invalid configuration" in capsys.readouterr().err

    def test_nan_lambda_floor_is_invalid(self, capsys, iso_config):
        code = main(["optimize", "--config", iso_config, "--phi", "2", "--lambda-floor", "nan"])
        assert code == 1
        assert "lambda_floor" in capsys.readouterr().err

    def test_unparseable_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["risk", "--config", str(bad), "--phi", "2", "--grid", "0:1:3"])
        assert code == 1


class TestEntryPoint:
    def test_console_script(self, iso_config):
        proc = subprocess.run(
            [sys.executable, "-m", "ridgeshift.cli", "lambdamin", "--config", iso_config,
             "--grid", "1:1:1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "phi,mu_zero,lambda_min"
