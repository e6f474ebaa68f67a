"""Command-line interface: schemas, headers, idempotence, exit codes."""

import json
import math
import subprocess
import sys
from importlib import resources
from pathlib import Path

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


@pytest.fixture
def reg_shift_config(tmp_path):
    cfg = {
        "p": 40,
        "spectrum": {"kind": "ar1", "rho": 0.5},
        "signal": {"kind": "eigvec-combination", "indices": [1, 40], "weights": [0.5, 0.5]},
        "shift": {"kind": "regression", "beta0": {"kind": "scale", "factor": 2.0}},
        "sigma2": 0.01,
    }
    path = tmp_path / "reg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


#: quick valid arguments of every subcommand, besides --config
SUBCOMMAND_ARGS = {
    "fixpoint": ["--phi", "2", "--lambda", "0.1"],
    "lambdamin": ["--grid", "0.5:2:3"],
    "risk": ["--phi", "2", "--grid", "0.1:1:3"],
    "optimize": ["--phi", "2", "--joint"],
    "conditions": ["--phi", "2", "--grid-points", "20"],
    "path": ["--phi", "0.5", "--psi-bar", "2", "--samples", "3"],
    "simulate": ["--phi", "2", "--grid", "0.2:1:2", "--reps", "2", "--seed", "1"],
    "sweep": ["--grid", "0.1:1:2", "--phi-grid", "0.5:2:2"],
}


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

    @pytest.mark.parametrize("lam", ["0.5", "-0.5"])
    def test_psi_below_phi_is_an_invalid_configuration(self, capsys, iso_config, lam):
        # the subsample-aspect rule runs before the solve at psi, which at
        # lambda -0.5 lies below lambda_min(1) = 0 and would fail numerically
        code = main(["fixpoint", "--config", iso_config, "--phi", "4", "--lambda", lam,
                     "--psi", "1"])
        assert code == 1
        assert ("subsample aspect must be >= data aspect 4.0 (not below phi), got psi=1.0"
                in capsys.readouterr().err)

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

    def test_penalty_beyond_the_float_range_of_the_risk_is_invalid(self, capsys, iso_config):
        code = main(["risk", "--config", iso_config, "--phi", "2", "--grid", "0:1e200:3"])
        assert code == 1
        assert "is too large: its square overflows" in capsys.readouterr().err

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

    def test_second_local_minimum_row(self, tmp_path):
        # two eigenvalue clusters give two interior minima
        cfg = {
            "p": 20,
            "spectrum": {"kind": "explicit", "values": [0.002] * 17 + [6.0] * 3},
            "signal": {"kind": "explicit", "values": [1.0] * 17 + [0.2] * 3},
            "sigma2": 0.01,
        }
        path = tmp_path / "clusters.json"
        path.write_text(json.dumps(cfg))
        code, out = run_to_file(tmp_path, ["optimize", "--config", str(path), "--phi", "4"])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == ["optimum", "local-min"]
        assert float(rows[0][1]) == pytest.approx(0.2031, abs=5e-5)
        assert float(rows[1][1]) == pytest.approx(0.002722, abs=5e-7)
        assert float(rows[1][4]) == pytest.approx(0.02228024092218008, rel=1e-12)
        assert rows[1][5] == ""


class TestConditions:
    def test_rows_present(self, tmp_path, banded_config):
        code, out = run_to_file(
            tmp_path, ["conditions", "--config", banded_config, "--phi", "5", "--grid-points", "150"]
        )
        assert code == 0
        text = out.read_text()
        assert text.splitlines()[0] == "record,id,value,worst_margin,detail"
        assert "sign-prediction" in text

    @pytest.mark.parametrize("phi", ["0.9999999999999998", "1", "1.0000000000000002"])
    def test_ridgeless_level_on_the_edge(self, capsys, reg_shift_config, phi):
        # the checks that start at the ridgeless level are left out where it
        # is within rounding of the branch edge, and the sign is inconclusive
        code = main(["conditions", "--config", reg_shift_config, "--phi", phi,
                     "--grid-points", "50"])
        assert code == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [row[1] for row in rows[:-1]] == ["reg-shift-alignment"]
        assert rows[-1][1] == "inconclusive" and rows[-1][4] == "boundary-aspect-ratio"

    @staticmethod
    def _count_calls(monkeypatch, name):
        """The argument tuples of every call of the check ``name``."""
        from ridgeshift import cli, conditions

        calls = []
        check = getattr(conditions, name)

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(conditions, name, counted)
        monkeypatch.setattr(cli, name, counted)
        return calls

    def test_deciding_check_runs_once(self, monkeypatch, capsys, banded_config):
        # the router's report is printed for its row, not computed again
        calls = self._count_calls(monkeypatch, "check_in_dist_alignment")
        assert main(["conditions", "--config", banded_config, "--phi", "2",
                     "--grid-points", "50"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(calls) == 1
        assert rows[0][1] == "in-dist-alignment"
        assert rows[-1][4].startswith("no-shift-alignment")

    def test_every_check_the_route_read_runs_once(self, monkeypatch, capsys, reg_shift_config):
        # overparameterized regression shift: the route reads the in-dist
        # alignment and decides on the shift alignment; both rows are printed
        # from the router's reports
        in_dist = self._count_calls(monkeypatch, "check_in_dist_alignment")
        shift = self._count_calls(monkeypatch, "check_reg_shift_alignment")
        assert main(["conditions", "--config", reg_shift_config, "--phi", "3",
                     "--grid-points", "50"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert (len(in_dist), len(shift)) == (1, 1)
        assert [row[1] for row in rows[:-1]] == [
            "in-dist-alignment", "reg-shift-alignment", "reg-shift-general-balance"]
        assert rows[-1][4].startswith("reg-shift-joint-alignment")

    def test_readme_transcript_at_unit_aspect(self, capsys, reg_shift_config):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        prompt = "$ ridgeshift conditions --config reg.json --phi 1\n"
        transcript = readme.split(prompt, 1)[1].split("```", 1)[0]
        assert main(["conditions", "--config", reg_shift_config, "--phi", "1"]) == 0
        assert capsys.readouterr().out == transcript


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

    def test_ensemble_rows_and_replicate_dump(self, tmp_path, iso_config):
        dump = tmp_path / "reps.csv"
        code, out = run_to_file(tmp_path, [
            "simulate", "--config", iso_config, "--phi", "2", "--grid", "0.2:1:2",
            "--reps", "2", "--seed", "3", "--psi", "4", "--subsamples", "3",
            "--dump-replicates", str(dump),
        ])
        assert code == 0
        psis = [float(line.split(",")[2]) for line in out.read_text().splitlines()[1:]]
        assert psis == [2.0, 2.0, 4.0, 4.0]
        lines = dump.read_text().splitlines()
        assert lines[0] == "cell_id,lambda,phi,psi,rep,risk"
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "0", "1", "1", "2", "2", "3", "3"]

    def test_failed_group_dumps_only_the_header(self, tmp_path, monkeypatch, iso_config):
        from ridgeshift import simulate

        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(simulate, "_fits", singular)
        dump = tmp_path / "reps.csv"
        code, out = run_to_file(tmp_path, [
            "simulate", "--config", iso_config, "--phi", "2", "--grid", "0.2:1:2",
            "--reps", "2", "--seed", "3", "--dump-replicates", str(dump),
        ])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 2 and all(row[3] == "nan" for row in rows)
        assert dump.read_text() == "cell_id,lambda,phi,psi,rep,risk\n"


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


class TestOutputFile:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("sub", list(SUBCOMMAND_ARGS))
    def test_out_file_holds_the_stdout_bytes(self, tmp_path, capsys, iso_config, sub, fmt):
        argv = [sub, "--config", iso_config, "--format", fmt, *SUBCOMMAND_ARGS[sub]]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "out.txt"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == stdout.encode()


class TestErrors:
    @pytest.mark.parametrize("sub", list(SUBCOMMAND_ARGS))
    def test_missing_config_file(self, tmp_path, capsys, sub):
        code = main([sub, "--config", str(tmp_path / "nope.json"), *SUBCOMMAND_ARGS[sub]])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["risk", "--phi", "2", "--grid", "a:1:3"], "bad grid spec"),
            (["risk", "--phi", "2", "--grid", "0:1:2.5"], "bad grid spec"),
            (["risk", "--phi", "2", "--grid", "0:1"], "bad grid spec"),
            (["lambdamin", "--grid", "0.5:x:3:log"], "bad grid spec"),
            (["sweep", "--grid", "0:1:2", "--phi-grid", "0.5:2:b"], "bad grid spec"),
            (["risk", "--phi", "2", "--grid", "0:1:0"], "grid count must be >= 1"),
            (["risk", "--phi", "2", "--grid", "0:1:3:lin"], "bad grid suffix 'lin'"),
            (["lambdamin", "--grid=-1:1:3:log"], "log grid needs positive endpoints"),
            (["sweep", "--grid", "0:1:2", "--psi-grid", "1:2:2"], "--psi-grid mode needs --phi"),
            (["sweep", "--grid", "0:1:2"], "sweep needs --psi-grid or --phi-grid"),
        ],
        ids=["bad-start", "fractional-count", "no-count", "bad-stop", "bad-sweep-count",
             "zero-count", "bad-suffix", "nonpositive-log-start", "psi-grid-without-phi",
             "sweep-without-grid"],
    )
    def test_malformed_grid_is_invalid_configuration(self, capsys, iso_config, argv, message):
        code = main([argv[0], "--config", iso_config, *argv[1:]])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid configuration: {message}")
        assert "Traceback" not in err

    # at phi = 1 no check builds a level grid
    @pytest.mark.parametrize("points, phi", [("0", "2"), ("-1", "2"), ("0", "1"), ("-1", "1")],
                             ids=["0", "-1", "0-at-unit-phi", "-1-at-unit-phi"])
    def test_grid_points_below_one_is_invalid_configuration(self, capsys, iso_config, points, phi):
        code = main(["conditions", "--config", iso_config, "--phi", phi,
                     "--grid-points", points])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration") and "points must be an integer >= 1" in err

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

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"p": "abc", "signal": {"kind": "isotropic", "alpha2": 1.0}}, "'p'"),
            ({"p": 4, "spectrum": 5, "signal": {"kind": "isotropic", "alpha2": 1.0}}, "spectrum"),
            ([1, 2], "model config"),
            ({"p": 4, "signal": {"kind": "isotropic", "alpha2": 1.0}, "sigma2": "x"}, "'sigma2'"),
            # unknown keys are errors, not silently ignored
            ({"p": 4, "signal": {"kind": "isotropic", "alpha2": 1.0}, "sigma_2": 0.5}, "'sigma_2'"),
            ({"p": 4, "signal": {"kind": "isotropic", "alpha2": 1.0},
              "shift": {"kind": "covariate", "sigma0": {"kind": "identity", "rh0": 0.5}}}, "'rh0'"),
            # an eigenvector index must be an integer, not truncated to one
            ({"p": 4, "signal": {"kind": "eigvec-combination", "indices": [1.7],
                                 "weights": [1.0]}}, "eigenvector index 1.7"),
            # and so must p: neither truncated nor parsed from a string
            ({"p": 5.9, "signal": {"kind": "isotropic", "alpha2": 1.0}}, "'p'"),
            ({"p": "5", "signal": {"kind": "isotropic", "alpha2": 1.0}}, "'p'"),
            ({"p": True, "signal": {"kind": "isotropic", "alpha2": 1.0}}, "'p'"),
            # and of a size numpy refuses before it allocates anything
            ({"p": 1e300, "signal": {"kind": "isotropic", "alpha2": 1.0}}, "'p'"),
            ({"p": 1e20, "signal": {"kind": "isotropic", "alpha2": 1.0}}, "'p'"),
            # no other number may be a string or a bool either
            ({"p": 4, "signal": {"kind": "isotropic", "alpha2": 1.0}, "sigma2": "0.5"},
             "'sigma2'"),
            ({"p": 4, "signal": {"kind": "isotropic", "alpha2": 1.0}, "sigma2": True},
             "'sigma2'"),
            ({"p": 4, "signal": {"kind": "isotropic", "alpha2": True}}, "'alpha2'"),
            ({"p": 4, "signal": {"kind": "eigvec-combination", "indices": [1], "weights": [1.0]},
              "shift": {"kind": "regression", "beta0": {"kind": "scale", "factor": "2"}}},
             "'factor'"),
        ],
        ids=["p-not-a-number", "spectrum-not-an-object", "top-level-list", "sigma2-not-a-number",
             "misspelled-top-level-key", "misspelled-sigma0-key", "fractional-index",
             "fractional-p", "string-p", "bool-p", "huge-p", "large-p", "string-sigma2", "bool-sigma2", "bool-alpha2",
             "string-factor"],
    )
    def test_malformed_document_is_invalid_configuration(self, tmp_path, capsys, doc, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["fixpoint", "--config", str(bad), "--phi", "2", "--lambda", "0.1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration") and key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [["risk", "--phi", "2", "--grid", "0:1:2"],
                                      ["optimize", "--phi", "2"]], ids=["risk", "optimize"])
    @pytest.mark.parametrize("source", ["sigma0-file", "sigma2"])
    def test_non_finite_model_inputs_are_invalid(self, tmp_path, capsys, argv, source):
        doc = {"p": 2, "spectrum": {"kind": "identity"},
               "signal": {"kind": "explicit", "values": [1.0, 0.5]}, "sigma2": 0.1}
        if source == "sigma0-file":
            (tmp_path / "s0.txt").write_text("nan\n1\n")
            doc["shift"] = {"kind": "covariate",
                            "sigma0": {"kind": "diagonal", "path": str(tmp_path / "s0.txt")}}
        else:
            doc["sigma2"] = math.nan
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))  # NaN is written as the bare literal
        code = main([argv[0], "--config", str(bad), *argv[1:]])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration") and "Traceback" not in err

    def test_no_finite_scanned_level_is_a_numeric_failure(self, tmp_path, capsys):
        doc = {"p": 4, "spectrum": {"kind": "identity"},
               "signal": {"kind": "explicit", "values": [1e200, 1e200, 0.0, 0.0]}}
        bad = tmp_path / "overflow.json"
        bad.write_text(json.dumps(doc))
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["optimize", "--config", str(bad), "--phi", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: numeric failure in optimize: no scanned level")
        assert "Traceback" not in err

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
