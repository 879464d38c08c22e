import json

import numpy as np
import pytest

from boat.cli import (
    RECOMMEND_BDID,
    RECOMMEND_BPSM,
    RECOMMEND_BRDD,
    RECOMMEND_OUT_OF_SCOPE,
    RECOMMEND_RANDOMISE,
    RECOMMEND_STRATIFY,
    _converged,
    advise,
    main,
)

FAST = ["--draws", "400", "--warmup", "100", "--chains", "2", "--seed", "0"]


def run(argv, capsys=None):
    code = main(argv)
    return code


class TestConverged:
    def test_null_rhat_is_not_converged(self):
        assert _converged({"a": {"rhat": 1.0}, "b": {"rhat": 1.05}})
        assert not _converged({"a": {"rhat": 1.0}, "b": {"rhat": None}})
        assert not _converged({"a": {"rhat": 1.2}})


class TestAdvise:
    def test_randomizable_wins(self):
        assert advise({"randomizable": True}) == RECOMMEND_RANDOMISE

    def test_bpsm_branch(self):
        a = {"randomizable": False, "covariates_known": True, "multiple_covariates": True}
        assert advise(a) == RECOMMEND_BPSM

    def test_brdd_branch(self):
        a = {
            "randomizable": False,
            "covariates_known": True,
            "multiple_covariates": False,
            "continuous_dominant_covariate": True,
        }
        assert advise(a) == RECOMMEND_BRDD

    def test_stratification_branch(self):
        a = {
            "randomizable": False,
            "covariates_known": True,
            "multiple_covariates": False,
            "continuous_dominant_covariate": False,
        }
        assert advise(a) == RECOMMEND_STRATIFY

    def test_bdid_branch(self):
        a = {
            "randomizable": False,
            "covariates_known": False,
            "latent_inference_needed": False,
        }
        assert advise(a) == RECOMMEND_BDID

    def test_out_of_scope_branch(self):
        a = {
            "randomizable": False,
            "covariates_known": False,
            "latent_inference_needed": True,
        }
        assert advise(a) == RECOMMEND_OUT_OF_SCOPE

    def test_missing_required_answer(self):
        with pytest.raises(ValueError):
            advise({"randomizable": False})

    def test_unreached_answers_not_required(self):
        # the covariate questions are never reached when randomizable
        assert advise({"randomizable": True, "covariates_known": None}) == RECOMMEND_RANDOMISE

    def test_non_boolean_rejected(self):
        with pytest.raises(ValueError):
            advise({"randomizable": "yes"})

    def test_cli_advise_json(self, capsys):
        code = main(["advise", "--randomizable", "no", "--covariates-known", "yes",
                     "--multiple-covariates", "yes"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"schema": "boat/1", "recommendation": RECOMMEND_BPSM}

    def test_cli_advise_missing_answer_errors(self, capsys):
        code = main(["advise", "--randomizable", "no"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["schema"] == "boat/1"
        assert err["error"] == "ValueError"


class TestSimulateCommand:
    def test_confounded_outputs(self, tmp_path):
        out = tmp_path / "sim"
        code = main(["simulate", "--scenario", "confounded_psm", "--seed", "3",
                     "--out", str(out)])
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["truth.json", "units.csv"]
        truth = json.loads((out / "truth.json").read_text())
        assert truth["schema"] == "boat/1"
        assert truth["true_ate"] == -0.3
        assert len(truth["true_propensity"]) == 240

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["simulate", "--scenario", "cutoff_rdd", "--seed", "9"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert (a / "rdd.csv").read_bytes() == (b / "rdd.csv").read_bytes()


class TestBpsmCommand:
    def make_data(self, tmp_path):
        out = tmp_path / "sim"
        main(["simulate", "--scenario", "confounded_psm", "--confound-strength", "2",
              "--n-control", "120", "--n-treated", "25", "--seed", "1",
              "--out", str(out)])
        return out / "units.csv"

    def test_full_run_outputs(self, tmp_path):
        data = self.make_data(tmp_path)
        out = tmp_path / "run"
        code = main(["bpsm", "--data", str(data), "--covariates", "x1,x2",
                     "--match", "nn", "--out", str(out), *FAST])
        assert code == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "draws.csv", "matches.csv", "plot_data.csv", "report.json", "summary.json"
        ]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema"] == "boat/1"
        assert summary["subcommand"] == "bpsm"
        assert summary["ate"]["estimand"] == "ate_psm"
        assert set(summary["posterior"]) == {"alpha", "beta_x1", "beta_x2"}
        assert len(summary["sampler"]) == 2
        for chain in summary["sampler"]:
            assert set(chain) == {
                "step_size", "metric_diag", "leapfrog_steps", "tree_depths",
                "saturated", "mean_accept", "divergences", "e_bfmi",
            }
            assert len(chain["metric_diag"]) == 3
            assert sum(chain["tree_depths"]) == 300
        report = json.loads((out / "report.json").read_text())
        n_treated = sum(
            1 for line in data.read_text().splitlines()[1:]
            if line.split(",")[1] == "treatment"
        )
        assert report["n_pairs"] == n_treated
        assert "x1" in report["balance"]
        header = (out / "draws.csv").read_text().splitlines()[0]
        assert header == "alpha,beta_x1,beta_x2"

    def test_deterministic_given_seed(self, tmp_path):
        data = self.make_data(tmp_path)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code = main(["bpsm", "--data", str(data), "--covariates", "x1,x2",
                         "--out", str(out), *FAST])
            assert code == 0
            outs.append(out)
        for artifact in ("draws.csv", "matches.csv", "plot_data.csv", "report.json",
                         "summary.json"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()

    def test_missing_column_errors(self, tmp_path, capsys):
        data = self.make_data(tmp_path)
        out = tmp_path / "run"
        code = main(["bpsm", "--data", str(data), "--covariates", "x1,nope",
                     "--out", str(out), *FAST])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError"
        assert "nope" in err["message"]

    def test_malformed_numeric_errors(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(
            "unit_id,group,y,x1\n0,treatment,oops,0.5\n1,control,1.0,0.2\n"
        )
        code = main(["bpsm", "--data", str(path), "--covariates", "x1",
                     "--out", str(tmp_path / "o"), *FAST])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError"
        assert "row 2" in err["message"]


    @pytest.mark.parametrize(
        "column,value,row",
        [("y", "nan", 3), ("x1", "inf", 2), ("x1", "-Infinity", 3)],
    )
    def test_non_finite_value_errors(self, tmp_path, capsys, column, value, row):
        cells = {2: {"y": "1.5", "x1": "0.5"}, 3: {"y": "1.0", "x1": "0.2"}}
        cells[row][column] = value
        path = tmp_path / "bad.csv"
        path.write_text(
            "unit_id,group,y,x1\n"
            f"0,treatment,{cells[2]['y']},{cells[2]['x1']}\n"
            f"1,control,{cells[3]['y']},{cells[3]['x1']}\n"
        )
        out = tmp_path / "o"
        code = main(["bpsm", "--data", str(path), "--covariates", "x1",
                     "--out", str(out), *FAST])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError"
        assert f"row {row}" in err["message"]
        assert repr(column) in err["message"]
        assert list(out.iterdir()) == []


class TestBdidCommand:
    def make_data(self, tmp_path):
        out = tmp_path / "sim"
        main(["simulate", "--scenario", "seasonal_did", "--seasonal-amplitude", "2",
              "--n-control", "80", "--n-treated", "40", "--seed", "2",
              "--out", str(out)])
        return out / "panel.csv"

    def test_full_run(self, tmp_path):
        data = self.make_data(tmp_path)
        out = tmp_path / "run"
        code = main(["bdid", "--data", str(data), "--out", str(out), *FAST])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        cm = report["cell_means"]
        expected = (cm["post_treatment"] - cm["pre_treatment"]) - (
            cm["post_control"] - cm["pre_control"]
        )
        assert report["ate_did_from_means"] == pytest.approx(expected)
        assert report["parallel_trend"] is None
        assert "parallel_trend_note" in report
        summary = json.loads((out / "summary.json").read_text())
        assert summary["ate"]["estimand"] == "ate_did"
        lines = (out / "plot_data.csv").read_text().splitlines()
        assert lines[0] == "group,period,mean_y"
        assert len(lines) == 5

    def test_unit_missing_period(self, tmp_path, capsys):
        path = tmp_path / "panel.csv"
        path.write_text(
            "unit_id,group,period,y\n"
            "0,control,pre,1.0\n0,control,post,1.5\n"
            "1,treatment,pre,2.0\n"
        )
        code = main(["bdid", "--data", str(path), "--out", str(tmp_path / "o"), *FAST])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError"


class TestBrddCommand:
    def make_data(self, tmp_path):
        out = tmp_path / "sim"
        main(["simulate", "--scenario", "cutoff_rdd", "--true-ate", "-1.2",
              "--n-control", "150", "--n-treated", "150", "--seed", "4",
              "--out", str(out)])
        return out / "rdd.csv"

    def test_full_run(self, tmp_path):
        data = self.make_data(tmp_path)
        out = tmp_path / "run"
        code = main(["brdd", "--data", str(data), "--z-col", "z",
                     "--cutoff", "60", "--out", str(out), *FAST])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["n_rows_fitted"] == 300
        assert {"left_count", "right_count", "p_value", "pass"} <= set(
            report["density_continuity"]
        )
        lines = (out / "plot_data.csv").read_text().splitlines()
        assert lines[0] == "x,y_control,y_treated"
        assert len(lines) == 102
        summary = json.loads((out / "summary.json").read_text())
        assert summary["ate"]["estimand"] == "ate_rdd"

    def test_z_filter_reduces_rows(self, tmp_path):
        data = self.make_data(tmp_path)
        out = tmp_path / "run"
        code = main(["brdd", "--data", str(data), "--z-col", "z",
                     "--z-filter", "z>0.5", "--cutoff", "60",
                     "--out", str(out), *FAST])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        zs = [float(l.split(",")[3]) for l in data.read_text().splitlines()[1:]]
        assert report["n_rows_fitted"] == sum(z > 0.5 for z in zs)

    def test_empty_left_density_window_is_strict_json(self, tmp_path):
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.uniform(0, 40, 100), rng.uniform(60, 100, 100)])
        y = 0.5 * x - 1.2 * (x >= 60) + rng.normal(0, 0.5, 200)
        path = tmp_path / "rdd.csv"
        path.write_text("x,y\n" + "".join(f"{a},{b}\n" for a, b in zip(x, y)))
        out = tmp_path / "run"
        assert main(["brdd", "--data", str(path), "--cutoff", "60",
                     "--out", str(out), *FAST]) == 0

        def reject(const):
            raise ValueError(f"non-standard JSON constant {const}")

        report = json.loads((out / "report.json").read_text(), parse_constant=reject)
        assert report["density_continuity"]["left_count"] == 0
        assert report["density_continuity"]["ratio"] is None

    def test_z_filter_without_z_col(self, tmp_path, capsys):
        data = self.make_data(tmp_path)
        code = main(["brdd", "--data", str(data), "--z-filter", "z>0.5",
                     "--out", str(tmp_path / "o"), *FAST])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError"

    def test_bad_filter_expression(self, tmp_path, capsys):
        data = self.make_data(tmp_path)
        code = main(["brdd", "--data", str(data), "--z-col", "z",
                     "--z-filter", "z !! 3", "--out", str(tmp_path / "o"), *FAST])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"

    def test_missing_file_errors(self, tmp_path, capsys):
        code = main(["brdd", "--data", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path / "o"), *FAST])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] in ("FileNotFoundError", "OSError")
