import csv
import dataclasses
import json

import numpy as np
import pytest

from boat import bdid, bpsm, brdd, cli
from boat.cli import (
    RECOMMEND_BDID,
    RECOMMEND_BPSM,
    RECOMMEND_BRDD,
    RECOMMEND_OUT_OF_SCOPE,
    RECOMMEND_RANDOMISE,
    RECOMMEND_STRATIFY,
    _converged,
    advise,
    build_parser,
    main,
)
from boat.nuts import SamplerConfig
from boat.prob_core import PriorSpec
from boat.simulate import ScenarioSpec

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
        assert sorted(p.name for p in out.iterdir()) == ["units.csv", "units_truth.json"]
        truth = json.loads((out / "units_truth.json").read_text())
        assert truth["schema"] == "boat/1"
        assert truth["true_ate"] == -0.3
        assert len(truth["true_propensity"]) == 240

    def test_two_scenarios_keep_both_truths(self, tmp_path):
        out = tmp_path / "sim"
        for scenario in ("confounded_psm", "seasonal_did"):
            assert main(["simulate", "--scenario", scenario, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "panel.csv", "panel_truth.json", "units.csv", "units_truth.json"]
        assert json.loads((out / "units_truth.json").read_text())["scenario"] == "confounded_psm"
        assert json.loads((out / "panel_truth.json").read_text())["scenario"] == "seasonal_did"

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["simulate", "--scenario", "cutoff_rdd", "--seed", "9"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert (a / "rdd.csv").read_bytes() == (b / "rdd.csv").read_bytes()

    @pytest.mark.parametrize("flag, value", [("--cutoff", "inf"), ("--noise-sd", "nan"),
                                             ("--slope", "-inf")])
    def test_non_finite_setting_errors(self, tmp_path, capsys, flag, value):
        out = tmp_path / "sim"
        code = main(["simulate", "--scenario", "cutoff_rdd", f"{flag}={value}", "--out", str(out)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        field = flag[2:].replace("-", "_")
        assert err["message"] == f"{field} must be finite, got {float(value)!r}"
        assert not out.exists()

    def test_unmixable_assignment_errors(self, tmp_path, capsys):
        # a propensity of ~0 or ~1 for every unit: no draw of t holds both groups
        out = tmp_path / "sim"
        code = main(["simulate", "--scenario", "confounded_psm", "--n-control", "2",
                     "--n-treated", "2", "--confound-strength", "1e6", "--seed", "4",
                     "--out", str(out)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"] == (
            "could not draw a mixed treatment assignment in 1000 tries at n_control=2, "
            "n_treated=2, confound_strength=1000000.0, seed=4")
        assert not out.exists()


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
                "step_size", "metric_diag", "warmup_leapfrog_steps", "leapfrog_steps",
                "tree_depths",
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

    def test_nan_caliper_errors(self, tmp_path, capsys, monkeypatch):
        data = self.make_data(tmp_path)
        out = tmp_path / "run"
        fits = []
        monkeypatch.setattr(bpsm, "fit_propensity", lambda *args: fits.append(args))
        code = main(["bpsm", "--data", str(data), "--covariates", "x1,x2",
                     "--match", "caliper", "--caliper", "nan", "--out", str(out), *FAST])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"] == "caliper must be > 0, got nan"
        assert fits == []
        assert not out.exists()

    def test_nan_beta_scale_errors(self, tmp_path, capsys, monkeypatch):
        data = self.make_data(tmp_path)
        out = tmp_path / "run"
        fits = []
        monkeypatch.setattr(bpsm, "fit_propensity", lambda *args: fits.append(args))
        code = main(["bpsm", "--data", str(data), "--covariates", "x1,x2",
                     "--beta-scale", "nan", "--out", str(out), *FAST])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"] == "beta_scale must be finite and > 0, got nan"
        assert fits == []
        assert not out.exists()

    def test_repeated_covariate_errors_before_the_fit(self, tmp_path, capsys, monkeypatch):
        data = self.make_data(tmp_path)
        out = tmp_path / "run"
        fits = []
        monkeypatch.setattr(bpsm, "fit_propensity", lambda *args: fits.append(args))
        code = main(["bpsm", "--data", str(data), "--covariates", "x1,x1",
                     "--out", str(out), *FAST])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ContractError"
        assert err["message"] == "covariate_names: 'x1' appears more than once"
        assert fits == []
        assert not out.exists()

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
        assert not out.exists()

    def test_extra_cells_error(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text("unit_id,group,y\n1,control,1.0\n0,treatment,1.5,7,8\n")
        out = tmp_path / "o"
        code = main(["bpsm", "--data", str(path), "--covariates", "y", "--out", str(out),
                     *FAST])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError"
        assert err["message"] == f"{path}: extra cells ['7', '8'] beyond the header (row 3)"
        assert not out.exists()


    def test_duplicate_unit_id_error(self, tmp_path, capsys):
        # a second row for an id would give a treated unit a control row's
        # outcome and covariates: it is rejected before the fit
        with open(self.make_data(tmp_path), newline="") as fh:
            rows = list(csv.reader(fh))
        first = next(i for i, r in enumerate(rows[1:], start=2) if r[rows[0].index("group")] == "treatment")
        uid = rows[first - 1][0]
        rows[-1][0] = uid
        path = tmp_path / "units.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        out = tmp_path / "o"
        code = main(["bpsm", "--data", str(path), "--covariates", "x1,x2", "--match", "nn",
                     "--out", str(out), *FAST])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError"
        assert err["message"] == (f"{path}: unit {uid!r} has a second row "
                                  f"(rows {first} and {len(rows)})")
        assert not out.exists()


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

    @pytest.mark.parametrize("edit, message", [
        pytest.param("duplicate", "unit '5' has a second pre row", id="duplicate-pre"),
        pytest.param("relabel", "unit '5' changes group between periods", id="relabelled"),
    ])
    def test_ambiguous_unit_rows_error(self, tmp_path, capsys, edit, message):
        # a second pre row would replace the first, and a relabelled unit
        # would take its pre row's group: both are rejected instead
        with open(self.make_data(tmp_path), newline="") as fh:
            rows = list(csv.reader(fh))
        pre = next(r for r in rows if r[0] == "5" and r[2] == "pre")
        if edit == "duplicate":
            rows.append([*pre[:3], "999"])
            at = len(rows)
        else:
            at = next(i for i, r in enumerate(rows) if r[0] == "5" and r[2] == "post") + 1
            rows[at - 1][1] = {"control": "treatment", "treatment": "control"}[pre[1]]
        path = tmp_path / "panel.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        out = tmp_path / "o"
        code = main(["bdid", "--data", str(path), "--out", str(out), *FAST])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError"
        assert err["message"] == f"{path}: {message} (row {at})"
        assert not out.exists()


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

    def test_draws_equal_fit_rdd(self, tmp_path):
        # the CLI fits under fit_rdd's own default prior, default_rdd_priors()
        data = self.make_data(tmp_path)
        out = tmp_path / "run"
        assert main(["brdd", "--data", str(data), "--z-col", "z", "--out", str(out),
                     *FAST]) == 0
        _, x, y, z = np.loadtxt(data, delimiter=",", skiprows=1, unpack=True)
        posterior = brdd.fit_rdd(brdd.RddDataset(assignment=x, y=y, cutoff=60.0, z=z),
                                 cfg=SamplerConfig(draws=400, warmup=100, chains=2, seed=0))
        got = np.loadtxt(out / "draws.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(got, posterior.draws.reshape(got.shape))

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

    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    def test_bad_bandwidth_errors_before_the_fit(self, tmp_path, capsys, monkeypatch, value):
        data = self.make_data(tmp_path)
        out = tmp_path / "o"
        fits = []
        monkeypatch.setattr(brdd, "fit_rdd", lambda *args: fits.append(args))
        code = main(["brdd", "--data", str(data), "--bandwidth", value, "--out", str(out),
                     *FAST])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"] == f"bandwidth must be > 0, got {float(value)}"
        assert fits == []
        assert not out.exists()

    @pytest.mark.parametrize("x, flags", [
        ("50", []),
        ("70", []),
        ("50", ["--bandwidth", "5"]),
        (None, ["--z-col", "z", "--z-filter", "z>={top}"]),
    ], ids=["left", "right", "left-bandwidth", "z-filter-keeps-one"])
    def test_one_sided_data_errors_before_the_bandwidth(self, tmp_path, capsys, monkeypatch,
                                                        x, flags):
        # the default bandwidth of one x value is 0, and a window away from
        # it holds no rows: neither is the defect, which is the data's
        data = self.make_data(tmp_path)
        header, *rows = [line.split(",") for line in data.read_text().splitlines()]
        if x is not None:
            for row in rows:
                row[1] = x
            data.write_text("\n".join(map(",".join, [header, *rows])) + "\n")
        top = max(rows, key=lambda row: float(row[3]))[3]
        out = tmp_path / "o"
        fits = []
        monkeypatch.setattr(brdd, "fit_rdd", lambda *args: fits.append(args))
        code = main(["brdd", "--data", str(data), *(f.format(top=top) for f in flags),
                     "--out", str(out), *FAST])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "EstimationError"
        assert err["message"] == ("all observations fall on one side of the cutoff; "
                                  "effect not identified")
        assert fits == []
        assert not out.exists()

    def test_z_filter_without_z_col(self, tmp_path, capsys):
        data = self.make_data(tmp_path)
        code = main(["brdd", "--data", str(data), "--z-filter", "z>0.5",
                     "--out", str(tmp_path / "o"), *FAST])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError"

    def test_z_filter_on_another_column(self, tmp_path, capsys, monkeypatch):
        data = self.make_data(tmp_path)
        out = tmp_path / "o"
        fits = []
        monkeypatch.setattr(brdd, "fit_rdd", lambda *args: fits.append(args))
        code = main(["brdd", "--data", str(data), "--z-col", "z", "--z-filter", "y>0.5",
                     "--out", str(out), *FAST])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError"
        assert err["message"] == ("--z-filter 'y>0.5' names column 'y', not the --z-col "
                                  "column 'z'")
        assert fits == []
        assert not out.exists()

    def test_z_filter_keeping_no_rows(self, tmp_path, capsys, monkeypatch):
        data = self.make_data(tmp_path)
        out = tmp_path / "o"
        fits = []
        monkeypatch.setattr(brdd, "fit_rdd", lambda *args: fits.append(args))
        code = main(["brdd", "--data", str(data), "--z-col", "z", "--z-filter", "z>5",
                     "--out", str(out), *FAST])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError"
        assert err["message"] == "--z-filter 'z>5' keeps no rows"
        assert fits == []
        assert not out.exists()

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


class TestFitCommand:
    """What `boat bpsm`, `boat bdid` and `boat brdd` share: one command
    function, one reader and one parser table."""

    MAKE_DATA = {"bpsm": TestBpsmCommand, "bdid": TestBdidCommand, "brdd": TestBrddCommand}

    @pytest.mark.parametrize(
        "argv,artifacts",
        [
            pytest.param(["bpsm", "--covariates", "x1,x2", "--match", "nn"],
                         ["draws.csv", "matches.csv", "plot_data.csv", "report.json",
                          "summary.json"], id="bpsm-nn"),
            pytest.param(["bpsm", "--covariates", "x1,x2", "--match", "caliper"],
                         ["draws.csv", "matches.csv", "plot_data.csv", "report.json",
                          "summary.json"], id="bpsm-caliper"),
            pytest.param(["bdid"], ["draws.csv", "plot_data.csv", "report.json",
                                    "summary.json"], id="bdid"),
            pytest.param(["brdd", "--z-col", "z", "--z-filter", "z>0.3", "--bandwidth", "4"],
                         ["draws.csv", "plot_data.csv", "report.json", "summary.json"],
                         id="brdd-z-filter"),
        ],
    )
    def test_deterministic_given_seed(self, tmp_path, argv, artifacts):
        data = self.MAKE_DATA[argv[0]]().make_data(tmp_path)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main([*argv, "--data", str(data), "--out", str(out), *FAST]) == 0
            assert sorted(p.name for p in out.iterdir()) == artifacts
            outs.append(out)
        for artifact in artifacts:
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()

    @pytest.mark.parametrize(
        "argv,column",
        [pytest.param(["bdid"], "group", id="bdid-group"),
         pytest.param(["bdid"], "period", id="bdid-period"),
         pytest.param(["bpsm", "--covariates", "x1,x2"], "group", id="bpsm-group")],
    )
    def test_missing_cell_errors(self, tmp_path, capsys, argv, column):
        # `column` moved last; an extra last row is a valid one without that cell
        with open(self.MAKE_DATA[argv[0]]().make_data(tmp_path), newline="") as fh:
            rows = list(csv.reader(fh))
        at = rows[0].index(column)
        rows = [[*r[:at], *r[at + 1:], r[at]] for r in rows]
        rows.append(rows[1][:-1])
        path = tmp_path / "short.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        out = tmp_path / "o"
        code = main([*argv, "--data", str(path), "--out", str(out), *FAST])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError"
        assert f"(row {len(rows)})" in err["message"]
        assert repr(column) in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        pytest.param(["bpsm", "--covariates", "x1"], id="bpsm"),
        pytest.param(["bdid"], id="bdid"),
        pytest.param(["brdd"], id="brdd"),
    ])
    def test_header_without_rows_errors_before_the_fit(self, tmp_path, capsys, argv):
        data = self.MAKE_DATA[argv[0]]().make_data(tmp_path)
        path = tmp_path / "header_only.csv"
        path.write_text(data.read_text().splitlines()[0] + "\n")
        out = tmp_path / "o"
        assert main([*argv, "--data", str(path), "--out", str(out), *FAST]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError"
        assert err["message"] == f"{path}: no data rows"
        assert not out.exists()

    @pytest.mark.parametrize("case", ["huge-y", "nan-in-report"])
    def test_failure_while_rendering_leaves_no_out(self, tmp_path, capsys, monkeypatch, case):
        # the fit succeeds; a value strict JSON cannot hold then fails the run
        # before any file is written
        with open(TestBpsmCommand().make_data(tmp_path), newline="") as fh:
            rows = list(csv.reader(fh))
        if case == "huge-y":
            rows[1][rows[0].index("y")] = "1e308"
        else:
            monkeypatch.setattr(bpsm, "balance_report", lambda *args: {"x1": float("nan")})
        path = tmp_path / "units.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        out = tmp_path / "o"
        code = main(["bpsm", "--data", str(path), "--covariates", "x1,x2", "--match", "nn",
                     "--draws", "40", "--warmup", "10", "--out", str(out)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"].startswith("Out of range float values are not JSON compliant")
        assert not out.exists()

    def test_parser_flags_and_defaults(self):
        sampler = {"draws": 3000, "warmup": 200, "chains": 2, "seed": 0,
                   "alpha_scale": 1.0, "beta_scale": 1.0, "out": "o"}
        expected = {
            ("bpsm", "--covariates", "x1"): {
                "command": "bpsm", "data": "d.csv", "covariates": "x1", "target": "y",
                "treatment_col": "group", "match": "caliper", "caliper": 0.05, **sampler},
            ("bdid",): {
                "command": "bdid", "data": "d.csv", "target": "y", "treatment_col": "group",
                "period_col": "period", **sampler},
            ("brdd",): {
                "command": "brdd", "data": "d.csv", "target": "y", "assignment_col": "x",
                "z_col": None, "z_filter": None, "cutoff": 60.0, "bandwidth": None,
                **sampler, "beta_scale": 0.5},
        }
        for argv, want in expected.items():
            args = vars(build_parser().parse_args([*argv, "--data", "d.csv", "--out", "o"]))
            assert args.pop("func").__name__ == "_cmd_fit"
            assert args == want
        for argv in (["bpsm", "--covariates", "x1", "--out", "o"],
                     ["bpsm", "--data", "d.csv", "--out", "o"],
                     ["bdid", "--data", "d.csv"],
                     ["bpsm", "--data", "d.csv", "--covariates", "x1", "--out", "o",
                      "--match", "optimal"],
                     ["brdd", "--data", "d.csv", "--out", "o", "--treatment-col", "g"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)


class TestFlagsMirrorSpecs:
    """The fit and simulate flags are the fields of SamplerConfig, PriorSpec
    and ScenarioSpec, with the library's defaults."""

    FIT = {"bpsm": ["bpsm", "--covariates", "x1"], "bdid": ["bdid"], "brdd": ["brdd"]}

    def fit_defaults(self, command):
        return vars(build_parser().parse_args(
            [*self.FIT[command], "--data", "d.csv", "--out", "o"]))

    def test_simulate_defaults(self):
        args = vars(build_parser().parse_args(["simulate", "--scenario", "cutoff_rdd",
                                               "--out", "o"]))
        want = dataclasses.asdict(ScenarioSpec())
        assert {name: args[name] for name in want} == want

    @pytest.mark.parametrize("command", ["bpsm", "bdid", "brdd"])
    def test_fit_sampler_defaults(self, command):
        args = self.fit_defaults(command)
        want = {**dataclasses.asdict(SamplerConfig()), "draws": 3000}
        assert {name: args[name] for name in want} == want

    @pytest.mark.parametrize("command", ["bpsm", "bdid", "brdd"])
    def test_fit_prior_defaults(self, command):
        args = self.fit_defaults(command)
        priors = brdd.default_rdd_priors() if command == "brdd" else PriorSpec()
        want = dataclasses.asdict(priors)
        assert {name: args[name] for name in want} == want

    def test_simulate_passes_every_flag(self, tmp_path, monkeypatch):
        specs = []
        simulate_fn, rows, stem = cli._SCENARIOS["cutoff_rdd"]
        monkeypatch.setitem(cli._SCENARIOS, "cutoff_rdd",
                            (lambda spec: specs.append(spec) or simulate_fn(spec), rows, stem))
        assert main(["simulate", "--scenario", "cutoff_rdd", "--n-control", "7",
                     "--n-treated", "9", "--true-ate", "1.25", "--confound-strength", "0.75",
                     "--seasonal-amplitude", "2.5", "--cutoff", "12.5", "--slope=-0.25",
                     "--noise-sd", "1.5", "--seed", "42", "--out", str(tmp_path / "sim")]) == 0
        assert specs == [ScenarioSpec(n_control=7, n_treated=9, true_ate=1.25,
                                      confound_strength=0.75, seasonal_amplitude=2.5,
                                      cutoff=12.5, slope=-0.25, noise_sd=1.5, seed=42)]

    @pytest.mark.parametrize("module, fit", [(bpsm, "fit_propensity"), (bdid, "fit_did"),
                                             (brdd, "fit_rdd")], ids=["bpsm", "bdid", "brdd"])
    def test_fit_passes_every_flag(self, tmp_path, capsys, monkeypatch, module, fit):
        calls = []

        def stop(data, priors, cfg):
            calls.append((priors, cfg))
            raise ValueError("stop")

        monkeypatch.setattr(module, fit, stop)
        command = module.__name__.rpartition(".")[2]
        data = TestFitCommand.MAKE_DATA[command]().make_data(tmp_path)
        assert main([*self.FIT[command], "--data", str(data), "--draws", "50", "--warmup",
                     "20", "--chains", "3", "--seed", "7", "--alpha-scale", "2.5",
                     "--beta-scale", "0.25", "--out", str(tmp_path / "o")]) == 1
        assert json.loads(capsys.readouterr().err)["message"] == "stop"
        assert calls == [(PriorSpec(alpha_scale=2.5, beta_scale=0.25),
                          SamplerConfig(draws=50, warmup=20, chains=3, seed=7))]
