"""Command-line entry point: pipeline -> model -> report, plus the
decision-flowchart advisor.

Every subcommand writes its artifacts into --out and nothing else:
summary.json (posterior summaries, R-hat, effect estimate), draws.csv,
report.json (assumption checks), plot_data.csv, and matches.csv for the
matching workflow. Failures exit nonzero with an error JSON on stderr.
All JSON outputs carry "schema": "boat/1".
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys

import numpy as np

from . import bdid, bpsm, brdd, simulate
from .effects import naive_ate
from .errors import BoatError, SchemaError
from .nuts import SamplerConfig, summarize
from .pipeline import DesignMatrix, min_max_scale
from .prob_core import PriorSpec

SCHEMA = "boat/1"

RECOMMEND_RANDOMISE = "randomised experiment"
RECOMMEND_BPSM = "BPSM"
RECOMMEND_BRDD = "BRDD"
RECOMMEND_BDID = "BDID"
RECOMMEND_STRATIFY = "stratification"
RECOMMEND_OUT_OF_SCOPE = "out of scope (consider instrumental variables)"


def advise(answers: dict) -> str:
    """Walk the model-selection flowchart.

    Keys: randomizable, covariates_known, multiple_covariates,
    continuous_dominant_covariate, latent_inference_needed. Only the
    answers along the reached branch are required; a missing required
    answer is a validation error.
    """

    def need(key):
        val = answers.get(key)
        if val is None:
            raise ValueError(f"answer required for {key!r} on this branch")
        if not isinstance(val, bool):
            raise ValueError(f"answer for {key!r} must be a boolean")
        return val

    if need("randomizable"):
        return RECOMMEND_RANDOMISE
    if need("covariates_known"):
        if need("multiple_covariates"):
            return RECOMMEND_BPSM
        if need("continuous_dominant_covariate"):
            return RECOMMEND_BRDD
        return RECOMMEND_STRATIFY
    if need("latent_inference_needed"):
        return RECOMMEND_OUT_OF_SCOPE
    return RECOMMEND_BDID


def _read_table(path) -> tuple[list[str], list[dict]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames
        if not header:
            raise SchemaError(f"{path}: empty or headerless CSV")
        rows = list(reader)
    return header, rows


def _column(rows, name, path) -> list[str]:
    try:
        return [row[name] for row in rows]
    except KeyError:
        raise SchemaError(f"{path}: missing column {name!r}") from None


def _floats(values, name, path) -> np.ndarray:
    out = np.empty(len(values))
    for i, v in enumerate(values):
        try:
            out[i] = float(v)
        except (TypeError, ValueError):
            raise SchemaError(
                f"{path}: non-numeric value {v!r} in column {name!r} (row {i + 2})"
            ) from None
        if not np.isfinite(out[i]):
            raise SchemaError(
                f"{path}: non-finite value {v!r} in column {name!r} (row {i + 2})"
            )
    return out


def _treatment_from_group(values, path) -> np.ndarray:
    t = np.empty(len(values), dtype=int)
    for i, v in enumerate(values):
        label = v.strip().lower()
        if label in ("treatment", "treated", "1"):
            t[i] = 1
        elif label in ("control", "0"):
            t[i] = 0
        else:
            raise SchemaError(f"{path}: unknown group label {v!r} (row {i + 2})")
    return t


def _parse_z_filter(expr: str):
    m = re.fullmatch(r"\s*([A-Za-z_]\w*)\s*(>=|<=|>|<)\s*(-?\d+(?:\.\d+)?)\s*", expr)
    if not m:
        raise ValueError(f"cannot parse filter expression: {expr!r}")
    _, op, thresh = m.groups()
    thresh = float(thresh)
    ops = {
        ">": lambda v: v > thresh,
        ">=": lambda v: v >= thresh,
        "<": lambda v: v < thresh,
        "<=": lambda v: v <= thresh,
    }
    return ops[op]


def _sampler_config(args) -> SamplerConfig:
    return SamplerConfig(
        draws=args.draws,
        warmup=args.warmup,
        chains=args.chains,
        seed=args.seed,
    )


def _write_json(path, payload) -> None:
    # serialised before the file is opened, so a value strict JSON cannot
    # hold leaves no partial file behind
    text = json.dumps({"schema": SCHEMA, **payload}, indent=2, default=_jsonable,
                      allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _converged(posterior) -> bool:
    return all(
        d["rhat"] < 1.1
        for k, d in posterior.diagnostics.items()
        if isinstance(d, dict) and "rhat" in d
    )


def _base_summary(args, posterior, ate) -> dict:
    return {
        "subcommand": args.command,
        "seed": args.seed,
        "converged": _converged(posterior),
        "ate": ate.to_dict(),
        "posterior": summarize(posterior),
    }


def _cmd_bpsm(args) -> int:
    _, rows = _read_table(args.data)
    covariates = args.covariates.split(",")
    unit_ids = np.array(_column(rows, "unit_id", args.data))
    t = _treatment_from_group(_column(rows, args.treatment_col, args.data), args.data)
    y = _floats(_column(rows, args.target, args.data), args.target, args.data)
    X = np.column_stack(
        [_floats(_column(rows, c, args.data), c, args.data) for c in covariates]
    )
    X, meta = min_max_scale(X, covariates)
    data = DesignMatrix(
        unit_ids=unit_ids, X=X, t=t, y=y, covariate_names=covariates, scaling_meta=meta
    )

    priors = PriorSpec(alpha_scale=args.alpha_scale, beta_scales=args.beta_scale,
                       noise_prior=None)
    posterior = bpsm.fit_propensity(data, priors, _sampler_config(args))
    scores = bpsm.propensity_scores(posterior, data)
    if args.match == "nn":
        match = bpsm.nn_match_1to1(scores)
    else:
        match = bpsm.caliper_match(scores, args.caliper)
    y_by_id = dict(zip(unit_ids.tolist(), y.tolist()))
    ate = bpsm.ate_psm(match, y_by_id)

    posterior.to_csv(os.path.join(args.out, "draws.csv"))
    match.to_csv(os.path.join(args.out, "matches.csv"))
    _write_json(
        os.path.join(args.out, "report.json"),
        {
            "balance": bpsm.balance_report(match, data),
            "positivity": bpsm.positivity_check(scores, bins=10),
            "naive_ate": naive_ate(t, y).to_dict(),
            "n_pairs": len(match.pairs),
            "n_unmatched_treated": len(match.unmatched_treated),
            "sampler_warnings": posterior.warnings,
        },
    )
    with open(os.path.join(args.out, "plot_data.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit_id", "group", "propensity_score"])
        for uid, grp, s in zip(scores.unit_ids, scores.group, scores.mean_score):
            writer.writerow([uid, grp, repr(float(s))])
    _write_json(os.path.join(args.out, "summary.json"), _base_summary(args, posterior, ate))
    return 0


def _cmd_bdid(args) -> int:
    _, rows = _read_table(args.data)
    periods = [p.strip().lower() for p in _column(rows, args.period_col, args.data)]
    bad = set(periods) - {"pre", "post"}
    if bad:
        raise SchemaError(f"{args.data}: period values must be pre/post, got {sorted(bad)}")
    unit_ids = _column(rows, "unit_id", args.data)
    t = _treatment_from_group(_column(rows, args.treatment_col, args.data), args.data)
    y = _floats(_column(rows, args.target, args.data), args.target, args.data)

    per_unit: dict = {}
    for uid, period, ti, yi in zip(unit_ids, periods, t, y):
        per_unit.setdefault(uid, {})[period] = (ti, yi)
    ids, y_pre, y_post, treated = [], [], [], []
    for uid, obs in per_unit.items():
        if set(obs) != {"pre", "post"}:
            raise SchemaError(f"{args.data}: unit {uid!r} not observed in both periods")
        ids.append(uid)
        y_pre.append(obs["pre"][1])
        y_post.append(obs["post"][1])
        treated.append(bool(obs["pre"][0]))
    panel = bdid.PanelDataset(
        unit_ids=np.array(ids), y_pre=np.array(y_pre), y_post=np.array(y_post),
        treated=np.array(treated),
    )
    priors = PriorSpec(alpha_scale=args.alpha_scale, beta_scales=args.beta_scale)
    posterior = bdid.fit_did(panel, priors, _sampler_config(args))
    ate = bdid.ate_did(posterior)

    treated_arr = np.array(treated)
    cell_means = {
        "pre_control": float(np.mean(np.array(y_pre)[~treated_arr])),
        "post_control": float(np.mean(np.array(y_post)[~treated_arr])),
        "pre_treatment": float(np.mean(np.array(y_pre)[treated_arr])),
        "post_treatment": float(np.mean(np.array(y_post)[treated_arr])),
    }
    posterior.to_csv(os.path.join(args.out, "draws.csv"))
    _write_json(
        os.path.join(args.out, "report.json"),
        {
            "cell_means": cell_means,
            "ate_did_from_means": bdid.ate_did_from_means(
                cell_means["pre_control"], cell_means["post_control"],
                cell_means["pre_treatment"], cell_means["post_treatment"],
            ),
            "parallel_trend": None,
            "parallel_trend_note": (
                "trend check needs >= 2 pre-intervention time points; "
                "the two-period input has one"
            ),
            "sampler_warnings": posterior.warnings,
        },
    )
    with open(os.path.join(args.out, "plot_data.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "period", "mean_y"])
        writer.writerow(["control", "pre", repr(cell_means["pre_control"])])
        writer.writerow(["control", "post", repr(cell_means["post_control"])])
        writer.writerow(["treatment", "pre", repr(cell_means["pre_treatment"])])
        writer.writerow(["treatment", "post", repr(cell_means["post_treatment"])])
    _write_json(os.path.join(args.out, "summary.json"), _base_summary(args, posterior, ate))
    return 0


def _cmd_brdd(args) -> int:
    _, rows = _read_table(args.data)
    x = _floats(_column(rows, args.assignment_col, args.data), args.assignment_col, args.data)
    y = _floats(_column(rows, args.target, args.data), args.target, args.data)
    z = None
    if args.z_col:
        z = _floats(_column(rows, args.z_col, args.data), args.z_col, args.data)
    data = brdd.RddDataset(assignment=x, y=y, cutoff=args.cutoff, z=z)
    if args.z_filter:
        if z is None:
            raise SchemaError("--z-filter requires --z-col")
        data = data.filtered(_parse_z_filter(args.z_filter)(data.z))

    priors = PriorSpec(alpha_scale=args.alpha_scale, beta_scales=args.beta_scale)
    posterior = brdd.fit_rdd(data, priors, _sampler_config(args))
    ate = brdd.ate_rdd(posterior)

    span = data.assignment.max() - data.assignment.min()
    bandwidth = args.bandwidth if args.bandwidth else 0.1 * span
    density = brdd.density_continuity_check(data.assignment, args.cutoff, bandwidth)

    posterior.to_csv(os.path.join(args.out, "draws.csv"))
    _write_json(
        os.path.join(args.out, "report.json"),
        {
            "density_continuity": density,
            "n_rows_fitted": int(posterior.diagnostics["_n_rows"]),
            "sampler_warnings": posterior.warnings,
        },
    )
    xs = np.linspace(data.assignment.min(), data.assignment.max(), 101)
    z_fixed = float(np.mean(data.z)) if data.z is not None else 0.0
    lines = brdd.predict_lines(posterior, xs, args.cutoff, z_fixed)
    with open(os.path.join(args.out, "plot_data.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y_control", "y_treated"])
        for i in range(len(xs)):
            writer.writerow(
                [repr(float(lines["x"][i])), repr(float(lines["y_control"][i])),
                 repr(float(lines["y_treated"][i]))]
            )
    _write_json(os.path.join(args.out, "summary.json"), _base_summary(args, posterior, ate))
    return 0


def _cmd_simulate(args) -> int:
    spec = simulate.ScenarioSpec(
        scenario=args.scenario,
        n_control=args.n_control,
        n_treated=args.n_treated,
        true_ate=args.true_ate,
        confound_strength=args.confound_strength,
        seasonal_amplitude=args.seasonal_amplitude,
        cutoff=args.cutoff,
        slope=args.slope,
        noise_sd=args.noise_sd,
        seed=args.seed,
    )
    if args.scenario == "confounded_psm":
        data, truth = simulate.simulate_confounded(spec)
        simulate.write_design_csv(data, os.path.join(args.out, "units.csv"))
        truth = {"true_ate": truth["true_ate"],
                 "true_propensity": truth["true_propensity"].tolist()}
    elif args.scenario == "seasonal_did":
        panel, truth = simulate.simulate_seasonal_panel(spec)
        simulate.write_panel_csv(panel, os.path.join(args.out, "panel.csv"))
    else:
        data, truth = simulate.simulate_discontinuity(spec)
        simulate.write_rdd_csv(data, os.path.join(args.out, "rdd.csv"))
    _write_json(os.path.join(args.out, "truth.json"), {"scenario": args.scenario, **truth})
    return 0


def _cmd_advise(args) -> int:
    def flag(v):
        return None if v is None else v == "yes"

    answers = {
        "randomizable": flag(args.randomizable),
        "covariates_known": flag(args.covariates_known),
        "multiple_covariates": flag(args.multiple_covariates),
        "continuous_dominant_covariate": flag(args.continuous_dominant),
        "latent_inference_needed": flag(args.latent),
    }
    recommendation = advise(answers)
    print(json.dumps({"schema": SCHEMA, "recommendation": recommendation}))
    return 0


def _add_sampler_flags(p):
    p.add_argument("--draws", type=int, default=3000)
    p.add_argument("--warmup", type=int, default=200)
    p.add_argument("--chains", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha-scale", type=float, default=1.0)
    p.add_argument("--beta-scale", type=float, default=1.0)
    p.add_argument("--out", required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boat", description="Bayesian causal models for observational software tests"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bpsm", help="propensity-score matching workflow")
    p.add_argument("--data", required=True)
    p.add_argument("--covariates", required=True, help="comma-separated column names")
    p.add_argument("--target", default="y")
    p.add_argument("--treatment-col", default="group")
    p.add_argument("--match", choices=["caliper", "nn"], default="caliper")
    p.add_argument("--caliper", type=float, default=bpsm.DEFAULT_CALIPER)
    _add_sampler_flags(p)
    p.set_defaults(func=_cmd_bpsm)

    p = sub.add_parser("bdid", help="difference-in-differences workflow")
    p.add_argument("--data", required=True)
    p.add_argument("--target", default="y")
    p.add_argument("--treatment-col", default="group")
    p.add_argument("--period-col", default="period")
    _add_sampler_flags(p)
    p.set_defaults(func=_cmd_bdid)

    p = sub.add_parser("brdd", help="regression discontinuity workflow")
    p.add_argument("--data", required=True)
    p.add_argument("--target", default="y")
    p.add_argument("--assignment-col", default="x")
    p.add_argument("--z-col", default=None)
    p.add_argument("--z-filter", default=None, help='e.g. "z>90"')
    p.add_argument("--cutoff", type=float, default=60.0)
    p.add_argument("--bandwidth", type=float, default=None,
                   help="density-check window; default 10%% of the x range")
    _add_sampler_flags(p)
    p.set_defaults(func=_cmd_brdd)

    p = sub.add_parser("simulate", help="generate a synthetic study with known truth")
    p.add_argument("--scenario", required=True,
                   choices=["confounded_psm", "seasonal_did", "cutoff_rdd"])
    p.add_argument("--n-control", type=int, default=200)
    p.add_argument("--n-treated", type=int, default=40)
    p.add_argument("--true-ate", type=float, default=-0.3)
    p.add_argument("--confound-strength", type=float, default=0.0)
    p.add_argument("--seasonal-amplitude", type=float, default=0.0)
    p.add_argument("--cutoff", type=float, default=60.0)
    p.add_argument("--slope", type=float, default=0.5)
    p.add_argument("--noise-sd", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("advise", help="model-selection flowchart")
    for name in ("randomizable", "covariates-known", "multiple-covariates",
                 "continuous-dominant", "latent"):
        p.add_argument(f"--{name}", choices=["yes", "no"], default=None)
    p.set_defaults(func=_cmd_advise)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "out", None):
        os.makedirs(args.out, exist_ok=True)
    try:
        return args.func(args)
    except (BoatError, ValueError, OSError) as exc:
        print(
            json.dumps(
                {"schema": SCHEMA, "error": type(exc).__name__, "message": str(exc)}
            ),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
