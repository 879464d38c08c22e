"""Command-line entry point: pipeline -> model -> report, plus the
decision-flowchart advisor.

This is the only module that writes files. A command renders every file
it writes to text in memory first (`_json`, `_csv`); then `_write` creates
--out and writes them all, in one place. So a run that fails, while reading
its input, fitting or rendering, leaves no --out directory.

`boat bpsm`, `boat bdid` and `boat brdd` share one command function,
`_cmd_fit`. It reads --data through one reader, `_Table`, builds the fit's
`PriorSpec` and `SamplerConfig` once and hands all three to the design's
function, which returns (posterior, ate, report, plot_rows, extra_files):
the report's assumption checks, the plot_data.csv rows (header first) and
{file name: text} for design-only files (matches.csv for bpsm). `_cmd_fit`
writes draws.csv, the extra files, report.json, plot_data.csv and
summary.json (posterior summaries, R-hat, effect estimate, per-chain sampler
statistics) into --out and nothing else. `boat simulate` writes one
scenario's CSV in the layout its design's reader reads (each row builder
sits next to that reader) and its truth beside it, as units.csv and
units_truth.json, say. The fit and simulate flags are the fields of
`SamplerConfig`, `PriorSpec` and `ScenarioSpec` with their defaults
(`_add_fields`), except --draws 3000 and `boat brdd`'s prior scales,
`brdd.default_rdd_priors()`. Failures exit nonzero with an error JSON on
stderr. All JSON outputs carry "schema": "boat/1".
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import operator
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


class _Table:
    """The --data CSV. Every error names the file; a cell error also names
    its column and its row (the header is row 1)."""

    def __init__(self, path):
        self.path = path
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if not reader.fieldnames:
                raise SchemaError(f"{path}: empty or headerless CSV")
            self.rows = list(reader)
        if not self.rows:
            raise SchemaError(f"{path}: no data rows")
        # csv.DictReader keeps the cells beyond the header under the key None
        for i, row in enumerate(self.rows):
            if None in row:
                raise SchemaError(f"{path}: extra cells {row[None]!r} beyond the header "
                                  f"(row {i + 2})")

    def column(self, name) -> list[str]:
        try:
            values = [row[name] for row in self.rows]
        except KeyError:
            raise SchemaError(f"{self.path}: missing column {name!r}") from None
        # csv.DictReader fills the cells a short row lacks with None
        if None in values:
            raise SchemaError(f"{self.path}: missing value in column {name!r} "
                              f"(row {values.index(None) + 2})")
        return values

    def floats(self, name) -> np.ndarray:
        values = self.column(name)
        out = np.empty(len(values))
        for i, v in enumerate(values):
            try:
                out[i] = float(v)
            except (TypeError, ValueError):
                raise SchemaError(f"{self.path}: non-numeric value {v!r} in column "
                                  f"{name!r} (row {i + 2})") from None
            if not np.isfinite(out[i]):
                raise SchemaError(f"{self.path}: non-finite value {v!r} in column "
                                  f"{name!r} (row {i + 2})")
        return out

    def treatment(self, name) -> np.ndarray:
        values = self.column(name)
        t = np.empty(len(values), dtype=int)
        for i, v in enumerate(values):
            label = v.strip().lower()
            if label in ("treatment", "treated", "1"):
                t[i] = 1
            elif label in ("control", "0"):
                t[i] = 0
            else:
                raise SchemaError(f"{self.path}: unknown group label {v!r} (row {i + 2})")
        return t


def _parse_z_filter(expr: str, z_col: str):
    m = re.fullmatch(r"\s*([A-Za-z_]\w*)\s*(>=|<=|>|<)\s*(-?\d+(?:\.\d+)?)\s*", expr)
    if not m:
        raise ValueError(f"cannot parse filter expression: {expr!r}")
    name, op, thresh = m.groups()
    if name != z_col:
        raise SchemaError(f"--z-filter {expr!r} names column {name!r}, not the --z-col "
                          f"column {z_col!r}")
    compare = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}[op]
    return lambda v: compare(v, float(thresh))


def _json(payload) -> str:
    """Strict JSON: a NaN or an infinity raises ValueError."""
    return json.dumps({"schema": SCHEMA, **payload}, indent=2, default=np.ndarray.tolist,
                      allow_nan=False) + "\n"


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _write(out, files) -> None:
    """Create ``out`` and write {file name: text} into it."""
    os.makedirs(out, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(out, name), "w", newline="", encoding="utf-8") as fh:
            fh.write(text)


def _converged(posterior_summary) -> bool:
    """Every R-hat below 1.1; a null (non-finite) R-hat is not converged."""
    return all(
        rec["rhat"] is not None and rec["rhat"] < 1.1
        for rec in posterior_summary.values()
    )


_GROUPS = ("control", "treatment")  # by treatment indicator


def _units_rows(data: DesignMatrix) -> list:
    """A unit-level study as `_fit_bpsm` reads it: unit_id, group, y, covariates."""
    return [["unit_id", "group", "y", *data.covariate_names]] + [
        [uid, _GROUPS[ti], repr(yi), *map(repr, xi)]
        for uid, ti, yi, xi in zip(data.unit_ids.tolist(), data.t.tolist(), data.y.tolist(),
                                   data.X.tolist())
    ]


def _fit_bpsm(args, table: _Table, priors: PriorSpec, cfg: SamplerConfig):
    if args.match == "caliper":
        bpsm.check_caliper(args.caliper)  # before the fit, which takes most of a run
    covariates = args.covariates.split(",")
    unit_ids = table.column("unit_id")
    t = table.treatment(args.treatment_col)
    y = table.floats(args.target)
    X = np.column_stack([table.floats(c) for c in covariates])
    first_row: dict = {}
    for row, uid in enumerate(unit_ids, start=2):
        if first_row.setdefault(uid, row) != row:
            raise SchemaError(f"{table.path}: unit {uid!r} has a second row "
                              f"(rows {first_row[uid]} and {row})")
    X = min_max_scale(X, covariates)
    data = DesignMatrix(unit_ids=unit_ids, X=X, t=t, y=y, covariate_names=covariates)

    posterior = bpsm.fit_propensity(data, priors, cfg)
    scores = bpsm.propensity_scores(posterior, data)
    if args.match == "nn":
        match = bpsm.nn_match_1to1(scores)
    else:
        match = bpsm.caliper_match(scores, args.caliper)
    y_by_id = dict(zip(unit_ids, y.tolist()))
    ate = bpsm.ate_psm(match, y_by_id)

    report = {
        "balance": bpsm.balance_report(match, data),
        "positivity": bpsm.positivity_check(scores),
        "naive_ate": naive_ate(t, y).to_dict(),
        "n_pairs": len(match.pairs),
        "n_unmatched_treated": len(match.unmatched_treated),
    }
    plot_rows = [["unit_id", "group", "propensity_score"]] + [
        [uid, _GROUPS[ti], repr(float(s))]
        for uid, ti, s in zip(scores.unit_ids, scores.treated.tolist(), scores.mean_score)
    ]
    matches = "treated_id,control_id,distance\n" + "".join(
        f"{tid},{cid},{dist!r}\n" for tid, cid, dist in match.pairs)
    return posterior, ate, report, plot_rows, {"matches.csv": matches}


def _panel_rows(panel: bdid.PanelDataset) -> list:
    """A panel as `_fit_bdid` reads it, in long format: unit_id, group,
    period, y; every pre row, then every post row."""
    return [["unit_id", "group", "period", "y"]] + [
        [uid, _GROUPS[ti], period, repr(yi)]
        for period, ys in (("pre", panel.y_pre), ("post", panel.y_post))
        for uid, ti, yi in zip(panel.unit_ids.tolist(), panel.treated.tolist(), ys.tolist())
    ]


def _fit_bdid(args, table: _Table, priors: PriorSpec, cfg: SamplerConfig):
    periods = [p.strip().lower() for p in table.column(args.period_col)]
    bad = set(periods) - {"pre", "post"}
    if bad:
        raise SchemaError(f"{table.path}: period values must be pre/post, got {sorted(bad)}")
    unit_ids = table.column("unit_id")
    t = table.treatment(args.treatment_col)
    y = table.floats(args.target)

    per_unit: dict = {}
    for row, (uid, period, ti, yi) in enumerate(zip(unit_ids, periods, t, y), start=2):
        obs = per_unit.setdefault(uid, {})
        if period in obs:
            raise SchemaError(f"{table.path}: unit {uid!r} has a second {period} row "
                              f"(row {row})")
        if any(tj != ti for tj, _ in obs.values()):
            raise SchemaError(f"{table.path}: unit {uid!r} changes group between periods "
                              f"(row {row})")
        obs[period] = (ti, yi)
    for uid, obs in per_unit.items():
        if set(obs) != {"pre", "post"}:
            raise SchemaError(f"{table.path}: unit {uid!r} not observed in both periods")
    units = list(per_unit.values())
    panel = bdid.PanelDataset(
        unit_ids=np.array(list(per_unit)),
        y_pre=np.array([u["pre"][1] for u in units]),
        y_post=np.array([u["post"][1] for u in units]),
        treated=np.array([bool(u["pre"][0]) for u in units]),
    )
    posterior = bdid.fit_did(panel, priors, cfg)
    ate = bdid.ate_did(posterior)

    # key order: pre_control, post_control, pre_treatment, post_treatment
    cell_means = {
        f"{period}_{group}": float(np.mean(ys[mask]))
        for group, mask in (("control", ~panel.treated), ("treatment", panel.treated))
        for period, ys in (("pre", panel.y_pre), ("post", panel.y_post))
    }
    report = {
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
    }
    plot_rows = [["group", "period", "mean_y"]] + [
        [group, period, repr(cell_means[f"{period}_{group}"])]
        for group in ("control", "treatment") for period in ("pre", "post")
    ]
    return posterior, ate, report, plot_rows, {}


def _rdd_rows(data: brdd.RddDataset) -> list:
    """A discontinuity study as `_fit_brdd` reads it: unit_id (the row
    index), x, y and z when given."""
    cols = [data.assignment, data.y] + ([data.z] if data.z is not None else [])
    return [["unit_id", "x", "y", "z"][:len(cols) + 1]] + [
        [i, *map(repr, row)] for i, row in enumerate(zip(*(c.tolist() for c in cols)))
    ]


def _fit_brdd(args, table: _Table, priors: PriorSpec, cfg: SamplerConfig):
    x = table.floats(args.assignment_col)
    y = table.floats(args.target)
    z = table.floats(args.z_col) if args.z_col else None
    if args.z_filter:
        if z is None:
            raise SchemaError("--z-filter requires --z-col")
        keep = _parse_z_filter(args.z_filter, args.z_col)(z)
        if not keep.any():
            raise SchemaError(f"--z-filter {args.z_filter!r} keeps no rows")
        x, y, z = x[keep], y[keep], z[keep]
    data = brdd.RddDataset(assignment=x, y=y, cutoff=args.cutoff, z=z)
    data.check_both_sides()  # the data's defect, before the bandwidth it would trip
    bandwidth = args.bandwidth
    if bandwidth is None:
        bandwidth = 0.1 * (data.assignment.max() - data.assignment.min())
    # before the fit, which takes most of a run, so a bad --bandwidth fails fast
    density = brdd.density_continuity_check(data.assignment, args.cutoff, bandwidth)

    posterior = brdd.fit_rdd(data, priors, cfg)
    ate = brdd.ate_rdd(posterior)

    report = {"density_continuity": density, "n_rows_fitted": len(data.y)}
    xs = np.linspace(data.assignment.min(), data.assignment.max(), 101)
    z_fixed = float(np.mean(data.z)) if data.z is not None else 0.0
    lines = brdd.predict_lines(posterior, xs, args.cutoff, z_fixed)
    plot_rows = [["x", "y_control", "y_treated"]] + [
        [repr(float(v)) for v in row]
        for row in zip(lines["x"], lines["y_control"], lines["y_treated"])
    ]
    return posterior, ate, report, plot_rows, {}


# The design functions look up what they call on the bpsm/bdid/brdd modules at
# call time, so a function replaced there (by a tracer, say) is the one that runs.
_DESIGNS = {"bpsm": _fit_bpsm, "bdid": _fit_bdid, "brdd": _fit_brdd}


def _cmd_fit(args) -> int:
    posterior, ate, report, plot_rows, extra_files = _DESIGNS[args.command](
        args, _Table(args.data), _spec(PriorSpec, args), _spec(SamplerConfig, args))
    draws = io.StringIO()  # one row per chain-iteration, one column per parameter
    np.savetxt(draws, posterior.draws.reshape(-1, len(posterior.param_names)),
               delimiter=",", header=",".join(posterior.param_names), comments="")
    posterior_summary = summarize(posterior)
    _write(args.out, {
        "draws.csv": draws.getvalue(),
        **extra_files,
        "report.json": _json({**report, "sampler_warnings": posterior.warnings}),
        "plot_data.csv": _csv(plot_rows),
        "summary.json": _json({
            "subcommand": args.command,
            "seed": args.seed,
            "converged": _converged(posterior_summary),
            "ate": ate.to_dict(),
            "posterior": posterior_summary,
            "sampler": [dataclasses.asdict(stats) for stats in posterior.chain_stats],
        }),
    })
    return 0


# scenario -> (simulate function, row builder, CSV stem)
_SCENARIOS = {
    "confounded_psm": (simulate.simulate_confounded, _units_rows, "units"),
    "seasonal_did": (simulate.simulate_seasonal_panel, _panel_rows, "panel"),
    "cutoff_rdd": (simulate.simulate_discontinuity, _rdd_rows, "rdd"),
}


def _cmd_simulate(args) -> int:
    simulate_fn, rows, stem = _SCENARIOS[args.scenario]
    data, truth = simulate_fn(_spec(simulate.ScenarioSpec, args))
    _write(args.out, {f"{stem}.csv": _csv(rows(data)),
                      f"{stem}_truth.json": _json({"scenario": args.scenario, **truth})})
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


def _add_fields(parser, spec_type) -> None:
    """One flag per field of the dataclass ``spec_type``, of its default's
    type and with its default: ``noise_sd`` becomes ``--noise-sd``."""
    for f in dataclasses.fields(spec_type):
        parser.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default),
                            default=f.default)


def _spec(spec_type, args):
    """The dataclass ``spec_type`` built from the flags `_add_fields` added."""
    return spec_type(**{f.name: getattr(args, f.name) for f in dataclasses.fields(spec_type)})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boat", description="Bayesian causal models for observational software tests"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = {}
    for command, help_text in (("bpsm", "propensity-score matching workflow"),
                               ("bdid", "difference-in-differences workflow"),
                               ("brdd", "regression discontinuity workflow")):
        p = fit[command] = sub.add_parser(command, help=help_text)
        p.add_argument("--data", required=True)
        p.add_argument("--target", default="y")
        if command != "brdd":
            p.add_argument("--treatment-col", default="group")
        _add_fields(p, SamplerConfig)
        _add_fields(p, PriorSpec)
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_fit, draws=3000)

    p = fit["bpsm"]
    p.add_argument("--covariates", required=True, help="comma-separated column names")
    p.add_argument("--match", choices=["caliper", "nn"], default="caliper")
    p.add_argument("--caliper", type=float, default=bpsm.DEFAULT_CALIPER)

    fit["bdid"].add_argument("--period-col", default="period")

    p = fit["brdd"]
    p.set_defaults(**dataclasses.asdict(brdd.default_rdd_priors()))
    p.add_argument("--assignment-col", default="x")
    p.add_argument("--z-col", default=None)
    p.add_argument("--z-filter", default=None, help='e.g. "z>90"')
    p.add_argument("--cutoff", type=float, default=simulate.ScenarioSpec.cutoff)
    p.add_argument("--bandwidth", type=float, default=None,
                   help="density-check window; default 10%% of the x range")

    p = sub.add_parser("simulate", help="generate a synthetic study with known truth")
    p.add_argument("--scenario", required=True, choices=list(_SCENARIOS))
    _add_fields(p, simulate.ScenarioSpec)
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
