"""Layered benchmark for boat.

Run from the repository root:

    python3 perfbench/run.py --workload cli_studies --seed 1 --seconds 40 --trace 0

Workloads (see README.md): cli_studies, large_panel, fleet_psm. One
process and one caller run the operations one after another; sampler
chains run in this process. A run builds its inputs from --seed, then
repeats whole rounds of the workload's operations while --seconds allow,
and checks every output against computations made apart from boat.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end metrics; with
--trace 1 they are the per-layer metrics, taken from spans around boat's
public functions. The line before it holds the workload's own figures
and the SHA-256 of every fit's draws.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import warnings
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracles  # noqa: E402
import trace  # noqa: E402

# A posterior mean may lie MEAN_TOL_SD posterior SDs plus MCSE_TOL Monte Carlo
# standard errors from an independent estimate; a posterior SD may differ from
# the OLS standard error by SD_TOL (relative) plus MCSE_TOL standard errors of
# an SD estimate.
RHAT_LIMIT = 1.05
MEAN_TOL_SD = 0.25
MCSE_TOL = 4.0
SD_TOL = 0.1
SETUP_REPS = 3
CHAINS = 2

CLI_SIZES = {"psm": (400, 40), "did": (200, 200), "rdd": (500, 500)}
CLI_SAMPLER = {"bpsm": (700, 200), "bdid": (700, 200), "brdd": (1000, 200)}
BOUNDARY_SAMPLER = (200, 50)
PANEL = {"units": 10_000, "covariates": 3, "draws": 300, "warmup": 100}
FLEET = {"vehicles": 1000, "per_vehicle": 100, "planted": 8, "draws": 250,
         "warmup": 100, "draw_sets": 10, "caliper": 0.05}
FAMILY = {"logistic": "psm", "did_linear": "did", "rdd_linear": "rdd"}
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, 'src'); "
                "import boat.cli; print(time.perf_counter() - t)")

# Metrics on the result line. Every workload reports each of them; the
# figures only some workloads have go on the line before it.
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
PER_LAYER = ("prob_core.pair_us", "prob_core.self_s", "prob_core.grad_calls", "nuts.self_s",
             "nuts.grads_per_iter", "nuts.leaf_overhead_us", "nuts.ess_bulk_min",
             "nuts.ess_tail_min", "nuts.ess_per_s", "nuts.rhat_max", "nuts.divergences",
             "design.self_s", "trace.overhead_s")


class CheckFailed(Exception):
    pass


class Op:
    """One timed call into boat. ``boundary`` marks an input-boundary probe,
    whose time is never counted; ``fit`` is (family, draws, divergences)
    for a call that produced draws."""

    def __init__(self, name, seconds, failed=False, boundary=False, fit=None):
        self.name, self.seconds, self.failed = name, seconds, failed
        self.boundary, self.fit = boundary, fit


def expect(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def strict_json(path):
    def reject(const):
        raise CheckFailed(f"{Path(path).name}: non-standard JSON constant {const}")

    with open(path) as fh:
        return json.loads(fh.read(), parse_constant=reject)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_draws(path):
    with open(path) as fh:
        names = fh.readline().strip().split(",")
    flat = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return names, flat.reshape(CHAINS, -1, len(names))


def near(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_means(draws, names, ref, what):
    """Each posterior mean lies within MEAN_TOL_SD posterior SDs plus
    MCSE_TOL Monte Carlo standard errors of its reference value."""
    for name, value in ref.items():
        chains = draws[:, :, names.index(name)]
        mean, sd = chains.mean(), chains.std()
        limit = MEAN_TOL_SD * sd + MCSE_TOL * sd / np.sqrt(oracles.ess_bulk(chains))
        expect(abs(mean - value) <= limit, f"{what}: {name} mean {mean:.6g} lies "
               f"{abs(mean - value) / sd:.2f} SD from the reference {value:.6g}")


def check_no_divergences(posterior, what):
    div = sum(posterior.diagnostics["_divergences"])
    expect(div == 0, f"{what}: {div} divergent transitions")


class Capture:
    """Keeps each PosteriorSamples the designs get back from ``sample``, so
    the benchmark sees divergences of fits run inside the CLI."""

    def __init__(self, boat):
        self.posteriors = []
        for mod in (boat.bpsm, boat.bdid, boat.brdd):
            mod.sample = self._capturing(mod.sample)

    def _capturing(self, fn):
        def sample(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.posteriors.append(out)
            return out
        return sample

    def take(self):
        out, self.posteriors = self.posteriors, []
        return out


def sampler_argv(draws, warmup, seed):
    return ["--draws", str(draws), "--warmup", str(warmup), "--chains", str(CHAINS),
            "--seed", str(seed)]


class Round:
    """Runs and times one round's operations; collects check failures."""

    def __init__(self, rec):
        self.rec = rec
        self.ops = []
        self.problems = []

    def call(self, name, fn, *args, **kwargs):
        return self._call(name, False, fn, *args, **kwargs)

    def probe(self, name, fn, *args, **kwargs):
        """An input-boundary probe: counted in attempted and failed; its time
        never counts."""
        return self._call(name, True, fn, *args, **kwargs)

    def _call(self, name, boundary, fn, *args, **kwargs):
        attrs = {"op": name, "boundary": boundary}
        op = Op(name, 0.0, failed=True, boundary=boundary)  # until fn returns
        self.ops.append(op)
        with self.rec.span("op", attrs) if self.rec else contextlib.nullcontext():
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            op.seconds = perf_counter() - t0
        op.failed = False
        return result

    def check(self, fn, *args):
        try:
            fn(*args)
        except CheckFailed as exc:
            self.problems.append(str(exc))


# ------------------------------------------------------------------ workloads


class CliStudies:
    """`boat bpsm`, `boat bdid` and `boat brdd` on `boat simulate` CSVs, plus
    two `boat bpsm` runs on CSVs with one non-finite cell."""

    name = "cli_studies"
    ops_per_round = 5

    def __init__(self, boat, seed):
        self.boat, self.seed = boat, seed

    def build(self, dest):
        return inputs.simulate_cli_inputs(self.boat.cli.main, str(dest), self.seed, CLI_SIZES)

    def wrapped(self):
        b = self.boat
        return [(b.cli, "main"), (b.bpsm, "fit_propensity"), (b.bpsm, "propensity_scores"),
                (b.bpsm, "nn_match_1to1"), (b.bpsm, "balance_report"),
                (b.bpsm, "positivity_check"), (b.bpsm, "ate_psm"), (b.bdid, "fit_did"),
                (b.bdid, "ate_did"), (b.brdd, "fit_rdd"), (b.brdd, "ate_rdd"),
                (b.brdd, "density_continuity_check")]

    def run(self, rnd, inp, out, capture):
        for cmd, key in (("bpsm", "psm"), ("bdid", "did"), ("brdd", "rdd")):
            d = out / cmd
            argv = [cmd, "--data", inp[key], *sampler_argv(*CLI_SAMPLER[cmd], self.seed),
                    "--out", str(d)]
            argv += {"bpsm": ["--covariates", "x1,x2", "--match", "nn"], "bdid": [],
                     "brdd": ["--z-col", "z", "--cutoff", "60"]}[cmd]
            code = rnd.call(cmd, self.boat.cli.main, argv)
            (posterior,) = capture.take() or [None]
            if code != 0:
                print(f"boat {cmd} exited {code}", file=sys.stderr)
                rnd.ops[-1].failed = True
                continue
            names, draws = read_draws(d / "draws.csv")
            rnd.ops[-1].fit = (key, draws, sum(posterior.diagnostics["_divergences"]))
            rnd.check(getattr(self, f"_check_{cmd}"), inp[key], d, names, draws)
            rnd.check(self._check_artifacts, cmd, d, posterior)
        for key in ("nan_outcome", "inf_covariate"):
            self._boundary(rnd, key, inp[key], out / key)
            capture.take()

    def _boundary(self, rnd, key, spec, out):
        """Passes only when `boat bpsm` exits nonzero with a SchemaError that
        names the bad cell's row and column."""
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = rnd.probe(f"bpsm_{key}", self.boat.cli.main,
                            ["bpsm", "--data", spec["path"], "--covariates", "x1,x2",
                             "--match", "nn", *sampler_argv(*BOUNDARY_SAMPLER, self.seed),
                             "--out", str(out)])
        error = {}
        for line in err.getvalue().splitlines():
            with contextlib.suppress(ValueError):
                error = json.loads(line)
        msg = str(error.get("message", ""))
        ok = (code != 0 and error.get("error") == "SchemaError"
              and re.search(rf"\b(row|line) {spec['line']}\b", msg)
              and re.search(rf"(?<!\w){re.escape(spec['column'])}(?!\w)", msg))
        rnd.ops[-1].failed = not ok

    def _check_artifacts(self, cmd, d, posterior):
        for path in sorted(d.glob("*.json")):
            strict_json(path)
        for name, rec in strict_json(d / "summary.json")["posterior"].items():
            expect(rec["rhat"] < RHAT_LIMIT, f"{cmd}: R-hat of {name} is {rec['rhat']}")
        check_no_divergences(posterior, cmd)

    def _check_bpsm(self, data, out, names, draws):
        plot = read_csv(out / "plot_data.csv")
        ids = np.array([r["unit_id"] for r in plot])
        scores = np.array([float(r["propensity_score"]) for r in plot])
        treated = np.array([r["group"] == "treatment" for r in plot])
        pairs, _ = oracles.greedy_match(oracles.id_ranks(ids), scores, treated)
        want = [(ids[i], ids[j], d) for i, j, d in pairs]
        got = [(r["treated_id"], r["control_id"], float(r["distance"]))
               for r in read_csv(out / "matches.csv")]
        expect(got == want, "bpsm: matches.csv differs from the greedy oracle")
        y = {r["unit_id"]: float(r["y"]) for r in read_csv(data)}
        diff = float(np.mean([y[t] - y[c] for t, c, _ in want]))
        point = strict_json(out / "summary.json")["ate"]["point"]
        expect(near(point, diff), f"bpsm: ATE {point} != mean paired difference {diff}")

    def _check_bdid(self, data, out, names, draws):
        units = {}
        for r in read_csv(data):
            unit = units.setdefault(r["unit_id"], {"treated": r["group"] == "treatment"})
            unit[r["period"]] = float(r["y"])
        rows = list(units.values())
        did = oracles.cell_mean_did([u["pre"] for u in rows], [u["post"] for u in rows],
                                    [u["treated"] for u in rows])
        report = strict_json(out / "report.json")["ate_did_from_means"]
        expect(near(report, did, 1e-9), f"bdid: ate_did_from_means {report} != {did}")
        check_means(draws, names, {"theta_interaction": did}, "bdid")

    def _check_brdd(self, data, out, names, draws):
        rows = read_csv(data)
        x = np.array([float(r["x"]) for r in rows])
        coef, _ = oracles.ols(oracles.rdd_design(x, 60.0, [float(r["z"]) for r in rows]),
                              [float(r["y"]) for r in rows])
        check_means(draws, names, {"beta_treat": coef[2]}, "brdd")
        bw = 0.1 * (x.max() - x.min())
        density = strict_json(out / "report.json")["density_continuity"]
        counts = (int(np.sum((x > 60.0 - bw) & (x < 60.0))),
                  int(np.sum((x >= 60.0) & (x < 60.0 + bw))))
        got = (density["left_count"], density["right_count"])
        expect(got == counts, f"brdd: density counts {got} != {counts}")

    def figures(self, rounds, inp):
        return {f"{cmd}_s": ("s", median_of(rounds, lambda ops, c=cmd: op_seconds(ops, c)))
                for cmd in ("bpsm", "bdid", "brdd")}

    def layer_figures(self, spans, inp):
        cli = [s for s in spans if s["name"] == "cli.main"]
        return {
            "cli.self_s": ("s", trace.self_seconds(cli, ("cli.",))),
            "bpsm.fit_s": ("s", trace.total_seconds(spans, "bpsm.fit_propensity")),
            "bpsm.nn_match_s": ("s", trace.total_seconds(spans, "bpsm.nn_match_1to1")),
            "bpsm.balance_s": ("s", trace.total_seconds(spans, "bpsm.balance_report")),
            "bdid.fit_s": ("s", trace.total_seconds(spans, "bdid.fit_did")),
            "brdd.fit_s": ("s", trace.total_seconds(spans, "brdd.fit_rdd")),
            "brdd.checks_s": ("s", trace.total_seconds(spans, "brdd.density_continuity_check")),
        }


class LargePanel:
    """`bdid.fit_did` + `ate_did` on a two-period panel of 10^4 units."""

    name = "large_panel"
    ops_per_round = 2

    def __init__(self, boat, seed):
        self.boat, self.seed = boat, seed

    def build(self, dest):
        p = inputs.panel(self.seed, PANEL["units"], PANEL["covariates"])
        p["dataset"] = self.boat.bdid.PanelDataset(
            unit_ids=p["unit_ids"], y_pre=p["y_pre"], y_post=p["y_post"],
            treated=p["treated"], X_pre=p["X_pre"], X_post=p["X_post"],
            covariate_names=p["names"])
        return p

    def wrapped(self):
        return [(self.boat.bdid, "fit_did"), (self.boat.bdid, "ate_did")]

    def run(self, rnd, inp, out, capture):
        cfg = self.boat.nuts.SamplerConfig(draws=PANEL["draws"], warmup=PANEL["warmup"],
                                           chains=CHAINS, seed=self.seed)
        post = rnd.call("fit_did", self.boat.bdid.fit_did, inp["dataset"], cfg=cfg)
        rnd.ops[-1].fit = ("did", post.draws, sum(post.diagnostics["_divergences"]))
        capture.take()
        est = rnd.call("ate_did", self.boat.bdid.ate_did, post)
        rnd.check(self._check, inp, post, est)

    def _check(self, inp, post, est):
        design = oracles.did_design(inp["treated"], inp["X_pre"], inp["X_post"])
        coef, se = oracles.ols(design, np.concatenate([inp["y_pre"], inp["y_post"]]))
        names = post.param_names
        check_means(post.draws, names, dict(zip(names[:-1], coef)), "fit_did")
        chains = post.draws[:, :, names.index("theta_interaction")]
        ratio = chains.std() / se[3]
        limit = SD_TOL + MCSE_TOL / np.sqrt(2.0 * oracles.ess_bulk(chains))
        expect(abs(ratio - 1.0) <= limit, f"fit_did: interaction SD / OLS SE = {ratio:.3f}")
        expect(near(est.point, float(chains.mean())),
               "ate_did: point is not the interaction's posterior mean")
        check_no_divergences(post, "fit_did")

    def figures(self, rounds, inp):
        return {"bdid_s": ("s", median_of(rounds, lambda ops: op_seconds(ops, "fit_did")
                                          + op_seconds(ops, "ate_did")))}

    def layer_figures(self, spans, inp):
        return {"bdid.fit_s": ("s", trace.total_seconds(spans, "bdid.fit_did"))}


class FleetPsm:
    """Trip telemetry CSV -> vehicle design -> propensity posterior -> greedy
    matching on the mean scores and on posterior-draw score sets."""

    name = "fleet_psm"
    ops_per_round = 11 + FLEET["draw_sets"]
    PIPELINE = ("ingest_trips", "filter_trips", "aggregate_to_vehicle", "build_design")

    def __init__(self, boat, seed):
        self.boat, self.seed = boat, seed

    def build(self, dest):
        dest.mkdir(parents=True, exist_ok=True)
        return inputs.trips(self.seed, str(dest / "trips.csv"), FLEET["vehicles"],
                            FLEET["per_vehicle"], FLEET["planted"])

    def wrapped(self):
        b = self.boat
        return [*((b.pipeline, fn) for fn in self.PIPELINE),
                (b.bpsm, "fit_propensity"), (b.bpsm, "propensity_scores"),
                (b.bpsm, "nn_match_1to1"), (b.bpsm, "caliper_match"),
                (b.bpsm, "balance_report"), (b.bpsm, "positivity_check"), (b.bpsm, "ate_psm")]

    def run(self, rnd, inp, out, capture):
        pipe, bpsm = self.boat.pipeline, self.boat.bpsm
        trips, rejects = rnd.call("ingest_trips", pipe.ingest_trips, inp["path"])
        kept, discarded = rnd.call("filter_trips", pipe.filter_trips, trips)
        del trips
        aggs, excluded = rnd.call("aggregate_to_vehicle", pipe.aggregate_to_vehicle, kept)
        del kept
        design = rnd.call("build_design", pipe.build_design, aggs)
        rnd.check(self._check_pipeline, inp, rejects, discarded, aggs, excluded, design)
        cfg = self.boat.nuts.SamplerConfig(draws=FLEET["draws"], warmup=FLEET["warmup"],
                                           chains=CHAINS, seed=self.seed)
        post = rnd.call("fit_propensity", bpsm.fit_propensity, design, cfg=cfg)
        rnd.ops[-1].fit = ("psm", post.draws, sum(post.diagnostics["_divergences"]))
        capture.take()
        scores = rnd.call("propensity_scores", bpsm.propensity_scores, post, design,
                          n_uncertainty_draws=FLEET["draw_sets"], seed=self.seed)
        match = rnd.call("nn_match_1to1", bpsm.nn_match_1to1, scores)
        matchings = [(match, scores.mean_score, None)]
        for k, s in enumerate(scores.draw_scores):
            one = bpsm.PropensityScores(scores.unit_ids, s, scores.treated)
            matchings.append((rnd.call(f"draw_match_{k}", bpsm.nn_match_1to1, one), s, None))
        caliper = rnd.call("caliper_match", bpsm.caliper_match, scores, FLEET["caliper"])
        matchings.append((caliper, scores.mean_score, FLEET["caliper"]))
        rnd.call("balance_report", bpsm.balance_report, match, design)
        positivity = rnd.call("positivity_check", bpsm.positivity_check, scores)
        y = dict(zip(design.unit_ids.tolist(), design.y.tolist()))
        ate = rnd.call("ate_psm", bpsm.ate_psm, match, y)
        rnd.check(self._check_fit, design, post)
        rnd.check(self._check_matching, design, matchings)
        diff = float(np.mean([y[t] - y[c] for t, c, _ in match.pairs]))
        rnd.check(expect, near(ate.point, diff), f"ate_psm: {ate.point} != mean paired "
                                                 f"difference {diff}")
        rnd.check(expect, 0.0 < positivity["overlap_fraction"] <= 1.0,
                  "positivity_check: overlap fraction outside (0, 1]")

    def _check_pipeline(self, inp, rejects, discarded, aggs, excluded, design):
        kind = inp["kind"]
        planted = {i + 2: k for i, k in enumerate(kind.tolist()) if k in inputs.MALFORMED}
        got = {r["line"]: r["reason"] for r in rejects}
        expect(sorted(got) == sorted(planted),
               f"ingest_trips: rejected {len(got)} lines, planted {len(planted)}")
        for line, k in planted.items():
            expect(inputs.MALFORMED[k] in got[line],
                   f"ingest_trips: line {line} ({k}) rejected for {got[line]!r}")
        for reason in inputs.DISCARDED:
            n = sum(1 for _, r in discarded if r == reason)
            expect(n == int(np.sum(kind == reason)), f"filter_trips: {n} {reason} discards")
        expect(not excluded, f"aggregate_to_vehicle: unexpected exclusions {excluded}")
        expect([a.vehicle_id for a in aggs] == inp["vehicle_ids"],
               "aggregate_to_vehicle: vehicle set")
        cov, target = oracles.aggregate_vehicles(inp["kept"], inp["n_vehicles"])
        names = self.boat.pipeline.COVARIATE_NAMES
        got_cov = np.array([[a.covariates[c] for c in names] for a in aggs])
        expect(np.allclose(got_cov, cov, rtol=1e-9, atol=1e-12),
               "aggregate_to_vehicle: covariates differ from the independent aggregator")
        expect(np.allclose([a.target for a in aggs], target, rtol=1e-9, atol=1e-12),
               "aggregate_to_vehicle: targets differ from the independent aggregator")
        scaled = (cov - cov.min(axis=0)) / (cov.max(axis=0) - cov.min(axis=0))
        expect(np.allclose(design.X, scaled, rtol=1e-9, atol=1e-12), "build_design: X")
        expect(np.array_equal(design.t == 1, inp["treated"]), "build_design: treatment")

    def _check_fit(self, design, post):
        mode, _ = oracles.logistic_map(design.X, design.t)
        check_means(post.draws, post.param_names, dict(zip(post.param_names, mode)),
                    "fit_propensity")
        check_no_divergences(post, "fit_propensity")

    def _check_matching(self, design, matchings):
        ids, ranks = design.unit_ids, oracles.id_ranks(design.unit_ids)
        for m, scores, caliper in matchings:
            pairs, unmatched = oracles.greedy_match(ranks, scores, design.t == 1, caliper)
            expect(m.pairs == [(ids[i], ids[j], d) for i, j, d in pairs]
                   and m.unmatched_treated == [ids[i] for i in unmatched],
                   f"{m.method}: matching differs from the greedy oracle")
            expect(len(set(m.control_ids())) == len(m.pairs), f"{m.method}: control reused")
            expect(caliper is None or all(d <= caliper for _, _, d in m.pairs),
                   f"{m.method}: pair beyond the caliper")

    def figures(self, rounds, inp):
        rows = inp["rows"]
        return {"trips_per_s": ("rows/s", median_of(
            rounds, lambda ops: rows / sum(op_seconds(ops, s) for s in self.PIPELINE)))}

    def layer_figures(self, spans, inp):
        rows, rejected = inp["rows"], int(np.isin(inp["kind"], list(inputs.MALFORMED)).sum())
        ops = {s["id"]: s["attrs"].get("op", "") for s in spans if s["name"] == "op"}
        nn = [s for s in spans if s["name"] == "bpsm.nn_match_1to1"]
        draw = [s for s in nn if ops.get(s["parent"], "").startswith("draw_match")]
        greedy = nn + [s for s in spans if s["name"] == "bpsm.caliper_match"]

        def total(name):
            return trace.total_seconds(spans, name)

        return {
            "pipeline.ingest_rows_per_s": ("rows/s", rows / total("pipeline.ingest_trips")),
            "pipeline.filter_rows_per_s": ("rows/s",
                                           (rows - rejected) / total("pipeline.filter_trips")),
            "pipeline.aggregate_s": ("s", total("pipeline.aggregate_to_vehicle")),
            "pipeline.build_design_s": ("s", total("pipeline.build_design")),
            "pipeline.rejected_rows": ("count", rejected),
            "bpsm.fit_s": ("s", total("bpsm.fit_propensity")),
            "bpsm.nn_match_s": ("s", sum(duration(s) for s in nn if s not in draw)),
            "bpsm.draw_match_s": ("s", sum(duration(s) for s in draw)),
            "bpsm.caliper_match_s": ("s", total("bpsm.caliper_match")),
            "bpsm.match_cells_per_s": ("1/s", sum(s["attrs"]["cells"] for s in greedy)
                                       / sum(duration(s) for s in greedy)),
            "bpsm.balance_s": ("s", total("bpsm.balance_report")),
        }


WORKLOADS = {w.name: w for w in (CliStudies, LargePanel, FleetPsm)}


# -------------------------------------------------------------------- metrics


def duration(span):
    return span["end"] - span["start"]


def op_seconds(ops, name):
    return sum(op.seconds for op in ops if op.name == name and not op.failed)


def median_of(rounds, fn):
    return statistics.median(fn(ops) for ops in rounds)


def wall_seconds(ops):
    return sum(op.seconds for op in ops if not (op.failed or op.boundary))


def span_attrs(fn):
    """Attributes recorded on a wrapped function's spans."""
    if fn == "main":
        return lambda a, k: {"command": a[0][0]}
    if fn in ("nn_match_1to1", "caliper_match"):
        def cells(a, k):
            t = np.asarray(a[0].treated)
            return {"cells": int(t.sum()) * int((~t).sum())}
        return cells
    if fn == "sample":
        return lambda a, k: {"family": FAMILY[a[0].family],
                             "iters": k["cfg"].draws * k["cfg"].chains}
    return None


def install(rec, boat, workload):
    for mod, fn in workload.wrapped():
        rec.wrap(mod, fn, f"{mod.__name__.split('.')[-1]}.{fn}", span_attrs(fn))
    for mod in (boat.bpsm, boat.bdid, boat.brdd):
        rec.wrap(mod, "sample", "nuts.sample", span_attrs("sample"))
    rec.wrap_model_evals(boat.nuts)


def leaf_overhead_us(boat, seed) -> float:
    """Wall time per leapfrog leaf of `sample` on a 5-D standard Gaussian
    whose log-density and gradient cost about a microsecond."""
    grads = [0]

    def logp(q):
        return -0.5 * float(q @ q)

    def grad(q):
        grads[0] += 1
        return -q

    target = boat.nuts.Target(logp=logp, grad=grad, names=tuple(f"q{i}" for i in range(5)))
    cfg = boat.nuts.SamplerConfig(draws=1000, warmup=200, chains=1, seed=seed)
    t0 = perf_counter()
    boat.nuts.sample(target, None, cfg=cfg)
    return (perf_counter() - t0) / grads[0] * 1e6


def fit_diagnostics(rounds):
    """Per fit: (family, op name, diagnostics, median call seconds). Rounds
    repeat the same fits with the same draws, so the first round serves."""
    out = []
    for op in rounds[0]:
        if op.fit is not None:
            family, draws, divergences = op.fit
            diag = {**oracles.diagnostics(draws), "divergences": divergences}
            seconds = median_of(rounds, lambda ops, n=op.name: op_seconds(ops, n))
            out.append((family, op.name, diag, seconds))
    return out


def end_to_end(workload, rounds, inp, setup_s, fits):
    metrics = {
        "setup_s": ("s", setup_s),
        "wall_s": ("s", median_of(rounds, wall_seconds)),
        "peak_rss_mb": ("MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0),
    }
    figures = workload.figures(rounds, inp)
    for family, _, diag, seconds in fits:
        figures[f"{family}_ess_per_s"] = ("1/s", diag["ess_bulk_min"] / seconds)
    return metrics, figures


def without_probes(spans):
    """Spans outside input-boundary probes (parents come before children)."""
    dropped = set()
    for s in spans:
        if s["attrs"].get("boundary") or s["parent"] in dropped:
            dropped.add(s["id"])
    return [s for s in spans if s["id"] not in dropped]


def per_layer(workload, traced, baseline, inp, fits, leaf_us):
    per_round = []
    for ops, spans in traced:
        spans = without_probes(spans)
        ev = trace.evals(spans)
        (n_lp, t_lp), (n_gr, t_gr) = ev["log_posterior"], ev["log_posterior_grad"]
        samples = [s for s in spans if s["name"] == "nuts.sample"]
        per_round.append({
            "prob_core.pair_us": ("us", 1e6 * (t_lp / n_lp + t_gr / n_gr)),
            "prob_core.self_s": ("s", t_lp + t_gr),
            "prob_core.grad_calls": ("count", n_gr),
            "nuts.self_s": ("s", trace.self_seconds(samples, ("nuts.",))),
            "nuts.grads_per_iter": ("count", trace.evals(samples)["log_posterior_grad"][0]
                                    / sum(s["attrs"]["iters"] for s in samples)),
            "design.self_s": ("s", trace.self_seconds(spans, ("bpsm.", "bdid.", "brdd."))),
            "trace.overhead_s": ("s", wall_seconds(ops) - wall_seconds(baseline)),
            **workload.layer_figures(spans, inp),
            **family_layers(samples),
        })
    metrics = {name: (unit, statistics.median(r[name][1] for r in per_round))
               for name, (unit, _) in per_round[0].items()}
    metrics["nuts.leaf_overhead_us"] = ("us", leaf_us)
    metrics["nuts.ess_bulk_min"] = ("count", min(d["ess_bulk_min"] for _, _, d, _ in fits))
    metrics["nuts.ess_tail_min"] = ("count", min(d["ess_tail_min"] for _, _, d, _ in fits))
    metrics["nuts.rhat_max"] = ("ratio", max(d["rhat_max"] for _, _, d, _ in fits))
    metrics["nuts.ess_per_s"] = ("1/s", min(d["ess_bulk_min"] / s for _, _, d, s in fits))
    metrics["nuts.divergences"] = ("count", sum(d["divergences"] for _, _, d, _ in fits))
    for family, _, diag, _ in fits:
        metrics[f"nuts.ess_bulk_min.{family}"] = ("count", diag["ess_bulk_min"])
        metrics[f"nuts.ess_tail_min.{family}"] = ("count", diag["ess_tail_min"])
    return metrics


def family_layers(samples):
    out = {}
    for family in sorted({s["attrs"]["family"] for s in samples}):
        mine = [s for s in samples if s["attrs"]["family"] == family]
        ev = trace.evals(mine)
        (n_lp, t_lp), (n_gr, t_gr) = ev["log_posterior"], ev["log_posterior_grad"]
        model = {"psm": "logistic", "did": "did", "rdd": "rdd"}[family]
        out[f"prob_core.{model}_us"] = ("us", 1e6 * (t_lp / n_lp + t_gr / n_gr))
        out[f"nuts.grads_per_iter.{family}"] = (
            "count", n_gr / sum(s["attrs"]["iters"] for s in mine))
    return out


# ----------------------------------------------------------------------- main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def as_json(metrics):
    return {name: {"value": float(value), "unit": unit}
            for name, (unit, value) in sorted(metrics.items())}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "boat" / "__init__.py").is_file():
        print("perfbench: boat's sources (src/boat) are missing", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_runs" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def import_seconds() -> float:
    """Median time to import boat in a fresh interpreter, SETUP_REPS times."""
    times = []
    for _ in range(SETUP_REPS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=120)
        times.append(float(done.stdout))
    return statistics.median(times)


def run(args, work) -> int:
    import_s = import_seconds()
    sys.path.insert(0, str(ROOT / "src"))
    import boat.cli  # noqa: F401  (also imports the designs, pipeline and sampler)
    import boat

    workload = WORKLOADS[args.workload](boat, args.seed)
    rec = trace.Recorder() if args.trace else None
    builds = []
    if rec:
        install(rec, boat, workload)
    for _ in range(SETUP_REPS):
        shutil.rmtree(work / "inputs", ignore_errors=True)
        t = perf_counter()
        inp = workload.build(work / "inputs")
        builds.append(perf_counter() - t)
    setup_s = import_s + statistics.median(builds)
    simulate_s = None
    if rec:
        simulate_s = sum(duration(s) for s in rec.spans if s["attrs"].get("command") == "simulate")
        rec.uninstall()
        rec.reset()

    capture = Capture(boat)
    rounds, traced, problems = [], [], []
    baseline = None
    hashes = {}
    start = perf_counter()
    last = 0.0
    while True:
        tracing = rec is not None and baseline is not None
        if tracing and not traced:
            install(rec, boat, workload)
        rnd = Round(rec if tracing else None)
        t = perf_counter()
        try:
            workload.run(rnd, inp, work / "out", capture)
        except Exception:  # an operation raised: the rest of the round counts as failed
            traceback.print_exc()
        last = perf_counter() - t
        problems += rnd.problems
        for op in rnd.ops:
            if op.fit is not None:
                digest = hashlib.sha256(np.ascontiguousarray(op.fit[1]).tobytes()).hexdigest()
                if hashes.setdefault(op.name, digest) != digest:
                    problems.append(f"{op.name}: draws differ between identical rounds")
        if rec is not None and baseline is None:
            baseline = rnd.ops
        else:
            rounds.append(rnd.ops)
            if tracing:
                traced.append((rnd.ops, rec.spans))
                rec.reset()
        if rounds and perf_counter() - start + last > args.seconds:
            break
    if rec:
        rec.uninstall()

    attempted = workload.ops_per_round * (len(rounds) + (baseline is not None))
    done = [op for ops in rounds + ([baseline] if baseline else []) for op in ops]
    failed = attempted - sum(1 for op in done if not op.failed)
    fits = fit_diagnostics(rounds)
    if rec:
        silent = rec.silent()
        if silent:
            print(f"perfbench: wrapped functions recorded no call: {silent}", file=sys.stderr)
            return 1
        metrics = per_layer(workload, traced, baseline, inp, fits,
                            leaf_overhead_us(boat, args.seed))
        if simulate_s:
            metrics["simulate.s"] = ("s", simulate_s / SETUP_REPS)
        work.parent.mkdir(parents=True, exist_ok=True)
        with open(work.parent / f"spans-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump([spans for _, spans in traced], fh)
        declared = PER_LAYER
    else:
        metrics, figures = end_to_end(workload, rounds, inp, setup_s, fits)
        metrics.update(figures)
        declared = END_TO_END
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
        "figures": as_json({k: v for k, v in metrics.items() if k not in declared}),
        "draws_sha256": dict(sorted(hashes.items())), "problems": problems,
    }))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": as_json({k: v for k, v in metrics.items() if k in declared}),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
