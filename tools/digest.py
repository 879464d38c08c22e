"""Print a sha256 per sampler output, to show a change leaves draws unchanged.

Each line is ``name sha256``, one for:

- the draws of ``fit_propensity``, ``fit_did`` and ``fit_rdd`` at seeds 1-3;
- the draws of four bare ``Target``s: a correlated Gaussian, a quartic, a
  density that is -inf on part of its domain, and Neal's funnel;
- every file ``boat simulate`` writes for each scenario (its CSV and its
  ``<stem>_truth.json``) and every file a fixed list of ``boat`` commands
  writes to ``--out`` from those CSVs, at seeds 1-2;
- the trip pipeline on a seeded trips CSV with a cell on every parser's
  failure path: the TripTable columns, the rejects, the discards, the
  vehicle aggregates and ``build_design``'s X, t and y for both target
  specs, read in blocks of the default size and of 7 rows.
- ``nn_match_1to1`` and ``caliper_match`` (calipers 0.05 and 0.55) at
  fleet size, 300 treated and 700 controls, on seeded scores that tie
  often, with shuffled int ids and with string ids.

Run it on two checkouts and compare the outputs:

    PYTHONPATH=src python tools/digest.py > after.txt
    diff before.txt after.txt
"""

import hashlib
import io
import json
import sys
import tempfile
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np

from boat import pipeline, simulate
from boat.bdid import fit_did
from boat.bpsm import PropensityScores, caliper_match, fit_propensity, nn_match_1to1
from boat.brdd import fit_rdd
from boat.cli import main
from boat.nuts import SamplerConfig, Target, sample

SAMPLER_ARGS = ["--draws", "400", "--warmup", "100", "--chains", "2"]


def emit(name, data: bytes):
    print(name, hashlib.sha256(data).hexdigest())


def cfg(seed):
    return SamplerConfig(draws=400, warmup=100, chains=2, seed=seed)


def fits():
    designs = [
        ("fit_propensity", fit_propensity, simulate.simulate_confounded,
         dict(confound_strength=1.0)),
        ("fit_did", fit_did, simulate.simulate_seasonal_panel,
         dict(seasonal_amplitude=1.0)),
        ("fit_rdd", fit_rdd, simulate.simulate_discontinuity,
         dict(n_control=150, n_treated=150)),
    ]
    for name, fit, simulate_fn, spec in designs:
        for seed in (1, 2, 3):
            data, _ = simulate_fn(simulate.ScenarioSpec(**spec, seed=seed))
            emit(f"{name}/seed{seed}", fit(data, cfg=cfg(seed)).draws.tobytes())


def gaussian_target(cov):
    prec = np.linalg.inv(cov)
    return Target(lambda q: -0.5 * float(q @ prec @ q), lambda q: -(prec @ q), ("a", "b"))


def funnel_logp(q):
    v, x = q[0], q[1:]
    return -v * v / 18.0 - 0.5 * float(x @ x) * np.exp(-v) - 0.5 * len(x) * v


def funnel_grad(q):
    v, x = q[0], q[1:]
    dv = -v / 9.0 + 0.5 * float(x @ x) * np.exp(-v) - 0.5 * len(x)
    return np.concatenate([[dv], -x * np.exp(-v)])


TARGETS = {
    "gaussian": gaussian_target(np.array([[1.0, 2.7], [2.7, 9.0]])),
    "quartic": Target(lambda q: -0.25 * float(np.sum(q**4)), lambda q: -(q**3), ("a", "b")),
    # a Gaussian truncated to q[0] > -0.5
    "truncated": Target(lambda q: -0.5 * float(q @ q) if q[0] > -0.5 else -np.inf,
                        lambda q: -q, ("a", "b")),
    "funnel": Target(funnel_logp, funnel_grad, ("v", "x1", "x2")),
}


def targets():
    for name, target in TARGETS.items():
        emit(f"target/{name}", sample(target, None, cfg=cfg(1)).draws.tobytes())


# scenario -> the stem of the CSV and truth files `boat simulate` writes for it
SIMULATED = {"confounded_psm": "units", "seasonal_did": "panel", "cutoff_rdd": "rdd"}


def commands(sim: Path):
    units, panel, rdd = sim / "units.csv", sim / "panel.csv", sim / "rdd.csv"
    return {
        "bpsm-nn": ["bpsm", "--data", str(units), "--covariates", "x1,x2", "--match", "nn"],
        "bpsm-caliper": ["bpsm", "--data", str(units), "--covariates", "x1,x2",
                         "--caliper", "0.2"],
        "bdid": ["bdid", "--data", str(panel)],
        "brdd": ["brdd", "--data", str(rdd)],
        "brdd-filtered": ["brdd", "--data", str(rdd), "--z-col", "z",
                          "--z-filter", "z>0.3", "--bandwidth", "4"],
    }


def cli(tmp: Path):
    for seed in (1, 2):
        sim = tmp / f"sim{seed}"
        for scenario, stem in SIMULATED.items():
            argv = ["simulate", "--scenario", scenario, "--seed", str(seed), "--out", str(sim)]
            if main(argv) != 0:
                sys.exit(f"simulate {scenario} at seed {seed} failed")
            for name in (f"{stem}.csv", f"{stem}_truth.json"):
                emit(f"cli/simulate/{scenario}/seed{seed}/{name}", (sim / name).read_bytes())
        for name, argv in commands(sim).items():
            out = tmp / f"{name}-{seed}"
            code = main([*argv, *SAMPLER_ARGS, "--seed", str(seed), "--out", str(out)])
            if code != 0:
                sys.exit(f"{name} at seed {seed} exited {code}")
            for path in sorted(out.iterdir()):
                emit(f"cli/{name}/seed{seed}/{path.name}", path.read_bytes())


def trips_csv() -> str:
    """A trips CSV drawn from a seeded RNG: 300 trips of 30 vehicles, naive
    and aware stamps, blank fuel or energy cells, and planted rows that
    reach every parser's failure path and both filters."""
    rng = np.random.default_rng(22)
    n = 300
    vehicle = rng.integers(0, 30, n)
    start = (np.datetime64("2024-03-01T00:00:00")
             + rng.integers(0, 28 * 86400, n).astype("timedelta64[s]"))
    minutes = rng.integers(5, 180, n)
    end = start + (minutes * 60).astype("timedelta64[s]")
    speed = rng.uniform(20.0, 110.0, n)
    mode = rng.choice(["hybrid", "electric", "combustion"], n)
    soc_start = rng.uniform(10.0, 100.0, n)
    soc_end = rng.uniform(0.0, 1.0, n) * soc_start
    trailer = rng.choice(["0", "1", "true", "false", "yes", "no", "", " Yes "], n)
    rows = []
    for i in range(n):
        hours = minutes[i] / 60
        distance = speed[i] * hours
        fuel = "" if mode[i] == "electric" else f"{distance * rng.uniform(40, 90):.1f}"
        energy = "" if mode[i] == "combustion" else f"{distance * rng.uniform(100, 200):.1f}"
        offset = {3: "+01:00", 7: "-05:00"}.get(i % 10, "")
        rows.append([
            f"v{vehicle[i]:02d}", f"{start[i]}{offset}", f"{end[i]}{offset}",
            f"{distance:.3f}", f"{hours:.6f}", fuel, energy,
            f"{soc_start[i]:.1f}", f"{soc_end[i]:.1f}", f"{rng.uniform(-15, 30):.1f}",
            str(rng.integers(0, 6)), trailer[i], mode[i],
            f"{rng.uniform(200, 90000):.1f}", f"{speed[i] + rng.uniform(0, 40):.1f}",
            "treatment" if vehicle[i] % 2 else "control",
        ])
    planted = {
        5: {"trailer": "maybe"},
        11: {"engine_starts": str(2**63)},
        12: {"engine_starts": str(-2**63 - 1)},
        13: {"engine_starts": "2.0"},
        17: {"start_time": "2024-02-30T08:00:00"},
        18: {"end_time": "not a time"},
        23: {"fuel_g": "x"},
        29: {"distance_km": "n/a"},
        31: {"fuel_g": " ", "energy_wh": ""},
        37: {"start_time": f"{start[37]}+01:00", "end_time": str(end[37])},
        41: {"odometer_km": "50"},
        43: {"distance_km": "5000"},
    }
    for i, cells in planted.items():
        for name, value in cells.items():
            rows[i][pipeline.TRIPS_CSV_COLUMNS.index(name)] = value
    return "\n".join(map(",".join, [pipeline.TRIPS_CSV_COLUMNS, *rows])) + "\n"


def column_bytes(values: np.ndarray) -> bytes:
    if values.dtype == object:
        return "\n".join(values.tolist()).encode()
    return values.tobytes()


def trips():
    text = trips_csv()
    for block_rows in (pipeline._BLOCK_ROWS, 7):
        name = f"pipeline/block{block_rows}"
        with mock.patch.object(pipeline, "_BLOCK_ROWS", block_rows):
            table, rejects = pipeline.ingest_trips(io.StringIO(text))
        for field in fields(table):
            emit(f"{name}/table/{field.name}", column_bytes(getattr(table, field.name)))
        emit(f"{name}/rejects", json.dumps(rejects).encode())
        kept, discarded = pipeline.filter_trips(table)
        emit(f"{name}/discarded", json.dumps(discarded).encode())
        for spec in ("fuel_per_km", "energy_per_km"):
            aggregates, excluded = pipeline.aggregate_to_vehicle(kept, spec)
            emit(f"{name}/{spec}/aggregates", json.dumps(
                [[a.vehicle_id, a.covariates, a.target, a.group] for a in aggregates]).encode())
            emit(f"{name}/{spec}/excluded", json.dumps(excluded).encode())
            design = pipeline.build_design(aggregates)
            for part in ("X", "t", "y"):
                emit(f"{name}/{spec}/design/{part}", getattr(design, part).tobytes())


def tie_pool():
    """Seven scores and the two floats on each side of each: equal scores,
    a control on each side at one distance and distinct scores at one
    rounded distance all occur."""
    pool = []
    for v in (0.06, 0.1, 0.2, 0.25, 0.5, 0.75, 0.9):
        below, above = np.nextafter(v, 0.0), np.nextafter(v, 1.0)
        pool += [np.nextafter(below, 0.0), below, v, above, np.nextafter(above, 1.0)]
    return np.array(pool)


def matchings():
    rng = np.random.default_rng(25)
    n_treated, n_control = 300, 700
    pool = tie_pool()
    # treated lean to high scores and controls to low ones, so that the nearest
    # control is often far and the calipers leave units unmatched
    score = np.concatenate([rng.choice(pool, n_treated, p=pool**2 / np.sum(pool**2)),
                            rng.choice(pool, n_control, p=(1 - pool)**2 / np.sum((1 - pool)**2))])
    treated = np.arange(n_treated + n_control) < n_treated
    int_ids = rng.permutation(n_treated + n_control)
    for kind, ids in (("int", int_ids), ("str", np.array([f"u{i}" for i in int_ids]))):
        scores = PropensityScores(unit_ids=ids, mean_score=score, treated=treated)
        for name, match in (("nn", nn_match_1to1(scores)),
                            ("caliper0.05", caliper_match(scores, 0.05)),
                            ("caliper0.55", caliper_match(scores, 0.55))):
            emit(f"match/{kind}/{name}", json.dumps({
                "pairs": [[t.item(), c.item(), d] for t, c, d in match.pairs],
                "unmatched": [u.item() for u in match.unmatched_treated]}).encode())


if __name__ == "__main__":
    fits()
    targets()
    with tempfile.TemporaryDirectory() as tmp:
        cli(Path(tmp))
    trips()
    matchings()
