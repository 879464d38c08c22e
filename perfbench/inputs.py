"""Input generators. Everything is a function of the seed passed in, so the
same seed gives the same files and arrays."""

from __future__ import annotations

import csv
import os

import numpy as np

TRIP_COLUMNS = (
    "vehicle_id,start_time,end_time,distance_km,duration_h,fuel_g,energy_wh,"
    "soc_start_pct,soc_end_pct,ambient_temp_c,engine_starts,trailer,drive_mode,"
    "odometer_km,max_speed_kmh,group"
)

# Planted malformed trip rows: kind -> a phrase of the reason ingest gives.
MALFORMED = {
    "end_before_start": "end_time must be after start_time",
    "duration_mismatch": "duration_h inconsistent",
    "soc_out_of_range": "state of charge",
    "no_fuel_or_energy": "one of fuel_g / energy_wh",
    "not_a_number": "could not convert",
}
# Planted rows that parse but that filter_trips discards, by its reason.
DISCARDED = ("new_vehicle", "speed")

MALFORMED_SEED = 20240  # the malformed CLI inputs never depend on --seed
NAN_ROW, INF_ROW = 7, 11  # data rows (1-based) that get the bad value
BASE_DAY = np.datetime64("2024-03-04T00:00:00")  # a Monday


def simulate_cli_inputs(cli_main, out: str, seed: int, size: dict) -> dict:
    """CSV inputs for the three CLI studies, written by ``boat simulate``."""
    paths = {}
    for name, scenario, (n_c, n_t), extra in (
        ("psm", "confounded_psm", size["psm"], ["--confound-strength", "2"]),
        ("did", "seasonal_did", size["did"],
         ["--seasonal-amplitude", "2", "--confound-strength", "1"]),
        ("rdd", "cutoff_rdd", size["rdd"], ["--true-ate", "-1.2"]),
    ):
        d = os.path.join(out, name)
        code = cli_main(["simulate", "--scenario", scenario, "--n-control", str(n_c),
                         "--n-treated", str(n_t), "--seed", str(seed), "--out", d, *extra])
        if code != 0:
            raise RuntimeError(f"boat simulate {scenario} exited {code}")
        paths[name] = os.path.join(d, {"psm": "units.csv", "did": "panel.csv",
                                       "rdd": "rdd.csv"}[name])
    paths.update(_malformed_cli_inputs(cli_main, out))
    return paths


def _malformed_cli_inputs(cli_main, out: str) -> dict:
    """Two unit CSVs, each with one non-finite cell: a nan outcome and an
    inf covariate."""
    d = os.path.join(out, "malformed")
    if cli_main(["simulate", "--scenario", "confounded_psm", "--n-control", "100",
                 "--n-treated", "20", "--confound-strength", "2",
                 "--seed", str(MALFORMED_SEED), "--out", d]) != 0:
        raise RuntimeError("boat simulate for the malformed inputs failed")
    with open(os.path.join(d, "units.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    paths = {}
    for name, row, col, value in (("nan_outcome", NAN_ROW, "y", "nan"),
                                  ("inf_covariate", INF_ROW, "x2", "inf")):
        bad = [list(r) for r in rows]
        bad[row][rows[0].index(col)] = value
        path = os.path.join(d, f"{name}.csv")
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(bad)
        paths[name] = {"path": path, "line": row + 1, "column": col}
    return paths


def panel(seed: int, n_units: int, n_cov: int = 3) -> dict:
    """Two-period panel: half the units treated, covariates in both periods,
    a common shock of 0.7 and an effect of -0.3."""
    rng = np.random.default_rng([seed, 2])
    treated = np.zeros(n_units, dtype=bool)
    treated[rng.permutation(n_units)[: n_units // 2]] = True
    beta = np.linspace(0.8, -0.4, n_cov)
    X_pre = rng.uniform(size=(n_units, n_cov))
    X_post = rng.uniform(size=(n_units, n_cov))
    base = 1.0 + 0.5 * treated
    y_pre = base + X_pre @ beta + rng.normal(0.0, 0.5, n_units)
    y_post = base + 0.7 - 0.3 * treated + X_post @ beta + rng.normal(0.0, 0.5, n_units)
    return {"unit_ids": np.arange(n_units), "treated": treated, "y_pre": y_pre,
            "y_post": y_post, "X_pre": X_pre, "X_post": X_post,
            "names": [f"c{j + 1}" for j in range(n_cov)]}


def trips(seed: int, path: str, n_vehicles: int, per_vehicle: int, n_planted: int) -> dict:
    """Write a trips CSV and return the arrays it was made from.

    Each vehicle has ``per_vehicle`` valid trips. On top come
    ``n_planted`` rows of each malformed kind and of each discarded kind,
    all at random places in the file. 30% of the vehicles are treated,
    chosen by a trait that also drives their driving style.
    """
    rng = np.random.default_rng([seed, 3])
    trait = rng.uniform(size=n_vehicles)
    treated = np.zeros(n_vehicles, dtype=bool)
    treated[np.argsort(-(trait + rng.normal(0.0, 0.3, n_vehicles)))[: int(0.3 * n_vehicles)]] = True
    kinds = ["valid"] * (n_vehicles * per_vehicle) + [
        k for k in (*MALFORMED, *DISCARDED) for _ in range(n_planted)
    ]
    n = len(kinds)
    kind = np.array(kinds)[rng.permutation(n)]
    valid = kind == "valid"
    vehicle = np.empty(n, dtype=int)  # every vehicle gets per_vehicle valid rows
    vehicle[valid] = rng.permutation(np.repeat(np.arange(n_vehicles), per_vehicle))
    vehicle[~valid] = rng.integers(0, n_vehicles, int((~valid).sum()))
    u = trait[vehicle]

    day = rng.integers(0, 28, n)
    start_s = rng.integers(6 * 3600, 20 * 3600, n)
    dur_s = rng.integers(600, 7200, n)
    duration_h = dur_s / 3600.0
    speed = (30.0 + 60.0 * u) * rng.uniform(0.7, 1.3, n)
    distance = np.round(speed * duration_h, 3)
    hybrid = rng.uniform(size=n) < 0.3 + 0.5 * u
    fuel = np.where(hybrid, np.round(distance * rng.uniform(30.0, 60.0, n), 1), 0.0)
    energy = np.round(distance * rng.uniform(120.0, 200.0, n), 1)
    soc_start = np.round(rng.uniform(30.0, 100.0, n), 1)
    soc_end = np.round(soc_start * rng.uniform(0.1, 0.9, n), 1)
    temp = np.round(rng.normal(5.0 + 10.0 * u, 6.0), 1)
    starts = rng.integers(0, 5, n)
    trailer = rng.uniform(size=n) < 0.1 + 0.2 * u
    odometer = np.round(rng.uniform(1000.0, 60000.0, n), 1)
    max_speed = np.round(distance / duration_h * rng.uniform(1.1, 1.6, n), 1)

    is_new = kind == "new_vehicle"
    odometer[is_new] = np.round(rng.uniform(0.0, 99.0, is_new.sum()), 1)
    is_fast = kind == "speed"
    dur_s[is_fast] = 1800
    duration_h = dur_s / 3600.0
    distance[is_fast] = np.round(rng.uniform(101.0, 150.0, is_fast.sum()), 3)
    max_speed[is_fast] = np.round(distance[is_fast] / 0.5 + 10.0, 1)

    start = BASE_DAY + (day * 86400 + start_s).astype("timedelta64[s]")
    start_txt = np.datetime_as_string(start, unit="s").tolist()
    end_txt = np.datetime_as_string(start + dur_s.astype("timedelta64[s]"), unit="s").tolist()
    cols = {
        "dist": list(map(repr, distance.tolist())),
        "dur": list(map(repr, duration_h.tolist())),
        "fuel": [repr(f) if h else "" for f, h in zip(fuel.tolist(), hybrid.tolist())],
        "energy": ["" if h else repr(e) for e, h in zip(energy.tolist(), hybrid.tolist())],
        "soc_start": list(map(repr, soc_start.tolist())),
    }
    for i in np.flatnonzero(kind != "valid"):
        k = kind[i]
        if k == "end_before_start":
            start_txt[i], end_txt[i] = end_txt[i], start_txt[i]
        elif k == "duration_mismatch":
            cols["dur"][i] = repr(2.0 * float(duration_h[i]))
        elif k == "soc_out_of_range":
            cols["soc_start"][i] = "150.0"
        elif k == "no_fuel_or_energy":
            cols["fuel"][i] = cols["energy"][i] = ""
        elif k == "not_a_number":
            cols["dist"][i] = "n/a"

    group = np.where(treated, "treatment", "control")[vehicle].tolist()
    vid = [f"V{v:05d}" for v in vehicle.tolist()]
    lines = [TRIP_COLUMNS]
    for row in zip(vid, start_txt, end_txt, cols["dist"], cols["dur"], cols["fuel"],
                   cols["energy"], cols["soc_start"], map(repr, soc_end.tolist()),
                   map(repr, temp.tolist()), map(str, starts.tolist()),
                   np.where(trailer, "1", "0").tolist(),
                   np.where(hybrid, "hybrid", "electric").tolist(),
                   map(repr, odometer.tolist()), map(repr, max_speed.tolist()), group):
        lines.append(",".join(row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")

    return {
        "path": path,
        "rows": n,
        "n_vehicles": n_vehicles,
        "vehicle_ids": [f"V{v:05d}" for v in range(n_vehicles)],
        "treated": treated,
        "kind": kind,
        "kept": {
            "vehicle": vehicle[valid],
            "weekday": (day[valid] % 7) < 5,
            "distance_km": distance[valid],
            "duration_h": duration_h[valid],
            "fuel_g": fuel[valid],
            "soc_start": soc_start[valid],
            "soc_end": soc_end[valid],
            "temp": temp[valid],
            "starts": starts[valid],
            "trailer": trailer[valid],
            "hybrid": hybrid[valid],
            "max_speed": max_speed[valid],
        },
    }

