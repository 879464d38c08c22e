"""Print a sha256 per sampler output, to show a change leaves draws unchanged.

Each line is ``name sha256``, one for:

- the draws of ``fit_propensity``, ``fit_did`` and ``fit_rdd`` at seeds 1-3;
- the draws of four bare ``Target``s: a correlated Gaussian, a quartic, a
  density that is -inf on part of its domain, and Neal's funnel;
- every file ``boat simulate`` writes for each scenario (its CSV and its
  ``<stem>_truth.json``) and every file a fixed list of ``boat`` commands
  writes to ``--out`` from those CSVs, at seeds 1-2.

Run it on two checkouts and compare the outputs:

    PYTHONPATH=src python tools/digest.py > after.txt
    diff before.txt after.txt
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from boat import simulate
from boat.bdid import fit_did
from boat.bpsm import fit_propensity
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


if __name__ == "__main__":
    fits()
    targets()
    with tempfile.TemporaryDirectory() as tmp:
        cli(Path(tmp))
