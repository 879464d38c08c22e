"""Difference-in-differences on a panel with a large common shock.

Both groups shift by the same seasonal amount between periods; the
interaction coefficient isolates the treatment effect anyway.
"""

import numpy as np

from boat.bdid import ate_did, ate_did_from_means, fit_did, parallel_trend_check
from boat.nuts import SamplerConfig, summarize
from boat.simulate import ScenarioSpec, simulate_seasonal_panel

spec = ScenarioSpec(
    n_control=200,
    n_treated=200,
    true_ate=-0.3,
    seasonal_amplitude=3.0,  # 10x the effect size
    seed=7,
)
panel, truth = simulate_seasonal_panel(spec)

cells = {
    "pre_control": float(np.mean(panel.y_pre[~panel.treated])),
    "post_control": float(np.mean(panel.y_post[~panel.treated])),
    "pre_treatment": float(np.mean(panel.y_pre[panel.treated])),
    "post_treatment": float(np.mean(panel.y_post[panel.treated])),
}
for k, v in cells.items():
    print(f"  {k}: {v:+.3f}")
print(
    "cell-mean DID:",
    f"{ate_did_from_means(cells['pre_control'], cells['post_control'], cells['pre_treatment'], cells['post_treatment']):+.3f}",
)

post = fit_did(panel, cfg=SamplerConfig(draws=1500, warmup=300, chains=2, seed=0))
est = ate_did(post)
lo, hi = est.interval
print(f"posterior DID effect: {est.point:+.3f}  94% [{lo:+.3f}, {hi:+.3f}]")
print(f"true effect: {truth['true_ate']}")

print("\nfull posterior:")
for name, stats in summarize(post).items():
    print(f"  {name}: {stats['mean']:+.3f} (rhat {stats['rhat']:.4f})")

# with longer pre-periods the identifying assumption becomes testable
trend = parallel_trend_check([1.0, 1.2, 1.4], [2.0, 2.2, 2.4])
print(f"\nparallel-trend check on a 3-point example: pass={trend['pass']}")
