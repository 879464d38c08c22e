"""Propensity-score matching on a deliberately confounded dataset.

The simulator makes the first covariate push units into treatment and
raise their baseline outcome, so the naive treated-vs-control contrast
is badly biased. Matching on the fitted propensity score removes most of
that bias.
"""

from boat.bpsm import (
    ate_psm,
    balance_report,
    fit_propensity,
    nn_match_1to1,
    positivity_check,
    propensity_scores,
)
from boat.effects import naive_ate
from boat.nuts import SamplerConfig
from boat.simulate import ScenarioSpec, simulate_confounded

spec = ScenarioSpec(
    n_control=400,
    n_treated=40,
    true_ate=-0.3,
    confound_strength=3.0,
    seed=11,
)
data, truth = simulate_confounded(spec)
print(f"true ATE: {truth['true_ate']}")
print(f"naive contrast: {naive_ate(data.t, data.y).point:+.3f}  (confounded)")

post = fit_propensity(data, cfg=SamplerConfig(draws=1500, warmup=300, chains=2, seed=0))
scores = propensity_scores(post, data, n_uncertainty_draws=25)
check = positivity_check(scores)
print(f"overlap fraction: {check['overlap_fraction']:.2f}")

match = nn_match_1to1(scores)
print(f"matched pairs: {len(match.pairs)}")

balance = balance_report(match, data)
for name, row in balance.items():
    print(
        f"  {name}: treated mean {row['mean_t']:.3f} vs control {row['mean_c']:.3f}"
        f"  (variance reduction {row['variance_reduction_vs_unmatched']:+.1%})"
    )

est = ate_psm(match, dict(zip(data.unit_ids.tolist(), data.y.tolist())))
lo, hi = est.interval
print(f"\nmatched ATE: {est.point:+.3f}  94% [{lo:+.3f}, {hi:+.3f}]")
