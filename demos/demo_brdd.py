"""Sharp regression discontinuity: a treatment switched on at a cutoff.

Units with running variable x >= 60 get the treatment; the vertical gap
between the two fitted regression lines at the cutoff is the local
treatment effect.
"""

from boat.brdd import ate_rdd, density_continuity_check, fit_rdd, predict_lines
from boat.nuts import SamplerConfig
from boat.simulate import ScenarioSpec, simulate_discontinuity

spec = ScenarioSpec(
    n_control=500,
    n_treated=500,
    true_ate=-1.2,
    cutoff=60.0,
    slope=0.5,
    seed=3,
)
data, truth = simulate_discontinuity(spec)

density = density_continuity_check(data.assignment, cutoff=60.0, bandwidth=4.0)
print(
    f"density check near the cutoff: {density['left_count']} left vs"
    f" {density['right_count']} right (p = {density['p_value']:.3f},"
    f" pass = {density['pass']})"
)

post = fit_rdd(data, cfg=SamplerConfig(draws=1500, warmup=300, chains=2, seed=0))
est = ate_rdd(post)
lo, hi = est.interval
print(f"\nlocal effect at the cutoff: {est.point:+.3f}  94% [{lo:+.3f}, {hi:+.3f}]")
print(f"true effect: {truth['true_ate']}")

lines = predict_lines(post, [50.0, 60.0, 70.0], cutoff=60.0)
print("\nfitted lines:")
for i, x in enumerate(lines["x"]):
    print(
        f"  x = {x:5.1f}: control {lines['y_control'][i]:+.3f},"
        f" treated {lines['y_treated'][i]:+.3f}"
    )
gap = lines["y_treated"][1] - lines["y_control"][1]
print(f"gap at the cutoff: {gap:+.3f}  (equals the point estimate exactly)")
