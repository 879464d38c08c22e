"""Sample a correlated 2-D Gaussian with the built-in NUTS sampler.

Shows the raw sampler API: define a log density and its gradient, run a
few chains, and read the convergence diagnostics and the per-chain
sampler statistics (the metric each chain adapted in warm-up).
"""

import numpy as np

from boat.nuts import SamplerConfig, Target, sample, summarize

# target: zero-mean Gaussian with correlation 0.8
rho = 0.8
cov = np.array([[1.0, rho], [rho, 1.0]])
prec = np.linalg.inv(cov)

target = Target(
    logp=lambda q: -0.5 * float(q @ prec @ q),
    grad=lambda q: -prec @ q,
    names=("u", "v"),
)

cfg = SamplerConfig(draws=2200, warmup=200, chains=4, seed=1)
post = sample(target, None, cfg=cfg)

pooled = post.draws.reshape(-1, 2)
print("posterior summary:")
for name, stats in summarize(post).items():
    lo, hi = stats["interval_94"]
    print(
        f"  {name}: mean {stats['mean']:+.4f}  sd {stats['std']:.4f}"
        f"  94% [{lo:+.3f}, {hi:+.3f}]  rhat {stats['rhat']:.4f}"
    )

print("\nempirical covariance of the draws:")
print(np.cov(pooled.T).round(3))
print("\nper chain: step size, adapted metric diagonal, leapfrog steps per kept draw"
      " (and with warm-up's added), E-BFMI")
kept = cfg.draws - cfg.warmup
for c, st in enumerate(post.chain_stats):
    whole = st.warmup_leapfrog_steps + st.leapfrog_steps
    print(f"  chain {c}: {st.step_size:.3f}  {np.round(st.metric_diag, 3)}"
          f"  {st.leapfrog_steps / kept:.1f} ({whole / kept:.1f})  {st.e_bfmi:.2f}")
print(f"\ndivergences per chain: {post.diagnostics['_divergences']}")
print(f"warnings: {post.warnings or 'none'}")
