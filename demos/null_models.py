"""Three routes to one null distribution, and the momentum cancellation.

A drifted walk with steps uniform on [b-1, b] has a pattern distribution
known in closed form for n = 3, 4. The same distribution can be estimated
by Monte Carlo or by deterministic quadrature over the step cube. The
quadrature oracle audits the closed forms rather than arbitrating them:
its error is first order in 1/resolution when (1 - b) resolution is off an
integer (at n = 4 and b = 5/7 the largest pattern error is 1.09e-3 at
resolution 400). At b = 0.65 and resolution 400 that product is an
integer, so the three columns below agree to the Monte Carlo noise.
"""

import numpy as np

from ordinalwalk import (
    GeneratorSpec,
    StepModel,
    all_patterns,
    closed_form_uniform,
    empirical_distribution,
    generate,
    momentum_epsilon,
    monte_carlo_distribution,
    step_sign_distribution,
    volume_oracle,
)

B = 0.65


def main():
    model = StepModel.uniform(B)
    exact = closed_form_uniform(4, B)
    sampled = monte_carlo_distribution(model, 4, 500_000, seed=1)

    print(f"step law: {model.describe()}\n")
    print(f"{'pattern':<8} {'closed form':>12} {'monte carlo':>12} {'quadrature':>12}")
    for pat in all_patterns(4):
        print(f"{str(pat):<8} {exact.weight_of(pat):12.6f} "
              f"{sampled.weight_of(pat):12.6f} "
              f"{volume_oracle(pat, model, 400):12.6f}")

    gap = float(np.max(np.abs(exact.weights - sampled.weights)))
    print(f"\nmax |closed - MC| = {gap:.2e} at 5e5 samples")

    # Drift inflates the run patterns, but exactly as fast as powers of
    # the step sign probability: the excess over p(up)^(n-1) is zero for
    # the model, and only sampling noise away from zero for data drawn
    # from it.
    signs = step_sign_distribution(model)
    eps_model = momentum_epsilon(exact, signs, "up")
    walk = generate(GeneratorSpec("walk", 100_000, seed=5, step=model))
    eps_data = momentum_epsilon(
        empirical_distribution(walk, 4), empirical_distribution(walk, 2), "up"
    )
    print(f"momentum excess, model:  {eps_model}")
    print(f"momentum excess, sample: {eps_data:+.2e} (N = 1e5)")


if __name__ == "__main__":
    main()
