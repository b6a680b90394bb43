"""Equal-probability classes as a structural check on walk data.

Any walk with i.i.d. steps puts equal probability on certain groups of
patterns (4 groups at n=3, 14 at n=4, 58 at n=5). The package derives
these groups on first use from the walks of a box of integer step
vectors, and each is the full partition: patterns that every such walk
hits equally often are equally likely under every step law. Empirical
weights from a genuine walk should be flat within each group up to
sampling noise, so the within-class spread doubles as a cheap model
check: it shrinks with sample size for walks and stays put for anything
else.
"""

from ordinalwalk import (
    GeneratorSpec,
    StepModel,
    empirical_distribution,
    equivalence_classes,
    g_statistic,
    generate,
    rc_closure,
    validate_classes,
)


def main():
    table = equivalence_classes(4)
    print(f"n=4 classes ({len(table.classes)}):")
    for group in table.as_strings():
        print("  " + " ".join(group))

    closure = rc_closure(4)
    print(f"\nreverse-complement orbits at n=4: {len(closure.classes)} "
          "(finer; valid for any order, provably equal for walks)")

    step = StepModel.uniform(0.6)
    print(f"\nwithin-class spread for a {step.describe()} walk:")
    for n_obs in (1_000, 10_000, 100_000, 1_000_000):
        walk = generate(GeneratorSpec("walk", n_obs, seed=2, step=step))
        dist = empirical_distribution(walk, 4)
        g = g_statistic(dist, table)
        report = validate_classes(dist, table, tolerance=0.004)
        flag = "pass" if report.passed else "FAIL"
        print(f"  N={n_obs:>9,}  g={g:.5f}  max spread={report.max_spread:.5f}"
              f"  [{flag} at 0.004]")

    noise = generate(GeneratorSpec("iid_uniform", 1_000_000, seed=2))
    g_noise = g_statistic(empirical_distribution(noise, 4), table)
    print(f"\nsame check on iid noise at N=1,000,000: g={g_noise:.5f} "
          "(does not shrink: noise is not a walk)")


if __name__ == "__main__":
    main()
