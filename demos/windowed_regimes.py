"""Windowed divergence scan across a regime change.

The first half of the series is a driftless walk, the second half drifts
upward hard. Every window is scored against the null built from its own
step increments, so the pure windows sit inside their bootstrap bands no
matter which regime they come from; only the window straddling the
splice mixes two step laws, and no single iid-step null reproduces a
mixture, so its divergence lands far outside.
"""

import numpy as np

from ordinalwalk import (
    AnalysisConfig,
    GeneratorSpec,
    NullSpec,
    StepModel,
    TimeSeries,
    WindowSpec,
    generate,
    windowed_analyze,
)


def spliced_series(n_each=600):
    calm = generate(GeneratorSpec("walk", n_each, seed=21,
                                  step=StepModel.uniform(0.5)))
    drift = generate(GeneratorSpec("walk", n_each, seed=22,
                                   step=StepModel.uniform(0.9)))
    return TimeSeries(np.concatenate([calm.values,
                                      drift.values + calm.values[-1]]))


def main():
    series = spliced_series()
    config = AnalysisConfig(
        orders=(4,),
        null=NullSpec(walk_length=200_000),
        replicates=100,
        seed=3,
    )
    windows = WindowSpec(window_length=600, stride=300)

    print(f"{'start':>6} {'PE_4':>8} {'kl':>10} {'band mean':>10} "
          f"{'band std':>9} {'z':>6}")
    for start, reports in windowed_analyze(series, windows, config):
        r = reports[0]
        z = (r.kl_to_model - r.kl_band_mean) / r.kl_band_std
        print(f"{start:>6} {r.permutation_entropy:8.4f} {r.kl_to_model:10.6f} "
              f"{r.kl_band_mean:10.6f} {r.kl_band_std:9.6f} {z:+6.1f}")
    print("\nwindow 1 is pure calm, window 601 pure drift; both score like"
          "\nwalks against their own nulls. Window 301 straddles the splice.")


if __name__ == "__main__":
    main()
