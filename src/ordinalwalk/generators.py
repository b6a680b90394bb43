"""Seeded synthetic series for tests and experiments.

generate(spec) covers five families: iid_uniform, walk (any StepModel),
the full logistic map 4x(1-x), the decimal shift map 10x mod 1, and a
plain sine wave. Same spec, same output, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Rational
from typing import Literal

import numpy as np

from .errors import SpecError
from .nullmodels import StepModel, _sample_steps, _walks
from .patterns import TimeSeries, _check_int

_KINDS = ("iid_uniform", "walk", "logistic", "mod10", "sine")


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one synthetic series.

    kind selects the family; length is the number of samples N >= 1.
    seed matters for the stochastic kinds (iid_uniform, walk), step only
    for walk, x0 only for the iterated maps (logistic, mod10; must lie in
    (0, 1), and mod10 also accepts a string or Fraction to control the
    exact rational orbit), and period/phase/amplitude only for sine.
    """

    kind: Literal["iid_uniform", "walk", "logistic", "mod10", "sine"]
    length: int
    seed: int = 0
    step: StepModel | None = None
    x0: float | str | Rational = 0.4
    period: float = 20.0
    phase: float = 0.0
    amplitude: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise SpecError(f"unknown generator kind {self.kind!r}")
        object.__setattr__(self, "length", _check_int(self.length, "length", 1, SpecError))
        object.__setattr__(self, "seed", _check_int(self.seed, "seed", 0, SpecError))
        if self.kind == "walk" and self.step is None:
            raise SpecError("walk generation needs a StepModel")
        if self.kind in ("logistic", "mod10") and not 0 < self._x0() < 1:
            raise SpecError(f"map iteration needs x0 in (0, 1), got {self.x0}")
        if self.kind == "sine" and not self.period > 0:
            raise SpecError(f"sine needs period > 0, got {self.period}")

    def _x0(self) -> float | Rational:
        """x0 as the map iterates it: mod10's exact Fraction, or the
        logistic map's finite float."""
        try:
            if self.kind == "mod10":
                from fractions import Fraction  # loads decimal, which only mod10 needs

                return Fraction(self.x0)
            x0 = float(self.x0)
            x0.as_integer_ratio()  # refuses nan and inf, as Fraction(x0) would
            return x0
        except (TypeError, ValueError, OverflowError) as exc:
            noun = "a rational" if self.kind == "mod10" else "a number"
            raise SpecError(f"cannot read x0 {self.x0!r} as {noun}") from exc


def generate(spec: GeneratorSpec) -> TimeSeries:
    """Produce the series a GeneratorSpec describes."""
    if spec.kind == "iid_uniform":
        rng = np.random.default_rng(spec.seed)
        return TimeSeries(rng.random(spec.length))
    if spec.kind == "walk":
        rng = np.random.default_rng(spec.seed)
        return TimeSeries(_walks(_sample_steps(spec.step, spec.length - 1, rng)))
    if spec.kind == "logistic":
        return _logistic(spec._x0(), spec.length)
    if spec.kind == "mod10":
        return _mod10(spec._x0(), spec.length)
    t = np.arange(1, spec.length + 1, dtype=np.float64)
    return TimeSeries(spec.amplitude * np.sin(2.0 * np.pi * t / spec.period + spec.phase))


def _logistic(x0: float, length: int) -> TimeSeries:
    out = np.empty(length)
    x = x0
    out[0] = x
    for i in range(1, length):
        x = 4.0 * x * (1.0 - x)
        out[i] = x
    return TimeSeries(out)


def _mod10(x0: Rational, length: int) -> TimeSeries:
    # Exact rational iteration: the state is the numerator over a fixed
    # denominator, and x -> 10x mod 1 maps num -> 10*num mod den. Any
    # revisited state means the orbit is periodic and pattern statistics
    # past that point would be artifacts, so that is an error. Note the
    # consequence for binary floats: their denominators are powers of two,
    # which 10's factor of 2 grinds down to the fixed point 0 within about
    # 55 steps, so long mod10 runs need a rational x0 whose denominator is
    # coprime to 10 (for example Fraction(1, 2003)).
    den = x0.denominator
    num = x0.numerator
    out = np.empty(length)
    seen = set()
    for i in range(length):
        if num in seen:
            raise SpecError(
                f"mod10 orbit from {x0} is periodic after {i} steps; "
                "choose an initial condition with a longer orbit"
            )
        seen.add(num)
        out[i] = num / den
        num = (10 * num) % den
    return TimeSeries(out)
