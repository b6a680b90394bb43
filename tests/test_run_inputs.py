"""One statement per run input.

A seed is an int >= 0, a SeedSequence or a Generator (patterns._check_seed),
and None is refused; a fresh Generator draws what its int seed draws, its
jitter stream included, and a TiePolicy keeps a Generator's SeedSequence,
so one policy noises alike on every pass. A map's x0 is read by
GeneratorSpec's one reader, which raises SpecError for whatever it cannot
read. A CLI flag has one row of cli._FLAGS for each reading, and a config
value of null keeps the flag's own default.
"""

import json
from collections import Counter

import numpy as np
import pytest

from ordinalwalk import (
    AnalysisConfig,
    GeneratorSpec,
    NullSpec,
    RangeError,
    SpecError,
    StepModel,
    TiePolicy,
    build_nulls,
    generate,
    kl_to_null,
    monte_carlo_distribution,
    pattern_counts,
)
from ordinalwalk.cli import _FLAGS, main

WALK = generate(GeneratorSpec("walk", 300, seed=5, step=StepModel.uniform(0.6)))
JITTER = TiePolicy("jitter", 0.1)


@pytest.mark.parametrize("s", [0, 1, 12345])
def test_a_fresh_generator_seed_draws_the_bytes_of_its_int_seed(s):
    spec = NullSpec(walk_length=3000)
    given = build_nulls(WALK, (3, 4), spec, seed=np.random.default_rng(s), policy=JITTER)
    want = build_nulls(WALK, (3, 4), spec, seed=s, policy=JITTER)
    for a, b in zip(given, want):
        assert a.distribution.weights.tobytes() == b.distribution.weights.tobytes()
    assert (kl_to_null(WALK, 4, spec, np.random.default_rng(s), policy=JITTER)
            == kl_to_null(WALK, 4, spec, s, policy=JITTER))


def test_a_generator_seeded_policy_noises_alike_on_every_pass():
    series = np.repeat(np.arange(50.0), 4)
    policy = TiePolicy("jitter", 0.5, seed=np.random.default_rng(3))
    first, again = (pattern_counts(series, (4,), policy=policy)[4] for _ in range(2))
    assert first.tobytes() == again.tobytes()
    same = pattern_counts(series, (4,), policy=TiePolicy("jitter", 0.5, seed=3))[4]
    assert first.tobytes() == same.tobytes()


@pytest.mark.parametrize("call", [
    lambda: AnalysisConfig(seed=None),
    lambda: TiePolicy("jitter", 0.1, seed=None),
    lambda: build_nulls(WALK, (3,), NullSpec(walk_length=3000), seed=None),
    lambda: monte_carlo_distribution(StepModel.uniform(0.6), 3, 100, seed=None),
], ids=["AnalysisConfig", "TiePolicy", "build_nulls", "monte_carlo_distribution"])
def test_a_seed_of_none_is_refused(call):
    # fresh entropy could not be repeated, so no run draws it
    with pytest.raises(RangeError, match="^seed must be an integer, got None$"):
        call()


@pytest.mark.parametrize("kind, x0, noun", [
    ("logistic", float("inf"), "a number"),
    ("logistic", "inf", "a number"),
    ("logistic", "1e400", "a number"),
    ("logistic", 10 ** 400, "a number"),
    ("mod10", float("inf"), "a rational"),
], ids=["logistic-inf", "logistic-str-inf", "logistic-1e400", "logistic-10**400", "mod10-inf"])
def test_an_x0_the_map_cannot_read_is_a_spec_error(kind, x0, noun):
    with pytest.raises(SpecError, match=f"^cannot read x0 .* as {noun}$"):
        GeneratorSpec(kind, 10, x0=x0)


def test_simulate_refuses_an_infinite_x0_without_a_traceback(capsys):
    assert main(["simulate", "--kind", "logistic", "--length", "5", "--x0", "inf"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: cannot read x0 'inf' as a number\n"


def test_a_config_null_keeps_the_flags_own_default(tmp_path, capsysbinary):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": None, "format": None, "b": 0.6}))
    assert main(["nullmodel", "--closed-form", "--config", str(cfg)]) == 0
    from_config = capsysbinary.readouterr().out
    assert main(["nullmodel", "--closed-form", "--b", "0.6", "--n", "4"]) == 0
    assert capsysbinary.readouterr().out == from_config
    assert json.loads(from_config)["n"] == 4


def test_only_flags_read_differently_by_subcommand_have_several_rows():
    rows = Counter(names[0] for _, names, _ in _FLAGS)
    assert {name for name, count in rows.items() if count > 1} == {"--n", "--b", "--format"}
