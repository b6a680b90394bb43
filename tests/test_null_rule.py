"""Which nulls have a closed form is decided once, by NullSpec, and the
command line decides which runs draw randomness from the objects it built."""

import json

import pytest

from ordinalwalk import (
    GeneratorSpec,
    NullModel,
    NullSpec,
    OrderError,
    RangeError,
    StepModel,
    build_nulls,
    closed_form_uniform,
    generate,
)
from ordinalwalk.cli import main


@pytest.mark.parametrize("spec, message", [
    (dict(), "the associated null has no closed form"),
    (dict(step=StepModel.empirical([-1.0, 0.5, 2.0])), "an empirical step law has no closed form"),
    (dict(step=StepModel.normal(0.5, 1.0)), "closed-form normal nulls require mu = 0"),
])
def test_null_spec_rejects_a_closed_form_that_does_not_exist(spec, message):
    with pytest.raises(RangeError, match=message):
        NullSpec(**spec, closed_form=True)


@pytest.mark.parametrize("step", [StepModel.empirical([-1.0, 0.5, 2.0]),
                                  StepModel.normal(0.5, 1.0)])
def test_a_law_without_a_closed_form_is_still_sampled(step):
    nulls = build_nulls([0.0, 1.0], (3, 4), NullSpec(step, samples=500), seed=3)
    assert [null.method for null in nulls] == ["monte_carlo", "monte_carlo"]


@pytest.mark.parametrize("step", [StepModel.uniform(0.6), StepModel.normal(0.0, 2.0)])
def test_closed_forms_keep_their_own_order_range(step):
    spec = NullSpec(step, closed_form=True)
    assert [m.method for m in build_nulls([0.0, 1.0], (3, 4), spec)] == ["closed_form"] * 2
    with pytest.raises(OrderError, match=r"closed forms exist for n in \(3, 4\), got 5"):
        build_nulls([0.0, 1.0], (4, 5), spec)


def test_null_model_checks_only_its_distribution_order():
    dist = closed_form_uniform(4, 0.6)
    model = NullModel(StepModel.uniform(0.6), 4, dist, "closed_form", 0, None)
    assert model.to_json_dict()["method"] == "closed_form"
    with pytest.raises(RangeError, match="distribution order does not match"):
        NullModel(StepModel.uniform(0.6), 3, dist, "closed_form", 0, None)


@pytest.fixture
def walk_csv(tmp_path):
    series = generate(GeneratorSpec("walk", 300, seed=5, step=StepModel.uniform(0.6)))
    path = tmp_path / "walk.csv"
    path.write_text("\n".join(repr(float(v)) for v in series.values) + "\n")
    return path


EXACT = ["--null", "uniform", "--closed-form", "--replicates", "0", "--orders", "3,4"]


@pytest.mark.parametrize("command", ["analyze", "window"])
def test_strict_jitter_run_needs_a_seed(walk_csv, command, capsys):
    # the jitter noise comes from the run seed, so the run is random even
    # with an exact null and no band
    argv = [command, str(walk_csv), "--strict", *EXACT, "--ties", "jitter",
            "--jitter-scale", "0.1"]
    if command == "window":
        argv += ["--window", "200", "--stride", "100"]
    assert main(argv) == 1
    assert "--strict requires --seed" in capsys.readouterr().err
    assert main([*argv, "--seed", "1"]) == 0


def test_strict_exact_run_without_jitter_needs_no_seed(walk_csv):
    assert main(["analyze", str(walk_csv), "--strict", *EXACT]) == 0
    assert main(["analyze", str(walk_csv), "--strict", *EXACT, "--ties", "strict"]) == 0


def test_nullmodel_closed_form_with_mu_is_numerical_error(capsys):
    argv = ["nullmodel", "--family", "normal", "--mu", "0.5", "--closed-form", "--n", "3"]
    assert main([*argv, "--strict"]) == 3
    assert "closed-form normal nulls require mu = 0" in capsys.readouterr().err
    assert main(["nullmodel", "--family", "normal", "--mu", "0.5", "--n", "3",
                 "--samples", "100", "--strict"]) == 1
    assert main(["nullmodel", "--family", "normal", "--closed-form", "--n", "3",
                 "--strict"]) == 0
    weights = json.loads(capsys.readouterr().out)["weights"]
    assert sum(weights.values()) == pytest.approx(1.0)
