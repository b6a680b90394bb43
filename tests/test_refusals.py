"""Every input a constructor or entry point refuses raises its typed error
(the CLI: exits with its code and message). One parametrized test per
module, each case a refusal that no other test reaches. Each integer
argument refuses 2.5, True and "3" at the call that receives it, before
any draw or read (patterns._check_int)."""

import numpy as np
import pytest

from ordinalwalk import (
    AnalysisConfig,
    EquivalenceClassTable,
    GeneratorSpec,
    MetricReport,
    NullSpec,
    OrderError,
    OrderMismatchError,
    OrdinalPattern,
    ParseError,
    PatternDistribution,
    RangeError,
    SpecError,
    StepModel,
    TiePolicy,
    WindowSpec,
    build_null,
    emit,
    empirical_distribution,
    ingest_csv,
    kl_divergence,
    lex_unrank,
    monte_carlo_distribution,
    pattern_counts,
    symmetry_transform,
    volume_oracle,
)
from ordinalwalk.cli import main
from ordinalwalk.patterns import _symmetry_ranks

PATTERN_12 = OrdinalPattern((1, 2))
PATTERN_123 = OrdinalPattern((1, 2, 3))
SAMPLED_3 = PatternDistribution(3, np.full(6, 1 / 6), "empirical", 60)
WALK_40 = np.cumsum(np.arange(40.0) % 3 - 1)
UNIFORM = StepModel.uniform(0.6)
#: the non-integers every integer argument refuses, and how its message shows each
NOT_INTEGERS = [(2.5, "2.5"), (True, "True"), ("3", "'3'")]


@pytest.fixture(autouse=True)
def _in_tmp_path(tmp_path, monkeypatch):
    # a row that reads a file finds it, or its absence, in its own directory
    monkeypatch.chdir(tmp_path)


def _written(data: bytes) -> str:
    with open("in.csv", "wb") as handle:
        handle.write(data)
    return "in.csv"


def _not_integers(name, call, *error):
    """A row per non-integer: call(value) refuses it, naming the argument;
    error, if given, fills the row's error column."""
    return [(lambda value=value: call(value), *error, f"^{name} must be an integer, got {shown}$")
            for value, shown in NOT_INTEGERS]


def _ids(name):
    return [f"{name} {shown}" for _, shown in NOT_INTEGERS]


@pytest.mark.parametrize("call, error, message", [
    (lambda: AnalysisConfig(smoothing=-1), RangeError, "smoothing must be >= 0, got -1"),
    (lambda: AnalysisConfig(smoothing=float("nan")), RangeError,
     "smoothing must be finite, got nan"),
    (lambda: AnalysisConfig(smoothing=float("inf")), RangeError,
     "smoothing must be finite, got inf"),
    (lambda: AnalysisConfig(seed=-1), RangeError, "seed must be >= 0, got -1"),
    (lambda: emit([]), RangeError, "nothing to emit"),
    (lambda: emit([object()]), RangeError, "emit expects AnalysisResult values"),
    (lambda: ingest_csv(_written(b"\xffx\n1.0\n2.0\n"), header=True), ParseError,
     r"^in\.csv: line 1: byte 0xff is not UTF-8$"),
    (lambda: ingest_csv("absent.csv", column=0.0), ParseError,
     r"^absent\.csv: column index must be an integer, got 0\.0$"),
    *_not_integers("delay", lambda v: AnalysisConfig(delay=v), RangeError),
    *_not_integers("seed", lambda v: AnalysisConfig(seed=v), RangeError),
    *_not_integers("replicates", lambda v: AnalysisConfig(replicates=v), RangeError),
    *_not_integers("window length", lambda v: WindowSpec(v, 1), RangeError),
    *_not_integers("stride", lambda v: WindowSpec(10, v), RangeError),
    *_not_integers("absent.csv: column index", lambda v: ingest_csv("absent.csv", column=v),
                   ParseError)[:2],  # "3" is a column name
], ids=["negative smoothing", "NaN smoothing", "infinite smoothing", "negative seed",
        "emit nothing", "emit a non-result", "header not UTF-8", "column 0.0",
        *_ids("delay"), *_ids("seed"), *_ids("replicates"), *_ids("window length"),
        *_ids("stride"), *_ids("column")[:2]])
def test_analysis_refuses(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("call, error, message", [
    (lambda: EquivalenceClassTable(3, ((0, 1, 2), (3, 4)), "reference"), OrderError,
     "classes do not partition the 6 patterns of order 3"),
    (lambda: EquivalenceClassTable(3, ((0, 1, 2), (2, 3, 4, 5)), "reference"), OrderError,
     "classes do not partition"),
    (lambda: EquivalenceClassTable(3, (tuple(range(6)),), "reference").class_of(PATTERN_12),
     OrderMismatchError, "pattern order 2 vs table order 3"),
    *_not_integers("class rank", lambda v: EquivalenceClassTable(3, ((0, 1, 2), (3, 4, v)),
                                                                "reference"), OrderError),
], ids=["a rank missing", "a rank twice", "class_of at another order", *_ids("class rank")])
def test_classes_refuse(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.fixture
def walk_csv(tmp_path):
    path = tmp_path / "walk.csv"
    path.write_text("".join(f"{v!r}\n" for v in np.cumsum(np.arange(40.0) % 3 - 1).tolist()))
    return path


@pytest.mark.parametrize("argv, config, code, message", [
    (["analyze", "{csv}", "--orders", "3,x"], None, 1,
     "usage error: expected comma-separated integers, got '3,x'"),
    (["oracle", "--b", "0.6,b"], None, 1, "usage error: expected comma-separated numbers"),
    (["analyze", "{csv}", "--config", "{missing}"], None, 1,
     "usage error: cannot read config file"),
    (["analyze", "{csv}", "--config", "{config}"], "{orders: 3}", 1,
     "usage error: config file is not valid JSON"),
    (["analyze", "{csv}", "--config", "{config}"], "[3, 4]", 1,
     "usage error: config file must hold a JSON object"),
    (["simulate", "--length", "10"], None, 1, "usage error: simulate needs --kind"),
    (["simulate", "--kind", "walk"], None, 1, "usage error: simulate needs --length"),
    (["simulate", "--kind", "walk", "--length", "10", "--seed", "1"], None, 1,
     "usage error: walk simulation needs --step-family"),
    (["analyze", "{csv}", "--seed", "-1"], None, 1, "usage error: --seed must be >= 0, got -1"),
    (["window", "{csv}", "--window", "20", "--stride", "10", "--seed", "-1"], None, 1,
     "usage error: --seed must be >= 0, got -1"),
    (["simulate", "--kind", "iid_uniform", "--length", "10", "--seed", "-1"], None, 1,
     "usage error: --seed must be >= 0, got -1"),
    (["nullmodel", "--n", "3", "--samples", "100", "--seed", "-1"], None, 1,
     "usage error: --seed must be >= 0, got -1"),
    (["analyze", "{csv}", "--config", "{config}"], '{"seed": -1}', 1,
     "usage error: --seed must be >= 0, got -1"),
    (["analyze", "{csv}", "--walk-length", "300", "--replicates", "4", "--smoothing", "nan"],
     None, 3, "numerical error: smoothing must be finite, got nan"),
    (["analyze", "{csv}", "--walk-length", "300", "--replicates", "4", "--smoothing", "inf"],
     None, 3, "numerical error: smoothing must be finite, got inf"),
], ids=["bad integer list", "bad number list", "unreadable config", "config not JSON",
        "config not an object", "simulate without kind", "simulate without length",
        "walk without step family", "analyze negative seed", "window negative seed",
        "simulate negative seed", "nullmodel negative seed", "config negative seed",
        "NaN smoothing", "infinite smoothing"])
def test_cli_refuses(tmp_path, walk_csv, capsys, argv, config, code, message):
    paths = {"csv": walk_csv, "missing": tmp_path / "missing.json",
             "config": tmp_path / "config.json"}
    if config is not None:
        paths["config"].write_text(config)
    assert main([arg.format(**paths) for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("spec, message", [
    (dict(kind="logistic", x0="a half"), "cannot read x0 'a half' as a number"),
    (dict(kind="logistic", x0=None), "cannot read x0 None as a number"),
    (dict(kind="mod10", x0="1/x"), "cannot read x0 '1/x' as a rational"),
    (dict(kind="iid_uniform", seed=-1), "seed must be >= 0, got -1"),
    (dict(kind="sine", length=0), "^length must be >= 1, got 0$"),
    *[(dict(kind="sine", length=value), f"^length must be an integer, got {shown}$")
      for value, shown in NOT_INTEGERS],
    *[(dict(kind="iid_uniform", seed=value), f"^seed must be an integer, got {shown}$")
      for value, shown in NOT_INTEGERS],
], ids=["logistic x0", "logistic x0 None", "mod10 x0", "negative seed", "length 0",
        *_ids("length"), *_ids("seed")])
def test_generators_refuse(spec, message):
    with pytest.raises(SpecError, match=message):
        GeneratorSpec(**{"length": 10, **spec})


@pytest.mark.parametrize("call, message", [
    (lambda: MetricReport(3, 1.5, 0), r"permutation entropy out of \[0, 1\]"),
    (lambda: MetricReport(3, -0.1, 0), r"permutation entropy out of \[0, 1\]"),
    (lambda: MetricReport(3, 0.5, -1), "missing_count out of range: -1"),
    (lambda: MetricReport(3, 0.5, 7), "missing_count out of range: 7"),
    (lambda: kl_divergence(SAMPLED_3, SAMPLED_3, float("nan")),
     "smoothing must be finite, got nan"),
    (lambda: kl_divergence(SAMPLED_3, SAMPLED_3, float("-inf")),
     "smoothing must be finite, got -inf"),
], ids=["entropy above 1", "entropy below 0", "negative missing", "missing above 3!",
        "NaN smoothing", "infinite smoothing"])
def test_metrics_refuse(call, message):
    with pytest.raises(RangeError, match=message):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: StepModel("uniform_b", b=0.5, mu=0.0), "uniform_b takes only b"),
    (lambda: StepModel("normal", mu=0.0, sigma=1.0, b=0.5), "normal takes only mu and sigma"),
    (lambda: StepModel("normal", mu=0.0, sigma=1.0, steps=np.ones(3)),
     "normal takes only mu and sigma"),
    (lambda: StepModel("empirical", steps=np.ones(3), sigma=1.0), "empirical takes only steps"),
    (lambda: StepModel("cauchy"), "unknown step family 'cauchy'"),
    (lambda: NullSpec(step="uniform"), "a null's step law must be a StepModel"),
    (lambda: NullSpec(walk_length=1), "walk_length must be >= 2"),
    (lambda: build_null(WALK_40, 3, NullSpec(StepModel.uniform(0.6), samples=100), -1),
     "seed must be >= 0, got -1"),
    (lambda: build_null(WALK_40, 3, NullSpec(walk_length=2000), -1),
     "seed must be >= 0, got -1"),
    (lambda: monte_carlo_distribution(StepModel.uniform(0.6), 3, 100, seed=-1),
     "seed must be >= 0, got -1"),
    (lambda: StepModel("empirical"), "empirical needs a step multiset"),
    (lambda: StepModel.normal(float("nan"), 1.0),
     "^normal needs finite mu and sigma, got mu=nan sigma=1.0$"),
    (lambda: StepModel.normal(0.0, float("inf")),
     "^normal needs finite mu and sigma, got mu=0.0 sigma=inf$"),
    *_not_integers("seed", lambda v: monte_carlo_distribution(UNIFORM, 3, 100, seed=v)),
    *_not_integers("samples", lambda v: NullSpec(UNIFORM, samples=v)),
    *_not_integers("walk_length", lambda v: NullSpec(walk_length=v)),
    *_not_integers("resolution", lambda v: volume_oracle(PATTERN_123, UNIFORM, v)),
], ids=["uniform with mu", "normal with b", "normal with steps", "empirical with sigma",
        "unknown family", "step not a StepModel", "walk length 1",
        "parametric null negative seed", "associated null negative seed",
        "Monte Carlo negative seed", "empirical without steps", "normal NaN mu",
        "normal infinite sigma", *_ids("seed"), *_ids("samples"), *_ids("walk_length"),
        *_ids("resolution")])
def test_nullmodels_refuse(call, message):
    with pytest.raises(RangeError, match=message):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: TiePolicy("random"), "unknown tie mode 'random'"),
    (lambda: TiePolicy("jitter", 0.1, seed=-1), "seed must be >= 0, got -1"),
    (lambda: OrdinalPattern.from_string("1a2"), "cannot parse pattern string '1a2'"),
    (lambda: PatternDistribution(3, np.full(5, 0.2), "model"),
     r"expected 6 weights for order 3, got shape \(5,\)"),
    (lambda: PatternDistribution(2, [1.5, -0.5], "model"), "weights must be nonnegative"),
    (lambda: PatternDistribution(2, [0.5, 0.5], "sampled"), "unknown distribution kind"),
    (lambda: PatternDistribution(2, [0.5, 0.5], "model", -1),
     "sample_count must be nonnegative"),
    (lambda: PatternDistribution.uniform(3).weight_of(PATTERN_12),
     "pattern order 2 does not match distribution order 3"),
    (lambda: lex_unrank(3, 6), r"rank must be in \[0, 3!\), got 6"),
    (lambda: lex_unrank(3, -1), r"rank must be in \[0, 3!\), got -1"),
    (lambda: lex_unrank(3, 1.0), "rank must be an integer"),
    (lambda: symmetry_transform(PATTERN_123, "rotate"), "unknown symmetry 'rotate'"),
    (lambda: _symmetry_ranks(3, "rotate"), "unknown symmetry 'rotate'"),
    (lambda: pattern_counts(np.array([[1.0, np.nan, 2.0]]), (2,)),
     "a series stack must be nonempty and finite"),
    (lambda: pattern_counts(np.zeros((0, 3)), (2,)),
     "a series stack must be nonempty and finite"),
    (lambda: TiePolicy("jitter"), "^jitter mode requires jitter_scale > 0$"),
    (lambda: empirical_distribution(WALK_40, 3, 0), "^delay must be >= 1, got 0$"),
    (lambda: PatternDistribution(2.5, [0.5, 0.5], "model"), "^orders must be integers, got 2.5$"),
    (lambda: PatternDistribution(True, [0.5, 0.5], "model"),
     r"^patterns support orders 2\.\.7, got 1$"),
    (lambda: PatternDistribution("3", np.full(6, 1 / 6), "model"),
     "^orders must be integers, got '3'$"),
    *_not_integers("delay", lambda v: empirical_distribution(WALK_40, 3, v)),
    *_not_integers("seed", lambda v: TiePolicy("jitter", 0.1, v)),
    *_not_integers("pattern value", lambda v: OrdinalPattern((2, 1, v))),
    *_not_integers("sample_count", lambda v: PatternDistribution(2, [0.5, 0.5], "model", v)),
    *_not_integers("rank", lambda v: lex_unrank(3, v)),
], ids=["unknown tie mode", "jitter negative seed", "unparsable pattern", "weights of another shape",
        "negative weight", "unknown kind", "negative sample count", "weight_of another order",
        "rank past n!", "negative rank", "float rank", "unknown symmetry",
        "unknown symmetry table", "NaN in a stack", "empty stack", "jitter without a scale",
        "delay 0", "order 2.5", "order True", "order '3'", *_ids("delay"), *_ids("seed"),
        *_ids("pattern value"), *_ids("sample_count"), *_ids("rank")])
def test_patterns_refuse(call, message):
    with pytest.raises(RangeError, match=message):
        call()
