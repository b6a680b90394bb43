"""Ingestion, orchestration, windowing, and emission."""

import json

import numpy as np
import pytest

from ordinalwalk import (
    AnalysisConfig,
    EmptyError,
    GeneratorSpec,
    LengthError,
    NullSpec,
    ParseError,
    RangeError,
    StepModel,
    TiePolicy,
    WindowSpec,
    analyze,
    analyze_run,
    emit,
    generate,
    ingest_csv,
    windowed_analyze,
    windowed_run,
)

# ---------------------------------------------------------------- ingestion

def test_ingest_single_column(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("1.0\n2.0\n3.0\n")
    series = ingest_csv(path)
    np.testing.assert_array_equal(series.values, [1.0, 2.0, 3.0])


def test_ingest_header_and_named_column(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("date,close\n0,10.5\n1,10.7\n2,10.2\n")
    series = ingest_csv(path, column="close", header=True)
    np.testing.assert_array_equal(series.values, [10.5, 10.7, 10.2])


def test_ingest_blank_line_mid_series(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("1.0\n2.0\n\n3.0\n")
    with pytest.raises(ParseError, match="line 3"):
        ingest_csv(path)


def test_ingest_trailing_blank_ok(tmp_path):
    path = tmp_path / "trail.csv"
    path.write_text("1.0\n2.0\n\n\n")
    assert len(ingest_csv(path)) == 2


def test_ingest_non_numeric_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0\noops\n3.0\n")
    with pytest.raises(ParseError, match="line 2"):
        ingest_csv(path)


def test_ingest_nan_rejected(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("1.0\nnan\n")
    with pytest.raises(ParseError, match="line 2"):
        ingest_csv(path)


def test_ingest_short_row(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ParseError, match="line 2"):
        ingest_csv(path, column=1)


def test_ingest_negative_column_rejected(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("1,2\n3,4\n")
    with pytest.raises(ParseError, match="column index"):
        ingest_csv(path, column=-1)


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(EmptyError):
        ingest_csv(path)


def test_ingest_non_utf8_names_line(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"1.0\n2.0\ncaf\xe9\n3.0\n")
    with pytest.raises(ParseError, match="line 3: byte 0xe9 is not UTF-8"):
        ingest_csv(path)


def test_ingest_cell_over_csv_field_limit_names_line(tmp_path):
    # a cell longer than csv.field_size_limit() in the column being read
    path = tmp_path / "long.csv"
    path.write_text("t,x\n1,1.0\n2,2.0\n3," + "9" * 200_000 + "\n4,3.0\n")
    with pytest.raises(ParseError, match="line 4: field larger than field limit"):
        ingest_csv(path, column="x", header=True)


def test_ingest_missing_header_name(tmp_path):
    path = tmp_path / "named.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ParseError, match="line 1"):
        ingest_csv(path, column="c", header=True)


def test_named_column_requires_header(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1\n")
    with pytest.raises(ParseError):
        ingest_csv(path, column="close", header=False)


# ------------------------------------------------------------ orchestration

FAST = AnalysisConfig(orders=(3, 4), replicates=5,
                      null=NullSpec(walk_length=20_000), seed=3)


def _walk(n, seed=0, b=0.5):
    return generate(GeneratorSpec("walk", n, seed=seed, step=StepModel.uniform(b)))


def test_analyze_reports_per_order():
    reports = analyze(_walk(500), FAST)
    assert [r.n for r in reports] == [3, 4]
    for r in reports:
        assert 0.0 <= r.permutation_entropy <= 1.0
        assert r.kl_to_model >= 0.0
        assert r.kl_band_mean is not None and r.kl_band_std is not None
        assert r.classes_source == "reference"
        assert r.seed == 3


def test_analyze_degenerate_monotone_series():
    config = AnalysisConfig(orders=(4,), replicates=0,
                            null=NullSpec(walk_length=5_000), seed=1)
    report, = analyze(np.arange(100.0), config)
    assert report.permutation_entropy == 0.0
    assert report.missing_count == 23
    assert report.epsilon_up == 0.0
    assert report.kl_to_model == 0.0


def test_analyze_band_disabled_when_replicates_zero():
    config = AnalysisConfig(orders=(3,), replicates=0,
                            null=NullSpec(walk_length=5_000), seed=1)
    report, = analyze(_walk(300), config)
    assert report.kl_band_mean is None and report.kl_band_std is None


def test_analyze_self_consistent_band():
    # the series' own divergence should sit inside its replicate band
    config = AnalysisConfig(orders=(4,), replicates=40,
                            null=NullSpec(walk_length=200_000), seed=5)
    report, = analyze(_walk(2000, seed=11), config)
    assert abs(report.kl_to_model - report.kl_band_mean) <= 3 * report.kl_band_std


def test_analyze_length_guard():
    with pytest.raises(LengthError):
        analyze(np.arange(4.0), AnalysisConfig(orders=(7,)))


@pytest.mark.parametrize("length, orders, delay, needs", [(4, (5,), 1, 5), (6, (3, 4), 2, 7)])
def test_too_short_names_length_order_and_delay(length, orders, delay, needs):
    # the message comes from pattern extraction, for a whole series and a window
    message = (f"series of length {length} is too short for order {max(orders)} "
               f"at delay {delay} (needs {needs})")
    config = AnalysisConfig(orders=orders, delay=delay, replicates=0,
                            null=NullSpec(walk_length=500))
    with pytest.raises(LengthError) as whole:
        analyze(np.arange(float(length)), config)
    assert str(whole.value) == message
    with pytest.raises(LengthError) as window:
        windowed_analyze(np.arange(float(length + 3)), WindowSpec(length, 3), config)
    assert str(window.value) == message


def test_config_validation():
    with pytest.raises(RangeError):
        AnalysisConfig(orders=(2,))
    with pytest.raises(RangeError):
        AnalysisConfig(orders=(8,))
    with pytest.raises(RangeError):
        AnalysisConfig(orders=())
    with pytest.raises(RangeError):
        AnalysisConfig(delay=0)
    with pytest.raises(RangeError):
        AnalysisConfig(replicates=-1)


def test_rc_closure_fallback_above_five():
    config = AnalysisConfig(orders=(6,), replicates=0,
                            null=NullSpec(walk_length=5_000), seed=2)
    report, = analyze(_walk(900), config)
    assert report.classes_source == "rc_closure"


def test_analyze_scale_invariant_end_to_end():
    series = _walk(400, seed=9)
    mapped = series.values * 4.0 + 1000.0  # exact in binary floats
    a = analyze(series, FAST)
    b = analyze(mapped, FAST)
    for ra, rb in zip(a, b):
        assert ra == rb


def test_analyze_deterministic():
    series = _walk(300, seed=2)
    assert analyze(series, FAST) == analyze(series, FAST)


def test_jitter_follows_the_run_seed():
    # a tie-heavy series: the jitter draw decides most patterns, so two
    # seeds must give two empirical distributions, and one seed one
    series = np.repeat(np.arange(40.0), 3)
    config = dict(orders=(3,), policy=TiePolicy("jitter", jitter_scale=0.1),
                  null=NullSpec(walk_length=2_000), replicates=0)
    runs = [analyze_run(series, AnalysisConfig(seed=seed, **config)) for seed in (1, 2, 1)]
    first, second, again = (run.per_order[0].empirical.weights for run in runs)
    assert not np.array_equal(first, second)
    assert np.array_equal(first, again)


def test_jitter_policy_seed_is_rejected():
    # analysis draws the jitter from the run seed, so a policy seed would be ignored
    with pytest.raises(RangeError):
        AnalysisConfig(policy=TiePolicy("jitter", jitter_scale=0.1, seed=5))
    AnalysisConfig(policy=TiePolicy("stable", seed=5))


# ---------------------------------------------------------------- windowing

def test_window_count_and_starts():
    series = generate(GeneratorSpec("iid_uniform", 100, seed=1))
    config = AnalysisConfig(orders=(3,), replicates=0,
                            null=NullSpec(walk_length=2_000), seed=1)
    out = windowed_analyze(series, WindowSpec(50, 25), config)
    assert [start for start, _ in out] == [1, 26, 51]


def test_window_equals_whole_series_when_w_is_n():
    series = _walk(250, seed=8)
    config = AnalysisConfig(orders=(3, 4), replicates=4,
                            null=NullSpec(walk_length=10_000), seed=6)
    whole = analyze(series, config)
    (start, windowed), = windowed_analyze(series, WindowSpec(250, 1), config)
    assert start == 1
    assert windowed == whole


def test_window_too_long():
    with pytest.raises(LengthError):
        windowed_analyze(np.arange(10.0), WindowSpec(11, 1),
                         AnalysisConfig(orders=(3,), replicates=0, seed=0))


def test_window_spec_validation():
    with pytest.raises(RangeError):
        WindowSpec(1, 1)
    with pytest.raises(RangeError):
        WindowSpec(50, 0)


def test_windowed_constant_steps_all_zero():
    config = AnalysisConfig(orders=(3,), replicates=2,
                            null=NullSpec(walk_length=2_000), seed=4)
    out = windowed_analyze(np.arange(120.0), WindowSpec(60, 30), config)
    assert len(out) == 3
    for _, reports in out:
        assert reports[0].kl_to_model == 0.0
        assert reports[0].kl_band_mean == 0.0


def test_regime_change_is_visible():
    # two regimes glued together: the window straddling the seam holds a
    # mixture of step laws, which no single iid-step null reproduces, so
    # its divergence rises above the pure windows'. The drift is strong
    # (b=0.9) because at b=0.8 the effect drowns in window noise.
    calm = generate(GeneratorSpec("walk", 600, seed=3, step=StepModel.uniform(0.5)))
    drift = generate(GeneratorSpec("walk", 600, seed=4, step=StepModel.uniform(0.9)))
    glued = np.concatenate([calm.values, calm.values[-1] + drift.values])
    config = AnalysisConfig(orders=(4,), replicates=0,
                            null=NullSpec(walk_length=100_000), seed=9)
    out = windowed_analyze(glued, WindowSpec(400, 400), config)
    assert len(out) == 3
    pure_left = out[0][1][0].kl_to_model
    straddling = out[1][1][0].kl_to_model
    assert straddling > pure_left


# ----------------------------------------------------------------- emission

def test_emit_json_shape():
    result = analyze_run(_walk(300), FAST)
    doc = json.loads(emit(result, "json"))
    assert doc["seed"] == 3
    assert [r["n"] for r in doc["reports"]] == [3, 4]
    assert set(doc["reports"][0]) >= {"permutation_entropy", "kl_to_model", "seed"}


def test_emit_csv_schema():
    result = analyze_run(_walk(300), FAST)
    lines = emit(result, "csv").decode().splitlines()
    assert lines[0] == ("window_start,n,pe,missing,kl,kl_mean,kl_std,g,"
                        "eps_up,eps_down,seed")
    assert len(lines) == 3  # header + one row per order
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "3" and first[-1] == "3"


def test_emit_csv_empty_band_cells():
    config = AnalysisConfig(orders=(3,), replicates=0,
                            null=NullSpec(walk_length=2_000), seed=0)
    result = analyze_run(_walk(200), config)
    row = emit(result, "csv").decode().splitlines()[1].split(",")
    assert row[5] == "" and row[6] == ""


def test_emit_plotdata_rows():
    config = AnalysisConfig(orders=(3,), replicates=0,
                            null=NullSpec(walk_length=2_000), seed=0)
    result = analyze_run(_walk(200), config)
    lines = emit(result, "plotdata").decode().splitlines()
    assert lines[0] == "window_start,n,pattern,empirical,null"
    assert len(lines) == 1 + 6  # 3! patterns
    pats = [line.split(",")[2] for line in lines[1:]]
    assert pats == ["123", "132", "213", "231", "312", "321"]


def test_emit_windowed_json():
    series = generate(GeneratorSpec("iid_uniform", 80, seed=2))
    config = AnalysisConfig(orders=(3,), replicates=0,
                            null=NullSpec(walk_length=2_000), seed=2)
    results = windowed_run(series, WindowSpec(40, 20), config)
    doc = json.loads(emit(results, "json"))
    assert [w["window_start"] for w in doc["windows"]] == [1, 21, 41]


def test_emit_rejects_unknown_format():
    result = analyze_run(_walk(200), FAST)
    with pytest.raises(RangeError):
        emit(result, "yaml")


def test_emit_deterministic_bytes():
    series = _walk(300, seed=12)
    a = emit(analyze_run(series, FAST), "json")
    b = emit(analyze_run(series, FAST), "json")
    assert a == b
