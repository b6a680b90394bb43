"""Command line behavior: subcommands, exit codes, determinism."""

import json

import numpy as np
import pytest

from ordinalwalk.cli import main


def _walk_csv(tmp_path, n=400, seed=5, name="series.csv"):
    from ordinalwalk import GeneratorSpec, StepModel, generate

    series = generate(GeneratorSpec("walk", n, seed=seed, step=StepModel.uniform(0.6)))
    path = tmp_path / name
    path.write_text("\n".join(repr(float(v)) for v in series.values) + "\n")
    return path


FAST_FLAGS = ["--replicates", "3", "--walk-length", "5000", "--orders", "3,4"]


def test_analyze_json_runs(tmp_path, capsysbinary):
    path = _walk_csv(tmp_path)
    code = main(["analyze", str(path), "--seed", "7", *FAST_FLAGS])
    assert code == 0
    doc = json.loads(capsysbinary.readouterr().out)
    assert doc["seed"] == 7
    assert [r["n"] for r in doc["reports"]] == [3, 4]


def test_analyze_deterministic_bytes(tmp_path, capsysbinary):
    path = _walk_csv(tmp_path)
    argv = ["analyze", str(path), "--seed", "11", *FAST_FLAGS]
    assert main(argv) == 0
    first = capsysbinary.readouterr().out
    assert main(argv) == 0
    second = capsysbinary.readouterr().out
    assert first == second


def test_analyze_csv_format(tmp_path, capsysbinary):
    path = _walk_csv(tmp_path)
    code = main(["analyze", str(path), "--seed", "1", "--format", "csv", *FAST_FLAGS])
    assert code == 0
    lines = capsysbinary.readouterr().out.decode().splitlines()
    assert lines[0].startswith("window_start,n,pe,")
    assert len(lines) == 3


def test_analyze_output_file(tmp_path):
    path = _walk_csv(tmp_path)
    out = tmp_path / "report.json"
    code = main(["analyze", str(path), "--seed", "1", "-o", str(out), *FAST_FLAGS])
    assert code == 0
    assert json.loads(out.read_text())["seed"] == 1


def test_analyze_named_column_with_header(tmp_path, capsysbinary):
    path = tmp_path / "named.csv"
    rows = ["idx,price"] + [f"{i},{100 + ((i * 7919) % 13) + i * 0.5}" for i in range(60)]
    path.write_text("\n".join(rows) + "\n")
    code = main(["analyze", str(path), "--column", "price", "--header",
                 "--seed", "1", "--orders", "3", "--replicates", "0",
                 "--walk-length", "2000"])
    assert code == 0
    assert json.loads(capsysbinary.readouterr().out)["reports"][0]["n"] == 3


def test_window_subcommand(tmp_path, capsysbinary):
    path = _walk_csv(tmp_path, n=300)
    code = main(["window", str(path), "-W", "150", "-S", "75", "--seed", "2",
                 "--orders", "3", "--replicates", "0", "--walk-length", "2000"])
    assert code == 0
    doc = json.loads(capsysbinary.readouterr().out)
    assert [w["window_start"] for w in doc["windows"]] == [1, 76, 151]


def test_missing_file_is_data_error(capsysbinary):
    assert main(["analyze", "/nonexistent/file.csv", "--seed", "1"]) == 2


def test_bad_cell_is_data_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0\nbogus\n2.0\n")
    assert main(["analyze", str(path), "--seed", "1"]) == 2


def test_non_utf8_file_is_data_error(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"1.0\n\xe9\n2.0\n")
    assert main(["analyze", str(path), "--seed", "1"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_cell_over_csv_field_limit_is_data_error(tmp_path, capsys):
    path = tmp_path / "long.csv"
    path.write_text("1.0\n2.0\n" + "9" * 200_000 + "\n3.0\n")
    assert main(["analyze", str(path), "--seed", "1"]) == 2
    assert "line 3: field larger than field limit" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(tmp_path):
    path = _walk_csv(tmp_path)
    assert main(["analyze", str(path), "--frobnicate"]) == 1


def test_missing_subcommand_is_usage_error():
    assert main([]) == 1


def test_out_of_range_b_is_numerical_error(tmp_path):
    path = _walk_csv(tmp_path)
    code = main(["analyze", str(path), "--null", "uniform", "--b", "1.5",
                 "--seed", "1", *FAST_FLAGS])
    assert code == 3


def test_jitter_without_scale_is_usage_error(tmp_path, capsys):
    path = _walk_csv(tmp_path)
    assert main(["analyze", str(path), "--ties", "jitter", *FAST_FLAGS]) == 1
    assert "--jitter-scale" in capsys.readouterr().err


def test_short_series_is_data_error(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("1.0\n2.0\n3.0\n")
    assert main(["analyze", str(path), "--seed", "1", *FAST_FLAGS]) == 2


def test_strict_requires_seed(tmp_path):
    path = _walk_csv(tmp_path)
    assert main(["analyze", str(path), "--strict", *FAST_FLAGS]) == 1
    # deterministic run: exact null, no replicates -> no seed needed
    code = main(["analyze", str(path), "--strict", "--null", "uniform",
                 "--b", "0.6", "--closed-form", "--replicates", "0",
                 "--orders", "3,4"])
    assert code == 0


def test_config_file_defaults_and_override(tmp_path, capsysbinary):
    path = _walk_csv(tmp_path)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "orders": [3], "replicates": 0, "walk_length": 2000, "seed": 9,
    }))
    assert main(["analyze", str(path), "--config", str(cfg)]) == 0
    doc = json.loads(capsysbinary.readouterr().out)
    assert doc["seed"] == 9
    assert len(doc["reports"]) == 1

    assert main(["analyze", str(path), "--config", str(cfg), "--seed", "4"]) == 0
    assert json.loads(capsysbinary.readouterr().out)["seed"] == 4


def test_config_unknown_key_is_usage_error(tmp_path):
    path = _walk_csv(tmp_path)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"replicants": 0}))
    assert main(["analyze", str(path), "--config", str(cfg)]) == 1


@pytest.mark.parametrize("key", ["func", "command", "config"])
def test_config_parser_internals_are_usage_errors(tmp_path, key):
    path = _walk_csv(tmp_path)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({key: "x"}))
    assert main(["analyze", str(path), "--config", str(cfg)]) == 1


def test_config_string_values_parse_like_flags(tmp_path, capsysbinary):
    path = _walk_csv(tmp_path)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"orders": "3,4", "replicates": 0, "walk_length": 2000}))
    assert main(["analyze", str(path), "--seed", "1", "--config", str(cfg)]) == 0
    from_config = capsysbinary.readouterr().out
    assert main(["analyze", str(path), "--seed", "1", "--orders", "3,4",
                 "--replicates", "0", "--walk-length", "2000"]) == 0
    assert capsysbinary.readouterr().out == from_config
    assert [r["n"] for r in json.loads(from_config)["reports"]] == [3, 4]


def test_config_numbers_parse_like_flags(tmp_path, capsysbinary):
    # JSON numbers go through each flag's type=; integral floats read as ints
    path = _walk_csv(tmp_path)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"null_samples": 1e6, "replicates": 0, "walk_length": 2e3}))
    flags = ["analyze", str(path), "--seed", "1", "--orders", "3", "--null", "uniform"]
    assert main([*flags, "--config", str(cfg)]) == 0
    from_config = capsysbinary.readouterr().out
    assert main([*flags, "--null-samples", "1000000", "--replicates", "0",
                 "--walk-length", "2000"]) == 0
    assert capsysbinary.readouterr().out == from_config

    cfg.write_text(json.dumps({"b": 0.7}))
    assert main(["oracle", "--n", "3", "--resolution", "20", "--config", str(cfg)]) == 0
    from_config = capsysbinary.readouterr().out
    assert main(["oracle", "--n", "3", "--resolution", "20", "--b", "0.7"]) == 0
    assert capsysbinary.readouterr().out == from_config


@pytest.mark.parametrize("values", [
    {"n": 3.5}, {"seed": "x"}, {"format": "xml"}, {"family": "cauchy"},
    # a list fits only a comma-list flag; a switch takes only true or false
    {"b": [0.55, 0.65]}, {"samples": [1000]}, {"seed": True}, {"b": {"x": 1}},
    {"closed_form": "no"}, {"closed_form": 0}, {"strict": 1}, {"header": "false"},
])
def test_config_values_outside_a_flag_are_usage_errors(tmp_path, values):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(values))
    assert main(["nullmodel", "--samples", "1000", "--config", str(cfg)]) == 1


def test_config_lists_read_like_comma_text(tmp_path, capsysbinary):
    path = _walk_csv(tmp_path)
    cfg = tmp_path / "run.json"
    outputs = []
    for orders in ([4.0, 5], ["4", "5"], "4,5"):
        cfg.write_text(json.dumps({"orders": orders, "replicates": 0, "walk_length": 2000}))
        assert main(["analyze", str(path), "--seed", "1", "--config", str(cfg)]) == 0
        outputs.append(capsysbinary.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert [r["n"] for r in json.loads(outputs[0])["reports"]] == [4, 5]

    for b in ([0.55, 0.65], "0.55,0.65"):
        cfg.write_text(json.dumps({"b": b}))
        assert main(["oracle", "--n", "3", "--resolution", "20", "--config", str(cfg)]) == 0
        outputs.append(capsysbinary.readouterr().out)
    assert outputs[3] == outputs[4]


@pytest.mark.parametrize("closure", [True, False])
def test_config_switches_take_json_booleans(tmp_path, capsysbinary, closure):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"closure": closure}))
    assert main(["classes", "--n", "4", "--config", str(cfg)]) == 0
    from_config = capsysbinary.readouterr().out
    assert main(["classes", "--n", "4", *(["--closure"] if closure else [])]) == 0
    assert capsysbinary.readouterr().out == from_config


@pytest.mark.parametrize("argv, spelled_out", [
    (["analyze", "{path}"],
     ["analyze", "{path}", "--orders", "4,5", "--delay", "1", "--ties", "stable",
      "--jitter-scale", "0", "--null", "associated", "--b", "0.5", "--mu", "0",
      "--sigma", "1", "--no-closed-form", "--null-samples", "1000000",
      "--replicates", "400", "--smoothing", "1", "--format", "json",
      "--column", "0", "--no-header", "--seed", "0"]),
    (["nullmodel", "--family", "uniform"],
     ["nullmodel", "--family", "uniform", "--n", "4", "--b", "0.5", "--mu", "0",
      "--sigma", "1", "--no-closed-form", "--samples", "1000000", "--format", "json",
      "--seed", "0"]),
])
def test_cli_defaults_match_spelled_out_flags(tmp_path, capsysbinary, argv, spelled_out):
    path = str(_walk_csv(tmp_path, n=200))
    assert main([a.format(path=path) for a in argv]) == 0
    bare = capsysbinary.readouterr().out
    assert main([a.format(path=path) for a in spelled_out]) == 0
    assert capsysbinary.readouterr().out == bare


def test_simulate_csv_roundtrips_into_analyze(tmp_path, capsysbinary):
    out = tmp_path / "sim.csv"
    code = main(["simulate", "--kind", "walk", "--step-family", "uniform",
                 "--b", "0.7", "--length", "500", "--seed", "3", "-o", str(out)])
    assert code == 0
    err = capsysbinary.readouterr().err.decode()
    assert "seed=3" in err
    code = main(["analyze", str(out), "--seed", "1", *FAST_FLAGS])
    assert code == 0


def test_simulate_json_embeds_seed(capsysbinary):
    code = main(["simulate", "--kind", "iid_uniform", "--length", "50",
                 "--seed", "21", "--format", "json"])
    assert code == 0
    doc = json.loads(capsysbinary.readouterr().out)
    assert doc["seed"] == 21
    assert len(doc["values"]) == 50


def test_simulate_mod10_periodic_is_usage_error():
    assert main(["simulate", "--kind", "mod10", "--length", "100",
                 "--x0", "1/7"]) == 1


def test_simulate_strict_needs_seed_only_for_stochastic_kinds():
    assert main(["simulate", "--kind", "iid_uniform", "--length", "10",
                 "--strict"]) == 1
    assert main(["simulate", "--kind", "sine", "--length", "10", "--strict"]) == 0


def test_nullmodel_closed_form_json(capsysbinary):
    code = main(["nullmodel", "--family", "uniform", "--b", "0.6",
                 "--closed-form", "--n", "4"])
    assert code == 0
    doc = json.loads(capsysbinary.readouterr().out)
    assert doc["method"] == "closed_form"
    assert doc["weights"]["1234"] == pytest.approx(0.6 ** 3)


def test_nullmodel_closed_form_needs_low_order():
    assert main(["nullmodel", "--family", "uniform", "--b", "0.6",
                 "--closed-form", "--n", "5"]) == 3


def test_nullmodel_associated_needs_input(tmp_path, capsysbinary):
    assert main(["nullmodel", "--family", "associated", "--seed", "1"]) == 1
    path = _walk_csv(tmp_path)
    code = main(["nullmodel", "--family", "associated", "--input", str(path),
                 "--walk-length", "5000", "--n", "3", "--seed", "1",
                 "--format", "csv"])
    assert code == 0
    lines = capsysbinary.readouterr().out.decode().splitlines()
    assert lines[0] == "pattern,weight"
    assert len(lines) == 7


def test_classes_emit(capsysbinary):
    assert main(["classes", "--n", "3"]) == 0
    doc = json.loads(capsysbinary.readouterr().out)
    assert doc["n"] == 3
    assert len(doc["classes"]) == 4

    assert main(["classes", "--n", "6", "--closure"]) == 0
    doc = json.loads(capsysbinary.readouterr().out)
    assert sum(len(c) for c in doc["classes"]) == 720


def test_oracle_emit(capsysbinary):
    code = main(["oracle", "--n", "3", "--b", "0.6", "--resolution", "200"])
    assert code == 0
    lines = capsysbinary.readouterr().out.decode().splitlines()
    assert lines[0] == "b,pattern,volume,closed_form,abs_err"
    assert len(lines) == 1 + 6
    worst = max(float(line.split(",")[4]) for line in lines[1:])
    assert worst < 0.003


@pytest.mark.parametrize("n", ["1", "2", "6", "8"])
def test_oracle_order_outside_three_to_five_names_it(n, capsys):
    assert main(["oracle", "--n", n, "--resolution", "4"]) == 3
    assert f"volume oracle supports n in [3, 5], got {n}" in capsys.readouterr().err


def test_oracle_resolution_beyond_exact_sums_exits_three(capsys):
    assert main(["oracle", "--n", "3", "--resolution", "67108865"]) == 3
    assert "at most 2^53" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "window", "nullmodel"])
def test_associated_null_with_closed_form_is_numerical_error(tmp_path, command, capsys):
    # --closed-form cannot make an associated-null run non-random, so
    # --strict without --seed must not get through on it
    path = _walk_csv(tmp_path)
    if command == "nullmodel":
        argv = ["nullmodel", "--family", "associated", "--input", str(path)]
    else:
        argv = [command, str(path), "--orders", "3", "--replicates", "0"]
    assert main([*argv, "--strict", "--closed-form"]) == 3
    assert "the associated null has no closed form" in capsys.readouterr().err
