"""Command line front end.

Subcommands: analyze, window, simulate, nullmodel, classes, oracle.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical or
support error. A JSON config file (--config) supplies defaults for any
long flag (keys use underscores); explicit flags win. In --strict mode
every run that consumes randomness must name its --seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import (
    AnalysisConfig,
    WindowSpec,
    analyze_run,
    emit,
    ingest_csv,
    windowed_run,
)
from .classes import equivalence_classes, rc_closure
from .errors import (
    EmptyError,
    LengthError,
    OrderError,
    OrderMismatchError,
    ParseError,
    RangeError,
    SpecError,
    SupportError,
    TieError,
)
from .generators import GeneratorSpec, generate
from .nullmodels import NullSpec, StepModel, build_null, closed_form_uniform, volume_oracle
from .patterns import TiePolicy, lex_unrank, _FACT


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _comma_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise _UsageError(f"expected comma-separated integers, got {text!r}") from None


def _comma_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise _UsageError(f"expected comma-separated numbers, got {text!r}") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="ordinalwalk",
                     description="ordinal-pattern analysis against random-walk nulls")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, seeded=True):
        p.add_argument("--config", help="JSON file of flag defaults")
        p.add_argument("--output", "-o", help="write to this path instead of stdout")
        p.add_argument("--strict", action="store_true",
                       help="require --seed on runs that consume randomness")
        if seeded:
            p.add_argument("--seed", type=int, help="random seed (default 0)")

    def ingest_flags(p):
        p.add_argument("input", help="CSV file of values")
        p.add_argument("--column", default=None,
                       help="column index or (with --header) name, default 0")
        p.add_argument("--header", action=argparse.BooleanOptionalAction,
                       help="treat the first row as a header")

    def analysis_flags(p):
        p.add_argument("--orders", type=_comma_ints, help="pattern lengths, e.g. 4,5")
        p.add_argument("--delay", type=int, help="pattern delay d (default 1)")
        p.add_argument("--ties", choices=("stable", "strict", "jitter"),
                       help="tie policy (default stable)")
        p.add_argument("--jitter-scale", type=float, dest="jitter_scale")
        p.add_argument("--null", choices=("associated", "uniform", "normal"),
                       help="null model kind (default associated)")
        p.add_argument("--walk-length", type=int, dest="walk_length",
                       help="associated-null walk length (default max(1e6, 100N))")
        p.add_argument("--b", type=float, help="uniform step model's P(Y > 0)")
        p.add_argument("--mu", type=float, help="normal step mean")
        p.add_argument("--sigma", type=float, help="normal step deviation")
        p.add_argument("--closed-form", action=argparse.BooleanOptionalAction,
                       dest="closed_form", help="use exact null tables (n <= 4)")
        p.add_argument("--null-samples", type=int, dest="null_samples",
                       help="Monte Carlo draws for parametric nulls (default 1e6)")
        p.add_argument("--replicates", "-R", type=int,
                       help="bootstrap replicates (default 400, 0 disables)")
        p.add_argument("--smoothing", type=float,
                       help="pseudocount for sampled nulls (default 1)")
        p.add_argument("--format", choices=("json", "csv", "plotdata"),
                       help="output format (default json)")

    p = sub.add_parser("analyze", help="whole-series pattern metrics")
    ingest_flags(p)
    analysis_flags(p)
    common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("window", help="sliding-window pattern metrics")
    ingest_flags(p)
    analysis_flags(p)
    p.add_argument("--window", "-W", type=int, dest="window_length",
                   help="window length in samples (default 1258)")
    p.add_argument("--stride", "-S", type=int, help="window stride (default 250)")
    common(p)
    p.set_defaults(func=_cmd_window)

    p = sub.add_parser("simulate", help="emit a synthetic series")
    p.add_argument("--kind", choices=("iid_uniform", "walk", "logistic", "mod10", "sine"))
    p.add_argument("--length", "-N", type=int, help="number of samples")
    p.add_argument("--step-family", choices=("uniform", "normal"), dest="step_family",
                   help="walk step law")
    p.add_argument("--b", type=float, help="uniform step model's P(Y > 0)")
    p.add_argument("--mu", type=float, help="normal step mean")
    p.add_argument("--sigma", type=float, help="normal step deviation")
    p.add_argument("--x0", help="map initial condition; mod10 accepts p/q")
    p.add_argument("--period", type=float, help="sine period in samples (default 20)")
    p.add_argument("--phase", type=float, help="sine phase (default 0)")
    p.add_argument("--amplitude", type=float, help="sine amplitude (default 1)")
    p.add_argument("--format", choices=("csv", "json"),
                   help="csv: bare ingestible column; json embeds the seed")
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("nullmodel", help="emit a null model's pattern distribution")
    p.add_argument("--n", type=int, help="pattern length (default 4)")
    p.add_argument("--family", choices=("uniform", "normal", "associated"),
                   help="step law (default uniform)")
    p.add_argument("--b", type=float, help="uniform step model's P(Y > 0)")
    p.add_argument("--mu", type=float, help="normal step mean")
    p.add_argument("--sigma", type=float, help="normal step deviation")
    p.add_argument("--closed-form", action=argparse.BooleanOptionalAction,
                   dest="closed_form", help="use exact tables (n <= 4)")
    p.add_argument("--samples", type=int, help="Monte Carlo draws (default 1e6)")
    p.add_argument("--walk-length", type=int, dest="walk_length",
                   help="associated-null walk length")
    p.add_argument("--input", help="CSV series (associated family only)")
    p.add_argument("--column", default=None)
    p.add_argument("--header", action=argparse.BooleanOptionalAction)
    p.add_argument("--format", choices=("json", "csv"), help="default json")
    common(p)
    p.set_defaults(func=_cmd_nullmodel)

    p = sub.add_parser("classes", help="emit pattern equivalence classes")
    p.add_argument("--n", type=int, help="pattern length (default 4)")
    p.add_argument("--closure", action="store_true",
                   help="emit the reverse/complement closure instead of the "
                        "reference tables")
    common(p, seeded=False)
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("oracle", help="quadrature volumes vs closed forms")
    p.add_argument("--n", type=int, help="pattern length (default 4, max 5)")
    p.add_argument("--b", type=_comma_floats, help="step parameters, e.g. 0.55,0.65")
    p.add_argument("--resolution", type=int, help="grid cells per axis (default 400)")
    common(p, seeded=False)
    p.set_defaults(func=_cmd_oracle)

    return parser


# --------------------------------------------------------------------------
# config-file defaults
# --------------------------------------------------------------------------

def _load_config(args) -> dict:
    path = getattr(args, "config", None)
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            loaded = json.load(handle)
    except OSError as exc:
        raise _UsageError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise _UsageError("config file must hold a JSON object")
    known = set(vars(args))
    for key in loaded:
        if key not in known:
            raise _UsageError(f"config key {key!r} is not a flag of this subcommand")
    return loaded


def _get(args, cfg: dict, key: str, fallback=None):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in cfg and cfg[key] is not None:
        return cfg[key]
    return fallback


def _get_seed(args, cfg: dict, stochastic: bool) -> int:
    explicit = getattr(args, "seed", None) is not None or cfg.get("seed") is not None
    if args.strict and stochastic and not explicit:
        raise _UsageError("--strict requires --seed when the run consumes randomness")
    return int(_get(args, cfg, "seed", 0))


def _write(args, payload: bytes) -> None:
    if getattr(args, "output", None):
        with open(args.output, "wb") as handle:
            handle.write(payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()


def _column(args, cfg) -> int | str:
    raw = _get(args, cfg, "column", 0)
    if isinstance(raw, str):
        try:
            return int(raw)
        except ValueError:
            return raw
    return raw


def _tie_policy(args, cfg) -> TiePolicy | None:
    kind = _get(args, cfg, "ties")
    if kind is None:
        return None
    scale = _get(args, cfg, "jitter_scale")
    if kind == "jitter" and (scale is None or not float(scale) > 0):
        raise _UsageError("--ties jitter needs --jitter-scale > 0")
    if scale is not None:
        return TiePolicy(kind, jitter_scale=float(scale))
    return TiePolicy(kind)


def _null_spec(args, cfg) -> NullSpec:
    kind = _get(args, cfg, "null", "associated")
    fields = dict(kind=kind)
    if _get(args, cfg, "walk_length") is not None:
        fields["walk_length"] = int(_get(args, cfg, "walk_length"))
    if kind == "uniform":
        fields["b"] = float(_get(args, cfg, "b", 0.5))
    if kind == "normal":
        fields["mu"] = float(_get(args, cfg, "mu", 0.0))
        fields["sigma"] = float(_get(args, cfg, "sigma", 1.0))
    if _get(args, cfg, "closed_form"):
        fields["closed_form"] = True
    if _get(args, cfg, "null_samples") is not None:
        fields["samples"] = int(_get(args, cfg, "null_samples"))
    return NullSpec(**fields)


def _analysis_config(args, cfg) -> AnalysisConfig:
    null = _null_spec(args, cfg)
    replicates = int(_get(args, cfg, "replicates", 400))
    stochastic = not (null.closed_form and replicates == 0)
    return AnalysisConfig(
        orders=tuple(_get(args, cfg, "orders", (4, 5))),
        delay=int(_get(args, cfg, "delay", 1)),
        policy=_tie_policy(args, cfg),
        null=null,
        replicates=replicates,
        seed=_get_seed(args, cfg, stochastic),
        smoothing=float(_get(args, cfg, "smoothing", 1.0)),
    )


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    cfg = _load_config(args)
    series = ingest_csv(args.input, _column(args, cfg), bool(_get(args, cfg, "header", False)))
    config = _analysis_config(args, cfg)
    result = analyze_run(series, config)
    _write(args, emit(result, _get(args, cfg, "format", "json")))
    return 0


def _cmd_window(args) -> int:
    cfg = _load_config(args)
    series = ingest_csv(args.input, _column(args, cfg), bool(_get(args, cfg, "header", False)))
    config = _analysis_config(args, cfg)
    wspec = WindowSpec(int(_get(args, cfg, "window_length", 1258)),
                       int(_get(args, cfg, "stride", 250)))
    results = windowed_run(series, wspec, config)
    _write(args, emit(results, _get(args, cfg, "format", "json")))
    return 0


def _step_model(args, cfg) -> StepModel:
    family = _get(args, cfg, "step_family")
    if family is None:
        raise _UsageError("walk simulation needs --step-family")
    if family == "uniform":
        return StepModel.uniform(float(_get(args, cfg, "b", 0.5)))
    return StepModel.normal(float(_get(args, cfg, "mu", 0.0)),
                            float(_get(args, cfg, "sigma", 1.0)))


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    kind = _get(args, cfg, "kind")
    if kind is None:
        raise _UsageError("simulate needs --kind")
    length = _get(args, cfg, "length")
    if length is None:
        raise _UsageError("simulate needs --length")
    seed = _get_seed(args, cfg, kind in ("iid_uniform", "walk"))
    fields = dict(kind=kind, length=int(length), seed=seed)
    if kind == "walk":
        fields["step"] = _step_model(args, cfg)
    if _get(args, cfg, "x0") is not None:
        fields["x0"] = _get(args, cfg, "x0")
    for key in ("period", "phase", "amplitude"):
        if _get(args, cfg, key) is not None:
            fields[key] = float(_get(args, cfg, key))
    series = generate(GeneratorSpec(**fields))
    fmt = _get(args, cfg, "format", "csv")
    if fmt == "json":
        doc = {"kind": kind, "seed": seed, "values": [float(v) for v in series.values]}
        payload = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    else:
        payload = ("\n".join(repr(float(v)) for v in series.values) + "\n").encode()
        print(f"seed={seed}", file=sys.stderr)
    _write(args, payload)
    return 0


def _cmd_nullmodel(args) -> int:
    cfg = _load_config(args)
    n = int(_get(args, cfg, "n", 4))
    family = _get(args, cfg, "family", "uniform")
    closed = bool(_get(args, cfg, "closed_form"))
    fields: dict = {"closed_form": closed}
    if _get(args, cfg, "samples") is not None:
        fields["samples"] = int(_get(args, cfg, "samples"))
    if _get(args, cfg, "walk_length") is not None:
        fields["walk_length"] = int(_get(args, cfg, "walk_length"))
    series = None
    if family == "associated":
        if not _get(args, cfg, "input"):
            raise _UsageError("associated nullmodel needs --input")
        series = ingest_csv(_get(args, cfg, "input"), _column(args, cfg),
                            bool(_get(args, cfg, "header", False)))
        spec = NullSpec(kind="associated", **{k: v for k, v in fields.items()
                                              if k != "closed_form"})
    elif family == "uniform":
        spec = NullSpec(kind="uniform", b=float(_get(args, cfg, "b", 0.5)), **fields)
    else:
        spec = NullSpec(kind="normal", mu=float(_get(args, cfg, "mu", 0.0)),
                        sigma=float(_get(args, cfg, "sigma", 1.0)), **fields)
    stochastic = family == "associated" or not closed
    seed = _get_seed(args, cfg, stochastic)
    model = build_null(series if series is not None else [0.0, 1.0], n, spec, seed)
    fmt = _get(args, cfg, "format", "json")
    if fmt == "json":
        payload = (json.dumps(model.to_json_dict(), indent=2, sort_keys=True) + "\n").encode()
    else:
        lines = ["pattern,weight"]
        lines += [f"{pat},{weight!r}" for pat, weight in model.distribution.as_dict().items()]
        payload = ("\n".join(lines) + "\n").encode()
    _write(args, payload)
    return 0


def _cmd_classes(args) -> int:
    cfg = _load_config(args)
    n = int(_get(args, cfg, "n", 4))
    table = rc_closure(n) if args.closure or cfg.get("closure") else equivalence_classes(n)
    doc = {"n": n, "classes": table.as_strings()}
    _write(args, (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode())
    return 0


def _cmd_oracle(args) -> int:
    cfg = _load_config(args)
    n = int(_get(args, cfg, "n", 4))
    bs = _get(args, cfg, "b", (0.55, 0.65, 0.75, 0.85))
    resolution = int(_get(args, cfg, "resolution", 400))
    lines = ["b,pattern,volume,closed_form,abs_err"]
    for b in bs:
        closed = closed_form_uniform(n, b) if n in (3, 4) else None
        for rank in range(_FACT[n]):
            pattern = lex_unrank(n, rank)
            volume = volume_oracle(pattern, StepModel.uniform(b), resolution)
            if closed is not None:
                expected = float(closed.weights[rank])
                lines.append(f"{b},{pattern},{volume!r},{expected!r},"
                             f"{abs(volume - expected)!r}")
            else:
                lines.append(f"{b},{pattern},{volume!r},,")
    _write(args, ("\n".join(lines) + "\n").encode())
    return 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def main(argv=None) -> int:
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SpecError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, EmptyError, TieError, LengthError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (RangeError, OrderError, OrderMismatchError, SupportError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
