"""Command line front end.

Subcommands: analyze, window, simulate, nullmodel, classes, oracle.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical or
support error. A JSON config file (--config) supplies defaults for any
long flag (keys use underscores; a string or number value is read as
the flag's own text would be, a list only by a comma-list flag, and a
switch takes only true or false); explicit flags win. In --strict mode
every run that consumes randomness must name its --seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import (
    AnalysisConfig,
    WindowSpec,
    _csv_bytes,
    _json_bytes,
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
from .nullmodels import (
    NullSpec,
    StepModel,
    _check_oracle_order,
    build_null,
    closed_form_uniform,
    volume_oracle,
)
from .patterns import TiePolicy, _check_int, all_patterns


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _comma_list(kind, noun: str):
    """A flag type that reads comma-separated values of one kind."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(part) for part in text.split(","))
        except ValueError:
            raise _UsageError(f"expected comma-separated {noun}, got {text!r}") from None
    parse.comma_list = True  # a config file may give this flag a JSON list
    return parse


def _index_or_name(text: str) -> int | str:
    try:
        return int(text)
    except ValueError:
        return text


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser, and its subcommand parsers by name."""
    parser = _Parser(prog="ordinalwalk",
                     description="ordinal-pattern analysis against random-walk nulls")
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, _Parser] = {}

    def command(name, func, help):
        p = commands[name] = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    def common(p, *, seeded=True):
        p.add_argument("--config", help="JSON file of flag defaults")
        p.add_argument("--output", "-o", help="write to this path instead of stdout")
        p.add_argument("--strict", action="store_true",
                       help="require --seed on runs that consume randomness")
        if seeded:
            p.add_argument("--seed", type=int, help="random seed (default 0)")

    def step_flags(p):
        p.add_argument("--b", type=float, default=0.5, help="uniform step model's P(Y > 0)")
        p.add_argument("--mu", type=float, default=0.0, help="normal step mean")
        p.add_argument("--sigma", type=float, default=1.0, help="normal step deviation")

    def column_flags(p):
        p.add_argument("--column", type=_index_or_name, default=0,
                       help="column index or (with --header) name, default 0")
        p.add_argument("--header", action=argparse.BooleanOptionalAction, default=False,
                       help="treat the first row as a header")

    def analysis_flags(p):
        p.add_argument("input", help="CSV file of values")
        column_flags(p)
        p.add_argument("--orders", type=_comma_list(int, "integers"), default=(4, 5),
                       help="pattern lengths, e.g. 4,5")
        p.add_argument("--delay", type=int, default=1, help="pattern delay d (default 1)")
        p.add_argument("--ties", choices=("stable", "strict", "jitter"), default="stable",
                       help="tie policy (default stable)")
        p.add_argument("--jitter-scale", type=float, dest="jitter_scale", default=0.0)
        p.add_argument("--null", choices=("associated", "uniform", "normal"),
                       default="associated", help="null model kind (default associated)")
        p.add_argument("--walk-length", type=int, dest="walk_length",
                       help="values the associated null draws (default max(5e5, 50N))")
        step_flags(p)
        p.add_argument("--closed-form", action=argparse.BooleanOptionalAction,
                       dest="closed_form", default=False,
                       help="use exact null tables")
        p.add_argument("--null-samples", type=int, dest="null_samples", default=1_000_000,
                       help="Monte Carlo draws for parametric nulls (default 1e6)")
        p.add_argument("--replicates", "-R", type=int, default=400,
                       help="bootstrap replicates (default 400, 0 disables)")
        p.add_argument("--smoothing", type=float, default=1.0,
                       help="pseudocount for sampled nulls (default 1)")
        p.add_argument("--format", choices=("json", "csv", "plotdata"), default="json",
                       help="output format (default json)")

    p = command("analyze", _cmd_analyze, "whole-series pattern metrics")
    analysis_flags(p)
    common(p)

    p = command("window", _cmd_analyze, "sliding-window pattern metrics")
    analysis_flags(p)
    p.add_argument("--window", "-W", type=int, dest="window_length", default=1258,
                   help="window length in samples (default 1258)")
    p.add_argument("--stride", "-S", type=int, default=250,
                   help="window stride (default 250)")
    common(p)

    p = command("simulate", _cmd_simulate, "emit a synthetic series")
    p.add_argument("--kind", choices=("iid_uniform", "walk", "logistic", "mod10", "sine"))
    p.add_argument("--length", "-N", type=int, help="number of samples")
    p.add_argument("--step-family", choices=("uniform", "normal"), dest="step_family",
                   help="walk step law")
    step_flags(p)
    p.add_argument("--x0", default=0.4, help="map initial condition; mod10 accepts p/q")
    p.add_argument("--period", type=float, default=20.0,
                   help="sine period in samples (default 20)")
    p.add_argument("--phase", type=float, default=0.0, help="sine phase (default 0)")
    p.add_argument("--amplitude", type=float, default=1.0,
                   help="sine amplitude (default 1)")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="csv: bare ingestible column; json embeds the seed")
    common(p)

    p = command("nullmodel", _cmd_nullmodel, "emit a null model's pattern distribution")
    p.add_argument("--n", type=int, default=4, help="pattern length (default 4)")
    p.add_argument("--family", choices=("uniform", "normal", "associated"),
                   default="uniform", help="step law (default uniform)")
    step_flags(p)
    p.add_argument("--closed-form", action=argparse.BooleanOptionalAction,
                   dest="closed_form", default=False, help="use exact tables")
    p.add_argument("--samples", type=int, default=1_000_000,
                   help="Monte Carlo draws (default 1e6)")
    p.add_argument("--walk-length", type=int, dest="walk_length",
                   help="values the associated null draws, in series-length walks")
    p.add_argument("--input", help="CSV series (associated family only)")
    column_flags(p)
    p.add_argument("--format", choices=("json", "csv"), default="json", help="default json")
    common(p)

    p = command("classes", _cmd_classes, "emit pattern equivalence classes")
    p.add_argument("--n", type=int, default=4, help="pattern length (default 4)")
    p.add_argument("--closure", action="store_true",
                   help="emit the reverse/complement closure instead of the "
                        "derived classes")
    common(p, seeded=False)

    p = command("oracle", _cmd_oracle, "quadrature volumes vs closed forms")
    p.add_argument("--n", type=int, default=4, help="pattern length, 3..5 (default 4)")
    p.add_argument("--b", type=_comma_list(float, "numbers"), default=(0.55, 0.65, 0.75, 0.85),
                   help="step parameters, e.g. 0.55,0.65")
    p.add_argument("--resolution", type=int, default=400,
                   help="grid cells per axis (default 400)")
    common(p, seeded=False)

    return parser, commands


# --------------------------------------------------------------------------
# config-file defaults
# --------------------------------------------------------------------------

def _config_text(value) -> str:
    # 1e6 and 4.0 read as integers, as the flag's text "1000000" would
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return str(value)


def _load_config(args, parser: _Parser) -> dict:
    """The config file's flag defaults for one subcommand's parser; a
    null value leaves a flag's own, and a list's elements are joined."""
    try:
        with open(args.config, encoding="utf-8") as handle:
            loaded = json.load(handle)
    except OSError as exc:
        raise _UsageError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise _UsageError("config file must hold a JSON object")
    actions = {action.dest: action for action in parser._actions}
    defaults = {}
    for key, value in loaded.items():
        action = actions.get(key)
        if action is None or key in ("help", "config"):
            raise _UsageError(f"config key {key!r} is not a flag of this subcommand")
        if value is None:
            continue
        if isinstance(value, list) and getattr(action.type, "comma_list", False):
            value = ",".join(map(_config_text, value))
        elif action.type is not None and type(value) in (int, float):
            value = _config_text(value)
        # a switch (nargs 0) takes only true or false, and only a comma-list flag a list
        if (action.nargs == 0) != isinstance(value, bool) or isinstance(value, (list, dict)):
            raise _UsageError(f"config key {key!r} has invalid value {value!r}")
        if action.choices is not None and value not in action.choices:
            raise _UsageError(f"config key {key!r} has invalid choice {value!r}")
        defaults[key] = value
    return defaults


def _seed(args, stochastic: bool) -> int:
    if args.strict and stochastic and args.seed is None:
        raise _UsageError("--strict requires --seed when the run consumes randomness")
    return 0 if args.seed is None else _check_int(args.seed, "--seed", 0, _UsageError)


def _write(args, payload: bytes) -> None:
    if args.output:
        with open(args.output, "wb") as handle:
            handle.write(payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()


def _step(args, family: str) -> StepModel | None:
    """The step law a family names, from --b or --mu/--sigma; None for
    the associated null."""
    if family == "uniform":
        return StepModel.uniform(args.b)
    if family == "normal":
        return StepModel.normal(args.mu, args.sigma)
    return None


def _tie_policy(args) -> TiePolicy:
    if args.ties == "jitter" and not args.jitter_scale > 0:
        raise _UsageError("--ties jitter needs --jitter-scale > 0")
    return TiePolicy(args.ties, jitter_scale=args.jitter_scale)


def _analysis_config(args) -> AnalysisConfig:
    null = NullSpec(_step(args, args.null), args.walk_length, args.closed_form,
                    args.null_samples)
    policy = _tie_policy(args)
    # a sampled null, the band and a jitter policy draw from the run seed
    stochastic = not (null.closed_form and args.replicates == 0) or policy.mode == "jitter"
    return AnalysisConfig(
        orders=args.orders,
        delay=args.delay,
        policy=policy,
        null=null,
        replicates=args.replicates,
        seed=_seed(args, stochastic),
        smoothing=args.smoothing,
    )


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    """analyze, and window over sliding windows."""
    series = ingest_csv(args.input, args.column, args.header)
    config = _analysis_config(args)
    if args.command == "window":
        result = windowed_run(series, WindowSpec(args.window_length, args.stride), config)
    else:
        result = analyze_run(series, config)
    _write(args, emit(result, args.format))
    return 0


def _cmd_simulate(args) -> int:
    if args.kind is None:
        raise _UsageError("simulate needs --kind")
    if args.length is None:
        raise _UsageError("simulate needs --length")
    seed = _seed(args, args.kind in ("iid_uniform", "walk"))
    step = None
    if args.kind == "walk":
        if args.step_family is None:
            raise _UsageError("walk simulation needs --step-family")
        step = _step(args, args.step_family)
    series = generate(GeneratorSpec(
        args.kind, args.length, seed, step, x0=args.x0, period=args.period,
        phase=args.phase, amplitude=args.amplitude))
    if args.format == "json":
        payload = _json_bytes({"kind": args.kind, "seed": seed, "values": series.values.tolist()})
    else:
        payload = ("\n".join(repr(float(v)) for v in series.values) + "\n").encode()
        print(f"seed={seed}", file=sys.stderr)
    _write(args, payload)
    return 0


def _cmd_nullmodel(args) -> int:
    series = ()  # a step law reads no series
    if args.family == "associated":
        if not args.input:
            raise _UsageError("associated nullmodel needs --input")
        series = ingest_csv(args.input, args.column, args.header)
    spec = NullSpec(_step(args, args.family), args.walk_length, args.closed_form,
                    args.samples)
    seed = _seed(args, not spec.closed_form)
    model = build_null(series, args.n, spec, seed)
    if args.format == "json":
        payload = _json_bytes(model.to_json_dict())
    else:
        payload = _csv_bytes([("pattern", "weight"), *model.distribution.as_dict().items()])
    _write(args, payload)
    return 0


def _cmd_classes(args) -> int:
    table = rc_closure(args.n) if args.closure else equivalence_classes(args.n)
    _write(args, _json_bytes({"n": args.n, "classes": table.as_strings()}))
    return 0


def _cmd_oracle(args) -> int:
    n = args.n
    _check_oracle_order(n)  # before all_patterns, whose own range is wider
    rows = [("b", "pattern", "volume", "closed_form", "abs_err")]
    for b in args.b:
        try:
            closed = closed_form_uniform(n, b)
        except OrderError:  # no closed form at this order
            closed = None
        for pattern in all_patterns(n):
            volume = volume_oracle(pattern, StepModel.uniform(b), args.resolution)
            expected = error = None  # empty cells without a closed form
            if closed is not None:
                expected = float(closed.weights[pattern.rank])
                error = abs(volume - expected)
            rows.append((b, pattern, volume, expected, error))
    _write(args, _csv_bytes(rows))
    return 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def main(argv=None) -> int:
    try:
        parser, commands = _build_parser()
        args = parser.parse_args(argv)
        if args.config:
            # config values become the subcommand's defaults; a second parse
            # lets explicit flags win and runs string values through type=
            command = commands[args.command]
            command.set_defaults(**_load_config(args, command))
            args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, SpecError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, EmptyError, TieError, LengthError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (RangeError, OrderMismatchError, SupportError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
