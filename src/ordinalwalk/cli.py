"""Command line front end.

Subcommands: analyze, window, simulate, nullmodel, classes, oracle.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical or
support error. A JSON config file (--config) supplies defaults for any
long flag (keys use underscores; a string or number value is read as
the flag's own text would be, a list only by a comma-list flag, and a
switch takes only true or false); explicit flags win. In --strict mode
every run that consumes randomness must name its --seed.

The flag table, _FLAGS, is the one statement of every subcommand's flags
and config keys. A call builds only its own subcommand's flags, and
registers only that subcommand when argv names it first.
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


_ALL = "analyze window simulate nullmodel classes oracle"
_STEPPED = "analyze window simulate nullmodel"  # the step law, and a seed
_SWITCH = argparse.BooleanOptionalAction

#: The one statement of every flag and config key: per row, the subcommands
#: that take the flag, its names and its add_argument keywords. A
#: subcommand's parser gets its rows in table order, which is the order its
#: --help lists them in, and a config file's keys are its rows' dests. A
#: flag has one row for each reading: --n, --b and --format differ by range,
#: type or choices, and every other flag has one row.
_FLAGS = (
    # analyze and window (and nullmodel, where named): the series, its patterns and the null
    ("analyze window", ("input",), dict(help="CSV file of values")),
    ("analyze window nullmodel", ("--column",), dict(
        type=_index_or_name, default=0, help="column index or (with --header) name, default 0")),
    ("analyze window nullmodel", ("--header",), dict(action=_SWITCH, default=False,
                                                     help="treat the first row as a header")),
    ("analyze window", ("--orders",), dict(type=_comma_list(int, "integers"), default=(4, 5),
                                           help="pattern lengths, e.g. 4,5")),
    ("analyze window", ("--delay",), dict(type=int, default=1,
                                          help="pattern delay d (default 1)")),
    ("analyze window", ("--ties",), dict(choices=("stable", "strict", "jitter"), default="stable",
                                         help="tie policy (default stable)")),
    ("analyze window", ("--jitter-scale",), dict(type=float, default=0.0)),
    ("analyze window", ("--null",), dict(choices=("associated", "uniform", "normal"),
                                         default="associated",
                                         help="null model kind (default associated)")),
    ("analyze window nullmodel", ("--walk-length",), dict(
        type=int, help="values the associated null draws (default max(5e5, 50N))")),
    # simulate's series; nullmodel's and classes' order, and nullmodel's family
    ("simulate", ("--kind",), dict(choices=("iid_uniform", "walk", "logistic", "mod10", "sine"))),
    ("simulate", ("--length", "-N"), dict(type=int, help="number of samples")),
    ("simulate", ("--step-family",), dict(choices=("uniform", "normal"), help="walk step law")),
    ("nullmodel classes", ("--n",), dict(type=int, default=4, help="pattern length (default 4)")),
    ("nullmodel", ("--family",), dict(choices=("uniform", "normal", "associated"),
                                      default="uniform", help="step law (default uniform)")),
    # the step law
    (_STEPPED, ("--b",), dict(type=float, default=0.5, help="uniform step model's P(Y > 0)")),
    (_STEPPED, ("--mu",), dict(type=float, default=0.0, help="normal step mean")),
    (_STEPPED, ("--sigma",), dict(type=float, default=1.0, help="normal step deviation")),
    ("analyze window nullmodel", ("--closed-form",), dict(action=_SWITCH, default=False,
                                                          help="use exact null tables")),
    # analyze and window: the band and the output, and the windows
    ("analyze window", ("--null-samples",), dict(
        type=int, default=1_000_000, help="Monte Carlo draws for parametric nulls (default 1e6)")),
    ("analyze window", ("--replicates", "-R"), dict(
        type=int, default=400, help="bootstrap replicates (default 400, 0 disables)")),
    ("analyze window", ("--smoothing",), dict(
        type=float, default=1.0, help="pseudocount for sampled nulls (default 1)")),
    ("analyze window", ("--format",), dict(choices=("json", "csv", "plotdata"), default="json",
                                           help="output format (default json)")),
    ("window", ("--window", "-W"), dict(type=int, dest="window_length", default=1258,
                                        help="window length in samples (default 1258)")),
    ("window", ("--stride", "-S"), dict(type=int, default=250,
                                        help="window stride (default 250)")),
    # simulate's maps and sine
    ("simulate", ("--x0",), dict(default=0.4, help="map initial condition; mod10 accepts p/q")),
    ("simulate", ("--period",), dict(type=float, default=20.0,
                                     help="sine period in samples (default 20)")),
    ("simulate", ("--phase",), dict(type=float, default=0.0, help="sine phase (default 0)")),
    ("simulate", ("--amplitude",), dict(type=float, default=1.0,
                                        help="sine amplitude (default 1)")),
    ("simulate", ("--format",), dict(choices=("csv", "json"), default="csv",
                                     help="csv: bare ingestible column; json embeds the seed")),
    # nullmodel's draw and series
    ("nullmodel", ("--samples",), dict(type=int, default=1_000_000,
                                       help="Monte Carlo draws (default 1e6)")),
    ("nullmodel", ("--input",), dict(help="CSV series (associated family only)")),
    ("nullmodel", ("--format",), dict(choices=("json", "csv"), default="json",
                                      help="default json")),
    # classes and oracle
    ("classes", ("--closure",), dict(
        action="store_true",
        help="emit the reverse/complement closure instead of the derived classes")),
    ("oracle", ("--n",), dict(type=int, default=4, help="pattern length, 3..5 (default 4)")),
    ("oracle", ("--b",), dict(type=_comma_list(float, "numbers"), default=(0.55, 0.65, 0.75, 0.85),
                              help="step parameters, e.g. 0.55,0.65")),
    ("oracle", ("--resolution",), dict(type=int, default=400,
                                       help="grid cells per axis (default 400)")),
    # every subcommand
    (_ALL, ("--config",), dict(help="JSON file of flag defaults")),
    (_ALL, ("--output", "-o"), dict(help="write to this path instead of stdout")),
    (_ALL, ("--strict",), dict(action="store_true",
                               help="require --seed on runs that consume randomness")),
    (_STEPPED, ("--seed",), dict(type=int, help="random seed (default 0)")),
)

def _flags(command: str) -> dict[str, tuple[tuple[str, ...], dict]]:
    """The names and keywords of a subcommand's flags, by dest, in table order."""
    return {keywords.get("dest", names[0].lstrip("-").replace("-", "_")): (names, keywords)
            for commands, names, keywords in _FLAGS if command in commands.split()}


def _build_parser(command: str | None, alone: bool = False) -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser, and its subcommand parsers by name: every
    subcommand registered with its help, or only `command` if alone. Only
    the parser of `command` (if it names one) gets its flags."""
    parser = _Parser(prog="ordinalwalk",
                     description="ordinal-pattern analysis against random-walk nulls")
    # registered alone, a subcommand leaves the usage listing all six; with all
    # six, a metavar would rename the argument in the invalid-choice and required errors
    metavar = {"metavar": "{" + ",".join(_COMMANDS) + "}"} if alone else {}
    sub = parser.add_subparsers(dest="command", required=True, **metavar)
    # a parser that argparse never hands argv to needs no -h either
    commands = {name: sub.add_parser(name, help=text, add_help=name == command)
                for name, (text, _) in _COMMANDS.items() if not alone or name == command}
    if command in commands:
        for names, keywords in _flags(command).values():
            commands[command].add_argument(*names, **keywords)
    return parser, commands


# --------------------------------------------------------------------------
# config-file defaults
# --------------------------------------------------------------------------

def _config_text(value) -> str:
    # 1e6 and 4.0 read as integers, as the flag's text "1000000" would
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return str(value)


def _load_config(path: str, command: str) -> dict:
    """The config file's flag defaults for one subcommand, checked against
    its rows of _FLAGS; a null value leaves a flag's own, and a list's
    elements are joined."""
    try:
        with open(path, encoding="utf-8") as handle:
            loaded = json.load(handle)
    except OSError as exc:
        raise _UsageError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise _UsageError("config file must hold a JSON object")
    flags = _flags(command)
    defaults = {}
    for key, value in loaded.items():
        if key not in flags or key == "config":
            raise _UsageError(f"config key {key!r} is not a flag of this subcommand")
        if value is None:
            continue
        _, flag = flags[key]
        kind = flag.get("type")
        if isinstance(value, list) and getattr(kind, "comma_list", False):
            value = ",".join(map(_config_text, value))
        elif kind is not None and type(value) in (int, float):
            value = _config_text(value)
        # a switch takes only true or false, and only a comma-list flag a list
        switch = flag.get("action") in ("store_true", _SWITCH)
        if switch != isinstance(value, bool) or isinstance(value, (list, dict)):
            raise _UsageError(f"config key {key!r} has invalid value {value!r}")
        if "choices" in flag and value not in flag["choices"]:
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
        payload = _csv_bytes([v] for v in series.values.tolist())
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
        step = StepModel.uniform(b)
        for rank, pattern in enumerate(all_patterns(n)):  # lex order: the index is the rank
            volume = volume_oracle(pattern, step, args.resolution)
            expected = error = None  # empty cells without a closed form
            if closed is not None:
                expected = float(closed.weights[rank])
                error = abs(volume - expected)
            rows.append((b, pattern, volume, expected, error))
    _write(args, _csv_bytes(rows))
    return 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

#: Every subcommand: its help and the function that runs it, in the order
#: the top-level --help lists them.
_COMMANDS = {
    "analyze": ("whole-series pattern metrics", _cmd_analyze),
    "window": ("sliding-window pattern metrics", _cmd_analyze),
    "simulate": ("emit a synthetic series", _cmd_simulate),
    "nullmodel": ("emit a null model's pattern distribution", _cmd_nullmodel),
    "classes": ("emit pattern equivalence classes", _cmd_classes),
    "oracle": ("quadrature volumes vs closed forms", _cmd_oracle),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # the top level's one option is -h, so argparse hands the rest of argv
        # to the subcommand the first token that is not an option names; a
        # subcommand named first is the only one argparse can meet
        command = next((a for a in argv if a[:1] != "-"), None)
        parser, commands = _build_parser(command, argv[:1] == [command] and command in _COMMANDS)
        args = parser.parse_args(argv)
        if args.config:
            # config values become the subcommand's defaults; a second parse
            # lets explicit flags win and runs string values through type=
            commands[args.command].set_defaults(**_load_config(args.config, args.command))
            args = parser.parse_args(argv)
        return _COMMANDS[args.command][1](args)
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
