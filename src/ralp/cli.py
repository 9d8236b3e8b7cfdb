"""Command-line front end.

Commands: profile | split | volumes | simulate | catalog.  Reports are
machine-readable (JSON, or CSV for volume tables) and byte-stable across
identical invocations.  Exit codes: 0 ok, 2 parse/validation error,
3 unknown catalog name, 4 bad flag value, 5 cluster capacity exceeded,
141 standard output closed before all of it was written.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import sys
import warnings
from importlib import resources
from pathlib import Path
from typing import Optional

from .catalog import UnknownModelError, catalog_lookup, catalog_names
from .costmodel import (
    StrategyKind,
    compare_strategies,
    gpu_assignments,
    rows_to_csv,
    rows_to_json,
    volume_ring,
)
from .descriptor import DescriptorError, file_error, integer, number, parse_model
from .layers import ModelGraph
from .profiler import ProfilerConfig, ProfilerError, profile

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNKNOWN_CATALOG = 3
EXIT_BAD_FLAG = 4
EXIT_CAPACITY = 5
# What a shell reports for a command that SIGPIPE ends (128 + 13).
EXIT_CLOSED_OUTPUT = 141

GIB = float(1 << 30)


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _flag(flag: str, text: Optional[str], read=integer, least: Optional[int] = None):
    """Flag ``flag``'s value ``text`` read by ``integer`` or ``number``, and
    at least ``least`` if that is given; None if the flag was not given."""
    try:
        value = None if text is None else read(text)
    except ValueError:
        raise _CliError(EXIT_BAD_FLAG, f"bad {flag} value {text!r}") from None
    if value is not None and least is not None and value < least:
        raise _CliError(EXIT_BAD_FLAG, f"{flag} must be >= {least}, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a word that starts with ``-`` after a flag
    taking one value as ``--flag=word`` does, unless the word is one of its own
    option strings: argparse alone reads ``-2e9`` there as a flag.  Flags are
    spelled in full, so its option strings are the only words that name one."""

    def __init__(self, **kwargs):
        self.takes_value: dict[str, bool] = {}  # for each option string
        super().__init__(allow_abbrev=False, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.takes_value.update(dict.fromkeys(action.option_strings, action.nargs is None))
        return action

    def parse_known_args(self, args=None, namespace=None):
        words: list[str] = []
        for word in sys.argv[1:] if args is None else args:
            if words and self.takes_value.get(words[-1]) and word[:1] == "-" and word not in self.takes_value:
                words[-1] += "=" + word
            else:
                words.append(word)
        return super().parse_known_args(words, namespace)


def _resolve_model(ref: str, base: Optional[Path] = None) -> ModelGraph:
    """Resolve a model reference: a descriptor path when it looks like one
    (``base / ref`` when that is a file, else ``ref`` as given), else a
    catalog name.  Errors propagate: OSError or UnicodeDecodeError from the
    read, DescriptorError or UnknownModelError from the contents."""
    if ref.endswith(".model") or "/" in ref or "\\" in ref:
        path = base / ref if base is not None and (base / ref).is_file() else Path(ref)
        return parse_model(path.read_text(encoding="utf-8"))
    return catalog_lookup(ref)


def _load_model(ref: str) -> ModelGraph:
    try:
        return _resolve_model(ref)
    except UnknownModelError as exc:
        raise _CliError(EXIT_UNKNOWN_CATALOG, str(exc.args[0])) from exc
    except DescriptorError as exc:
        raise _CliError(EXIT_PARSE, f"{ref}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(EXIT_PARSE, f"cannot read model descriptor {ref!r}: "
                                    f"{file_error(exc)}") from exc


def _cmd_profile(args) -> int:
    """``profile`` prints the whole report; ``split`` (``brief``) leaves
    out the per-layer table and the skewness mode."""
    model = _load_model(args.model)
    threshold = _flag("--threshold", args.threshold, number)
    # A non-negative threshold warns: one stderr line, under any warning filter.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            config = ProfilerConfig(threshold, args.mode)
        except ProfilerError as exc:
            raise _CliError(EXIT_BAD_FLAG, str(exc)) from None
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    report = profile(model, config)
    payload = report.to_dict()
    if args.brief:
        del payload["layers"], payload["mode"]
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _parse_strategies(raw: str) -> list[StrategyKind]:
    if raw == "all":
        return list(StrategyKind)
    kinds = []
    for token in raw.split(","):
        token = token.strip()
        try:
            kinds.append(StrategyKind(token))
        except ValueError:
            raise _CliError(
                EXIT_BAD_FLAG,
                f"unknown strategy {token!r} (expected baseline, ralp, ring, or all)",
            ) from None
    return kinds


def _cmd_volumes(args) -> int:
    model = _load_model(args.model)
    if args.reproduce_table3:
        given = [f"--{flag}" for flag in ("workers", "strategies", "split", "format", "gpus")
                 if getattr(args, flag) is not None]
        if given:
            raise _CliError(EXIT_BAD_FLAG, f"--reproduce-table3 prints a fixed table; "
                                           f"it does not take {', '.join(given)}")
        return _reproduce_table3()
    workers_arg = "8" if args.workers is None else args.workers
    workers = [_flag("--workers", w, least=1) for w in workers_arg.split(",")]
    split = _flag("--split", args.split)
    if split is not None and not 1 <= split < model.num_layers:
        rule = (f"must be in 1..{model.num_layers - 1} for {model.name}" if model.num_layers > 1
                else f"has no value for {model.name}: one layer has no split point")
        raise _CliError(EXIT_BAD_FLAG, f"--split {rule}, got {split}")
    gpus = _flag("--gpus", args.gpus, least=2)
    kinds = _parse_strategies("all" if args.strategies is None else args.strategies)
    if split is not None and StrategyKind.RALP not in kinds:
        raise _CliError(EXIT_BAD_FLAG, f"--split sets the ralp rows' split, but --strategies "
                                       f"{args.strategies!r} has no ralp rows")
    rows = compare_strategies(model, workers, kinds, split_index=split)
    if args.format == "json":
        print(rows_to_json(rows))
    else:
        print(rows_to_csv(rows), end="")
    if gpus is not None:
        print(json.dumps({"gpu_assignments": gpu_assignments(gpus)}, indent=2))
    return EXIT_OK


def _reproduce_table3() -> int:
    """Per-step transfer sizes for the three reference benchmarks at W=8
    synchronizing machines (printed in binary GB to match the reported
    figures)."""
    print("model,model_size_gb,ring_w8_gb")
    for name in ("alexnet", "inception-v3", "vgg11"):
        model = catalog_lookup(name)
        ring = volume_ring(model, 8).total_bytes_per_step
        print(f"{name},{model.total_param_bytes / GIB:.2f},{ring / GIB:.2f}")
    return EXIT_OK


def _bundled_scenario(name: str) -> Path:
    return Path(str(resources.files("ralp") / "scenarios" / name))


def _cmd_simulate(args) -> int:
    # Only this command loads the engine; the planning commands start without it.
    from .simulator import CapacityError, ScenarioError, parse_scenario, simulate_run

    steps = _flag("--steps", args.steps, least=1)
    path = Path(args.scenario)
    if not path.is_file() and path.name == args.scenario:
        bundled = _bundled_scenario(args.scenario)
        if bundled.is_file():
            path = bundled
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(EXIT_PARSE, f"cannot read scenario {args.scenario!r}: "
                                    f"{file_error(exc)}") from exc
    try:
        scenario = parse_scenario(text, lambda ref: _resolve_model(ref, path.parent))
        if steps is not None:
            scenario = dataclasses.replace(scenario, steps=steps)
        report = simulate_run(scenario)
    except CapacityError as exc:
        raise _CliError(EXIT_CAPACITY, f"{path}: {exc}") from exc
    except ScenarioError as exc:
        unknown = isinstance(exc.__cause__, UnknownModelError)
        raise _CliError(EXIT_UNKNOWN_CATALOG if unknown else EXIT_PARSE, f"{path}: {exc}") from exc

    for flag, dest, render in (("--out", args.out, lambda: report.to_json() + "\n"),
                               ("--timeline", args.timeline, report.timeline_csv)):
        if dest:
            try:
                Path(dest).write_text(render(), encoding="utf-8")
            except OSError as exc:
                raise _CliError(EXIT_BAD_FLAG, f"{flag}: cannot write {dest!r}: "
                                               f"{file_error(exc)}") from exc
    for job in report.jobs:
        # From 1e11 s up, six decimals would print more than a float's 17
        # significant digits: such a time prints in exponent form instead.
        step_time = format(job.avg_step_time, ".6f" if job.avg_step_time < 1e11 else ".6e")
        print(
            f"{job.job}: strategy={job.strategy} workers={job.worker_count} "
            f"step_time={step_time}s images_per_sec={job.images_per_sec:.1f} "
            f"comm_fraction={job.comm_fraction:.3f} wire_bytes={job.bytes_on_wire_per_step}"
        )
    return EXIT_OK


def _cmd_catalog(args) -> int:
    models = [(name, catalog_lookup(name)) for name in catalog_names()]
    if args.json:
        payload = [
            {
                "name": name,
                "layers": model.num_layers,
                "batch_size": model.batch_size,
                "total_param_bytes": model.total_param_bytes,
            }
            for name, model in models
        ]
        print(json.dumps(payload, indent=2))
    else:
        for name, model in models:
            print(
                f"{name:16s} layers={model.num_layers:3d} batch={model.batch_size:3d} "
                f"size={model.total_param_bytes / GIB:.2f}GB"
            )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ralp",
        description="Profile CNN models for resource-aware layer placement, "
        "tabulate per-step communication volumes, and simulate training on a "
        "modeled cluster.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_profile_flags(p):
        p.add_argument("model", help="catalog name or descriptor path")
        p.add_argument("--threshold", default="-0.5",
                       help="skewness eligibility cutoff (default -0.5)")
        p.add_argument("--mode", default="index_weighted",
                       help="index_weighted (default) or literal_values")

    p_profile = sub.add_parser("profile", help="full profile report (JSON)")
    add_profile_flags(p_profile)
    p_profile.set_defaults(fn=_cmd_profile, brief=False)

    p_split = sub.add_parser("split", help="split decision only (JSON)")
    add_profile_flags(p_split)
    p_split.set_defaults(fn=_cmd_profile, brief=True)

    p_vol = sub.add_parser("volumes", help="per-step communication volume table")
    p_vol.add_argument("model")
    # Defaults are None so that --reproduce-table3 can tell a flag was given.
    p_vol.add_argument("--workers", default=None, help="comma-separated worker counts (default 8)")
    p_vol.add_argument("--strategies", default=None,
                       help="comma-separated subset of baseline,ralp,ring, or all (the default)")
    p_vol.add_argument("--split", default=None,
                       help="override the profiled split layer for the ralp rows")
    p_vol.add_argument("--format", choices=("csv", "json"), default=None,
                       help="csv (default) or json")
    p_vol.add_argument("--gpus", default=None,
                       help="also print worker/PS device accounting for this GPU budget")
    p_vol.add_argument("--reproduce-table3", action="store_true",
                       help="print the three-benchmark reference table at W=8")
    p_vol.set_defaults(fn=_cmd_volumes)

    p_sim = sub.add_parser("simulate", help="run a scenario file")
    p_sim.add_argument("scenario", help="scenario path (bundled names also work)")
    p_sim.add_argument("--steps", default=None, help="override scenario step count")
    p_sim.add_argument("--out", default=None, help="write the full JSON report here")
    p_sim.add_argument("--timeline", default=None, help="write the per-step category CSV here")
    p_sim.set_defaults(fn=_cmd_simulate)

    p_cat = sub.add_parser("catalog", help="list bundled benchmark models")
    p_cat.add_argument("--json", action="store_true")
    p_cat.set_defaults(fn=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    if isinstance(sys.stdout, io.TextIOWrapper):
        # Escape what the locale cannot encode, as Python does on stderr.
        sys.stdout.reconfigure(errors="backslashreplace")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
    except _CliError as exc:  # raised before anything is printed
        print(f"error: {exc}", file=sys.stderr)
        code = exc.code
    except BrokenPipeError:
        # The reader has gone (``ralp catalog | head -n 1``).  What is still
        # buffered goes nowhere, so the interpreter's flush at exit stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = EXIT_CLOSED_OUTPUT
    return code


if __name__ == "__main__":
    raise SystemExit(main())
