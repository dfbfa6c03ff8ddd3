"""Command line front end.

    dbmmd synth  --out DIR [recipe flags] [--format csv|raw]
    dbmmd run    SPEC.json [config overrides]
    dbmmd report OUT_DIR

Exit codes: 0 success, 1 at least one model cell failed, 2 bad
configuration or arguments.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys

from .datamodel import AdaptConfig, from_json
from .experiment import ExperimentSpec, rerender_summary, run_experiment, write_synthetic_files
from .io import FORMATS
from .synthetic import SHIFT_KINDS, SyntheticRecipe

CONFIG_FLAGS = [f.name for f in dataclasses.fields(AdaptConfig)]


def _add_config_overrides(parser: argparse.ArgumentParser) -> None:
    grp = parser.add_argument_group("config overrides (take precedence over the spec)")
    for name in CONFIG_FLAGS:
        grp.add_argument(f"--{name.replace('_', '-')}", dest=f"cfg_{name}", default=None)


def _override_value(raw: str):
    """An override as JSON would carry it: none is null, a number a number, else a string."""
    if raw.lower() == "none":
        return None
    try:
        return float(raw)
    except ValueError:
        return raw


def _apply_overrides(config: AdaptConfig, args: argparse.Namespace) -> AdaptConfig:
    """config with the given overrides, each typed by its field as a spec value is."""
    given = {name: _override_value(raw) for name in CONFIG_FLAGS
             if (raw := getattr(args, f"cfg_{name}")) is not None}
    return from_json(AdaptConfig, {**config.to_dict(), **given}, "config") if given else config


def _cmd_synth(args: argparse.Namespace) -> int:
    values = tuple(float(v) for v in args.shift_param.split(","))
    param = values if "," in args.shift_param else values[0]
    recipe = SyntheticRecipe(
        class_count=args.classes,
        samples_per_class=args.per_class,
        feature_dim=args.dim,
        shift=args.shift,
        shift_param=param,
        noise_sigma=args.noise,
        seed=args.seed,
    )
    paths = write_synthetic_files(recipe, args.out, args.format)
    for role, path in paths.items():
        print(f"{role}: {path}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    spec = ExperimentSpec.from_json_file(args.spec)
    config = _apply_overrides(spec.config, args)
    if config is not spec.config:
        spec = dataclasses.replace(spec, config=config)
    result = run_experiment(spec)
    print((result.output_dir / "summary.md").read_text())
    for run in result.runs:
        if run["status"] != "ok":
            print(f"FAILED {run['model']} rep {run['repeat']}: {run['error']}", file=sys.stderr)
    return result.exit_code


def _cmd_report(args: argparse.Namespace) -> int:
    result = rerender_summary(args.out_dir)
    print((result.output_dir / "summary.md").read_text())
    return result.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dbmmd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="write a seeded synthetic domain pair")
    synth.add_argument("--out", required=True, help="output directory")
    synth.add_argument("--classes", type=int, default=3)
    synth.add_argument("--per-class", type=int, default=50)
    synth.add_argument("--dim", type=int, default=2)
    synth.add_argument("--shift", default="rotation", choices=SHIFT_KINDS)
    synth.add_argument("--shift-param", default="30.0",
                       help="degrees, offset (comma separated for a vector), or scale")
    synth.add_argument("--noise", type=float, default=0.5)
    synth.add_argument("--seed", type=int, default=7)
    synth.add_argument("--format", default="csv", choices=FORMATS)
    synth.set_defaults(func=_cmd_synth)

    run = sub.add_parser("run", help="execute an experiment spec")
    run.add_argument("spec", help="path to the experiment JSON")
    _add_config_overrides(run)
    run.set_defaults(func=_cmd_run)

    report = sub.add_parser("report", help="re-render summaries from stored reports")
    report.add_argument("out_dir", help="experiment output directory")
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as exc:  # ParameterError, FormatError and bad JSON among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
