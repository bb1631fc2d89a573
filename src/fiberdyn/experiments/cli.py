"""Command line entry point: one subcommand per experiment.

Flags mirror config keys and override values loaded with --config;
exit codes: 0 success, 1 experiment failure, 2 config error.
"""

import argparse
import functools
import sys
from pathlib import Path

from ..errors import FiberdynError, ParseError, ValidationError
from ..maps import FAMILIES
from .config import EXPERIMENT_PARAMS, parse_config, validate_config
from .runner import run_experiment

_ALL_SYSTEM_KEYS = sorted({k for _, ks in FAMILIES.values() for k in ks})


@functools.cache
def build_parser():
    """The argument parser, built once per process: parse_args leaves it
    unchanged, and the append action copies the shared --system default
    before it appends."""
    parser = argparse.ArgumentParser(
        prog="fiberdyn",
        description="Seeded experiments for interval-map and skew-product "
                    "dynamics; results land in CSV/JSON files plus a "
                    "manifest with content digests.")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind, schema in EXPERIMENT_PARAMS.items():
        sp = sub.add_parser(kind, help=f"run the {kind} experiment")
        sp.add_argument("--config", type=str, default=None,
                        help="config file providing defaults")
        sp.add_argument("--seed", type=int, default=None,
                        help="64-bit RNG seed")
        sp.add_argument("--out", type=str, default=None,
                        help="output directory")
        sp.add_argument("--family", type=str, default=None,
                        help="system family name")
        sp.add_argument("--system", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="system parameter override, e.g. --system "
                             f"a0=1.7 (keys: {', '.join(_ALL_SYSTEM_KEYS)})")
        for key, (want, default, _, desc) in schema.items():
            flag = f"--{key.replace('_', '-')}"
            sp.add_argument(flag, dest=f"param_{key}", type=want,
                            default=None, help=f"{desc} (default {default})")
    return parser


def _assemble_sections(args):
    sections = {"system": {}, "experiment": {}, "output": {}}
    if args.config:
        text = Path(args.config).read_text()
        parsed = parse_config(text)
        sections["system"] = {"family": parsed.family,
                              **parsed.system_params}
        if parsed.kind != args.kind:
            raise ValidationError(
                "experiment.kind",
                f"config file runs {parsed.kind!r}, subcommand is "
                f"{args.kind!r}")
        sections["experiment"] = {"kind": parsed.kind, **parsed.params}
        sections["output"] = {"seed": parsed.seed, "dir": parsed.out_dir}
    sections["experiment"]["kind"] = args.kind
    if args.family is not None:
        sections["system"] = {"family": args.family}
    sections["system"].setdefault("family", "logistic")
    for item in args.system:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ValidationError(f"system.{item}", "expected KEY=VALUE")
        try:
            value = float(raw)
        except ValueError:
            raise ValidationError(f"system.{key}",
                                  "expected a number") from None
        # an integral degree keeps its int form, as in a config file
        sections["system"][key] = (int(value) if key == "d"
                                   and value.is_integer() else value)
    for key in EXPERIMENT_PARAMS[args.kind]:
        value = getattr(args, f"param_{key}", None)
        if value is not None:
            sections["experiment"][key] = value
    if args.seed is not None:
        sections["output"]["seed"] = args.seed
    if args.out is not None:
        sections["output"]["dir"] = args.out
    sections["output"].setdefault("dir", "out")
    return sections


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = validate_config(_assemble_sections(args))
    except (ParseError, ValidationError, OSError) as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return 2
    try:
        manifest = run_experiment(cfg)
    except ValidationError as ex:     # the system rejected its parameters
        print(f"config error: {ex}", file=sys.stderr)
        return 2
    except FiberdynError as ex:
        print(f"experiment failed: {ex}", file=sys.stderr)
        return 1
    except Exception as ex:
        print(f"experiment failed: {type(ex).__name__}: {ex}",
              file=sys.stderr)
        return 1
    for entry in manifest["outputs"]:
        print(f"{entry['sha256'][:12]}  {cfg.out_dir}/{entry['name']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
