"""Command line entry point: one subcommand per experiment.

Flags mirror config keys and lay over the raw sections of a --config
file, and the result is validated once; exit codes: 0 success,
1 experiment failure, 2 config error.
"""

import argparse
import functools
import sys
from pathlib import Path

from ..errors import FiberdynError, ParseError, ValidationError
from ..maps import FAMILIES
from .config import EXPERIMENT_PARAMS, _parse_sections, validate_config
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
    """The --config file's raw sections with the flags laid over them."""
    sections = (_parse_sections(Path(args.config).read_text())
                if args.config else {})
    exp = sections.setdefault("experiment", {})
    if exp.setdefault("kind", args.kind) != args.kind:
        raise ValidationError(
            "experiment.kind",
            f"config file runs {exp['kind']!r}, subcommand is {args.kind!r}")
    if args.family is not None:
        sections["system"] = {"family": args.family}
    system = sections.setdefault("system", {})
    system.setdefault("family", "logistic")
    for item in args.system:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ValidationError(f"system.{item}", "expected KEY=VALUE")
        try:
            system[key] = float(raw)
        except ValueError:
            raise ValidationError(f"system.{key}",
                                  "expected a number") from None
    for key in EXPERIMENT_PARAMS[args.kind]:
        value = getattr(args, f"param_{key}")
        if value is not None:
            exp[key] = value
    out = sections.setdefault("output", {})
    if args.seed is not None:
        out["seed"] = args.seed
    if args.out is not None:
        out["dir"] = args.out
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
