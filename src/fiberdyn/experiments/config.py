"""Declarative experiment configuration.

Config files use a flat two-level grammar::

    # comment
    [system]
    family = logistic          # bare or "quoted" string
    a0 = 1.7                   # float
    [experiment]
    kind = ftle
    n = 1000000                # int
    [output]
    dir = out/run1
    seed = 1

Sections hold typed scalars only (int, float, string); nesting
deeper than section.key is not representable.  Unknown sections, unknown
keys, and out-of-range values are rejected with the offending field path.
Family values are floats, except that an integral degree d is an int.
"""

import math
import re
from dataclasses import dataclass, field

from ..errors import ParseError, ValidationError
from ..maps import FAMILIES

_INT_RE = re.compile(r"^[+-]?\d+$")
_BARE_RE = re.compile(r"^[A-Za-z0-9_.+-]+$")

def _finite(v):
    """v converts to a finite float; an int past the float range does not."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False

def _positive(v):
    return v > 0

def _depth_list(v):
    tokens = v.split()
    return bool(tokens) and all(_INT_RE.match(t) and int(t) >= 1
                                for t in tokens)

def _unit(v):
    return 0.0 <= v < 1.0

# kind -> {key: (type, default, check, description)}
EXPERIMENT_PARAMS = {
    "ftle": {
        "n": (int, 10**6, _positive, "orbit length"),
        "samples": (int, 20, _positive, "number of seeds/initial points"),
    },
    "branch": {
        "x": (float, 0.25, None, "anchor point"),
        "n": (int, 20, _positive, "branch depth"),
        "theta": (float, 0.0, _unit, "base point (skew systems)"),
    },
    "census": {
        "n": (int, 6, lambda v: 1 <= v <= 16, "word depth"),
        "delta": (float, 0.1, _positive, "size threshold"),
        "cap": (int, 10**5, _positive, "cell budget"),
    },
    "ay_decay": {
        "n_values": (str, "30 40 50 60", _depth_list,
                     "space-separated depths"),
        "delta_min": (float, 0.02, _positive, "smallest threshold"),
        "delta_max": (float, 0.2, _positive, "largest threshold"),
        "delta_count": (int, 7, _positive, "thresholds on a geometric grid"),
        "lambda": (float, 0.3, _positive, "expansion rate"),
        "samples": (int, 10**5, lambda v: v >= 10**3, "sample points"),
    },
    "pliss": {
        "x": (float, 0.25, None, "anchor point"),
        "n": (int, 200, _positive, "branch depth / sequence length"),
        "c1": (float, 0.05, _positive, "lower threshold"),
        "c2": (float, 0.1, _positive, "mean threshold"),
        "theta": (float, 0.0, _unit, "base point (skew systems)"),
    },
    "curve": {
        "iterations": (int, 100, _positive, "curve iterations"),
        "curves": (int, 10, _positive, "number of initial curves"),
        "alpha": (float, 0.01, _positive, "initial slope bound"),
        "samples": (int, 1024, lambda v: v >= 2, "samples per curve"),
    },
    "probe": {
        "theta": (float, 0.3, _unit, "base coordinate"),
        "x": (float, 0.2, None, "fiber coordinate"),
        "k": (int, 5, lambda v: v >= 0, "iterate"),
        "delta_tilde": (float, 0.3, _positive, "hyperbolic-like threshold"),
        "grid": (int, 32, lambda v: v >= 2, "mesh resolution"),
    },
    "acim": {
        "samples": (int, 10**4, _positive, "initial points"),
        "n": (int, 10**3, _positive, "iterations per point"),
        "bins": (int, 256, _positive, "histogram bins"),
    },
    "components": {
        "probes": (int, 100, lambda v: v >= 100, "probe orbits"),
        "n": (int, 10**4, lambda v: v >= 10, "orbit length"),
        "bins": (int, 64, _positive, "histogram bins"),
        "threshold": (float, 0.3, _positive, "linkage threshold"),
    },
    "markov": {
        "depth": (int, 1, lambda v: v >= 0, "partition refinement depth"),
        "seeds": (int, 10**4, _positive, "discovery seeds"),
        "k_max": (int, 200, _positive, "inducing-time cap"),
        "orbit_len": (int, 50, _positive, "induced orbit length"),
        "probes": (int, 40, _positive, "summability probes"),
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    family: str
    kind: str
    seed: int = 1
    out_dir: str = "out"
    system_params: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    def param(self, key):
        return self.params[key]


def _parse_scalar(raw, line_no, col):
    raw = raw.strip()
    if not raw:
        raise ParseError("missing value", line_no, col)
    if raw.startswith('"'):
        if len(raw) < 2 or not raw.endswith('"'):
            raise ParseError("unterminated string", line_no, col)
        return raw[1:-1]
    if _INT_RE.match(raw):
        return int(raw)
    try:
        return float(raw)
    except ValueError:
        pass
    if _BARE_RE.match(raw):
        return raw
    raise ParseError(f"cannot parse value {raw!r}", line_no, col)


def _parse_sections(text):
    sections = {}
    current = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        # comments start at an unquoted '#'
        in_quote = False
        cut = len(line)
        for i, ch in enumerate(line):
            if ch == '"':
                in_quote = not in_quote
            elif ch == "#" and not in_quote:
                cut = i
                break
        stripped = line[:cut].strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError("unterminated section header", line_no,
                                 cut)
            name = stripped[1:-1].strip()
            if not name:
                raise ParseError("empty section name", line_no, 1)
            current = sections.setdefault(name, {})
            continue
        if current is None:
            raise ParseError("key outside any section", line_no, 1)
        if "=" not in stripped:
            raise ParseError("expected key = value", line_no, 1)
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ParseError("empty key", line_no, 1)
        if key in current:
            raise ParseError(f"duplicate key {key!r}", line_no, 1)
        current[key] = _parse_scalar(raw, line_no, line.find("=") + 2)
    return sections


def _coerce(key, value, entry):
    want, _, check, _ = entry
    field_path = f"experiment.{key}"
    if want is float and isinstance(value, int):
        value = float(value) if _finite(value) else math.inf
    if not isinstance(value, want):
        raise ValidationError(field_path,
                              f"expected {want.__name__}, got {value!r}")
    if want is not str and not _finite(value):
        raise ValidationError(field_path, "expected a finite number")
    if want is int and not -2**63 <= value < 2**63:
        raise ValidationError(field_path,
                              "expected an integer in the signed 64-bit range")
    if check is not None and not check(value):
        raise ValidationError(field_path, f"value {value!r} out of range")
    return value


def validate_config(sections):
    known = {"system", "experiment", "output"}
    for name in sections:
        if name not in known:
            raise ValidationError(name, "unknown section")
    system = dict(sections.get("system", {}))
    family = system.pop("family", None)
    if family is None:
        raise ValidationError("system.family", "required")
    if family not in FAMILIES:
        raise ValidationError("system.family",
                              f"unknown family {family!r}")
    _, allowed = FAMILIES[family]
    for key, value in system.items():
        if key not in allowed:
            raise ValidationError(f"system.{key}",
                                  f"not a parameter of family {family!r}")
        if not isinstance(value, (int, float)) or not _finite(value):
            raise ValidationError(f"system.{key}", "expected a finite number")
        value = float(value)
        system[key] = int(value) if key == "d" and value.is_integer() \
            else value
    exp = dict(sections.get("experiment", {}))
    kind = exp.pop("kind", None)
    if kind is None:
        raise ValidationError("experiment.kind", "required")
    if kind not in EXPERIMENT_PARAMS:
        raise ValidationError("experiment.kind",
                              f"unknown experiment {kind!r}")
    schema = EXPERIMENT_PARAMS[kind]
    params = {}
    for key, value in exp.items():
        if key not in schema:
            raise ValidationError(f"experiment.{key}",
                                  f"unknown key for {kind!r}")
        params[key] = _coerce(key, value, schema[key])
    for key, entry in schema.items():
        params.setdefault(key, entry[1])
    if kind == "ay_decay":
        if params["delta_min"] > params["delta_max"]:
            raise ValidationError("experiment.delta_min",
                                  "must not exceed experiment.delta_max")
        if params["delta_min"] == params["delta_max"] \
                and params["delta_count"] > 1:
            raise ValidationError("experiment.delta_count",
                                  "must be 1 when experiment.delta_min "
                                  "equals experiment.delta_max")
        depths = [int(t) for t in params["n_values"].split()]
        if len(set(depths)) < len(depths):
            raise ValidationError("experiment.n_values", "repeated depth")
    if kind == "pliss" and params["c1"] >= params["c2"]:
        raise ValidationError("experiment.c1",
                              "must be below experiment.c2")
    out = dict(sections.get("output", {}))
    seed = out.pop("seed", 1)
    if not isinstance(seed, int):
        raise ValidationError("output.seed", "expected an integer")
    if not 0 <= seed < 2**64:
        raise ValidationError("output.seed", "must fit in 64 bits")
    out_dir = out.pop("dir", "out")
    if not isinstance(out_dir, str):
        raise ValidationError("output.dir", "expected a string")
    for key in out:
        raise ValidationError(f"output.{key}", "unknown key")
    return ExperimentConfig(family=family, kind=kind, seed=seed,
                            out_dir=out_dir, system_params=system,
                            params=params)


def parse_config(text):
    """Parse and validate config text into an ExperimentConfig."""
    return validate_config(_parse_sections(text))


def _format_scalar(v):
    if isinstance(v, (int, float)):
        return repr(v)
    if _BARE_RE.match(v or ""):
        return v
    return f'"{v}"'


def serialize_config(cfg: ExperimentConfig):
    """Canonical text form; parse(serialize(cfg)) round-trips exactly."""
    lines = ["[system]", f"family = {_format_scalar(cfg.family)}"]
    for key in sorted(cfg.system_params):
        lines.append(f"{key} = {_format_scalar(cfg.system_params[key])}")
    lines.append("")
    lines.append("[experiment]")
    lines.append(f"kind = {_format_scalar(cfg.kind)}")
    for key in sorted(cfg.params):
        lines.append(f"{key} = {_format_scalar(cfg.params[key])}")
    lines.append("")
    lines.append("[output]")
    lines.append(f"dir = {_format_scalar(cfg.out_dir)}")
    lines.append(f"seed = {cfg.seed}")
    lines.append("")
    return "\n".join(lines)
