"""Line-oriented run configuration: parse, validate, canonical serialization.

Grammar: one `[section]` header naming the subcommand, then `key = value`
lines; `#` starts a comment anywhere; blank lines ignored.  Every key is
declared in a per-subcommand schema with a type (int, real, string, or a
comma-separated list of int/real) and an optional positivity constraint;
unknown keys are rejected.  parse -> serialize -> parse is the identity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Union

from ..ibm import KERNELS
from ..kinetic import U_POLICIES

Value = Union[int, float, str, tuple]


class ConfigError(ValueError):
    """Configuration diagnostic with a distinct code and a 1-based line number.

    Codes: "syntax", "section", "unknown-key", "type-mismatch",
    "missing-key", "bad-value".
    """

    def __init__(self, code: str, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message} [{code}]" if line else f"{message} [{code}]")
        self.code = code
        self.line = line


@dataclass(frozen=True)
class FieldSpec:
    type: str  # int | real | string | int_list | real_list
    required: bool = False
    default: Value = None
    positive: bool = False
    nonnegative: bool = False
    choices: tuple = ()


_COMMON = {
    "seed": FieldSpec("int", default=0, nonnegative=True),
    "out": FieldSpec("string", default="."),
}

SCHEMAS: dict[str, dict[str, FieldSpec]] = {
    "coeffs": {
        **_COMMON,
        "kappas": FieldSpec("real_list", default=(0.5, 1.0, 2.0, 4.0, 8.0), positive=True),
        "ds": FieldSpec("int_list", default=(2, 3, 4), positive=True),
        "n": FieldSpec("int", default=1024, positive=True),
    },
    "ibm": {
        **_COMMON,
        "N": FieldSpec("int", required=True, positive=True),
        "d": FieldSpec("int", required=True, positive=True),
        "nu": FieldSpec("real", required=True, nonnegative=True),
        "D": FieldSpec("real", required=True, nonnegative=True),
        "R": FieldSpec("real", required=True, positive=True),
        "dt": FieldSpec("real", required=True, positive=True),
        "T": FieldSpec("real", required=True, positive=True),
        "kernel": FieldSpec("string", default="indicator", choices=KERNELS),
        "box_length": FieldSpec("real", default=1.0, positive=True),
        "observe_every": FieldSpec("int", default=10, positive=True),
        "coarse_grid": FieldSpec("int", default=0, nonnegative=True),
        "coarse_bandwidth": FieldSpec("real", default=0.0, nonnegative=True),
    },
    "kinetic": {
        **_COMMON,
        "kappa": FieldSpec("real", required=True, nonnegative=True),
        "D": FieldSpec("real", required=True, positive=True),
        "n": FieldSpec("int", required=True, positive=True),
        "dt": FieldSpec("real", required=True, positive=True),
        "T": FieldSpec("real", required=True, positive=True),
        "d": FieldSpec("int", default=3, positive=True),
        "center": FieldSpec("real", default=0.3, nonnegative=True),
        "width": FieldSpec("real", default=0.2, positive=True),
        "n_samples": FieldSpec("int", default=40, positive=True),
        "u_policy": FieldSpec("string", default="fixed", choices=U_POLICIES),
    },
    "macro": {
        **_COMMON,
        "kappa": FieldSpec("real", required=True, positive=True),
        "d": FieldSpec("int", required=True, positive=True),
        "grid_n": FieldSpec("int", required=True, positive=True),
        "T": FieldSpec("real", required=True, positive=True),
        "box": FieldSpec("real", default=1.0, positive=True),
        "cfl_safety": FieldSpec("real", default=0.2, positive=True),
        "amplitude": FieldSpec("real", default=0.5),
        "wave": FieldSpec("real", default=0.3),
        "n_profile": FieldSpec("int", default=1024, positive=True),
        "snapshots": FieldSpec("int", default=4, positive=True),
    },
    "validate": {
        **_COMMON,
        "kappa": FieldSpec("real", default=4.0, nonnegative=True),
        "d": FieldSpec("int", default=3, positive=True),
        "n": FieldSpec("int", default=1024, positive=True),
        "eps": FieldSpec("real_list", default=(0.2, 0.1, 0.05, 0.025), positive=True),
        "trials": FieldSpec("int", default=5, positive=True),
        "N": FieldSpec("int", default=10_000, positive=True),
        "T": FieldSpec("real", default=20.0, positive=True),
        "dt": FieldSpec("real", default=1e-3, positive=True),
        "nu": FieldSpec("real", default=4.0, nonnegative=True),
        "D": FieldSpec("real", default=1.0, positive=True),
        "cross_N": FieldSpec("int", default=100_000, positive=True),
        "cross_eps": FieldSpec("real", default=0.1, positive=True),
        "cross_T": FieldSpec("real", default=0.05, positive=True),
        "cross_dt": FieldSpec("real", default=0.02, positive=True),
        "cross_box": FieldSpec("real", default=10.0, positive=True),
        "cross_R": FieldSpec("real", default=0.1, positive=True),
        "grid_n": FieldSpec("int", default=32, positive=True),
    },
}

@dataclass(frozen=True)
class RunConfig:
    """Typed parameters for one subcommand, plus seed and output directory."""

    subcommand: str
    params: dict = field(default_factory=dict)

    @property
    def seed(self) -> int:
        return self.params["seed"]

    @property
    def out_dir(self) -> str:
        return self.params["out"]

    def with_overrides(self, seed=None, out=None) -> "RunConfig":
        params = dict(self.params)
        if seed is not None:
            params["seed"] = int(seed)
        if out is not None:
            params["out"] = str(out)
        return replace(self, params=params)


def _parse_scalar(token: str, kind: str, key: str, line_no: int) -> Value:
    token = token.strip()
    if kind == "int":
        try:
            return int(token)
        except ValueError:
            raise ConfigError(
                "type-mismatch", line_no, f"key {key!r} expects an integer, got {token!r}"
            ) from None
    if kind == "real":
        try:
            value = float(token)
        except ValueError:
            raise ConfigError(
                "type-mismatch", line_no, f"key {key!r} expects a real number, got {token!r}"
            ) from None
        if not math.isfinite(value):
            raise ConfigError("bad-value", line_no, f"key {key!r} must be finite, got {token!r}")
        return value
    return token  # string


def _parse_value(token: str, spec: FieldSpec, key: str, line_no: int) -> Value:
    if spec.type in ("int_list", "real_list"):
        base = spec.type[:-5]
        parts = [p for p in token.split(",") if p.strip()]
        if not parts:
            raise ConfigError("type-mismatch", line_no, f"key {key!r} expects a nonempty list")
        return tuple(_parse_scalar(p, base, key, line_no) for p in parts)
    return _parse_scalar(token, spec.type, key, line_no)


def _check_value(value: Value, spec: FieldSpec, key: str, line_no: int) -> None:
    items = value if isinstance(value, tuple) else (value,)
    for item in items:
        if spec.positive and not (isinstance(item, str) or item > 0):
            raise ConfigError("bad-value", line_no, f"key {key!r} must be positive, got {item}")
        if spec.nonnegative and not (isinstance(item, str) or item >= 0):
            raise ConfigError(
                "bad-value", line_no, f"key {key!r} must be nonnegative, got {item}"
            )
    if spec.choices and value not in spec.choices:
        raise ConfigError(
            "bad-value", line_no,
            f"key {key!r} must be one of {', '.join(spec.choices)}, got {value!r}",
        )


def parse_config(text: str) -> RunConfig:
    """Typed RunConfig from config text, or the first diagnostic found."""
    subcommand = None
    values: dict[str, Value] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("syntax", line_no, f"unterminated section header {raw!r}")
            name = line[1:-1].strip()
            if name not in SCHEMAS:
                raise ConfigError(
                    "section", line_no,
                    f"unknown section {name!r}; expected one of {', '.join(SCHEMAS)}",
                )
            if subcommand is not None:
                raise ConfigError(
                    "section", line_no, "exactly one section per config is allowed"
                )
            subcommand = name
            continue
        if "=" not in line:
            raise ConfigError("syntax", line_no, f"expected 'key = value', got {raw!r}")
        if subcommand is None:
            raise ConfigError("section", line_no, "a [section] header must come first")
        key, _, token = line.partition("=")
        key = key.strip()
        schema = SCHEMAS[subcommand]
        if key not in schema:
            raise ConfigError(
                "unknown-key", line_no, f"unknown key {key!r} in section [{subcommand}]"
            )
        if key in values:
            raise ConfigError("syntax", line_no, f"duplicate key {key!r}")
        spec = schema[key]
        value = _parse_value(token, spec, key, line_no)
        _check_value(value, spec, key, line_no)
        values[key] = value
    if subcommand is None:
        raise ConfigError("section", 0, "no [section] header found")
    schema = SCHEMAS[subcommand]
    for key, spec in schema.items():
        if key not in values:
            if spec.required:
                raise ConfigError(
                    "missing-key", 0, f"section [{subcommand}] requires key {key!r}"
                )
            values[key] = spec.default
    return RunConfig(subcommand=subcommand, params=values)


def _format_value(value: Value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(config: RunConfig) -> str:
    """Canonical text: section header, then keys in sorted order."""
    lines = [f"[{config.subcommand}]"]
    for key in sorted(config.params):
        lines.append(f"{key} = {_format_value(config.params[key])}")
    return "\n".join(lines) + "\n"
