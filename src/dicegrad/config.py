"""Flat `key = value` run configuration.

One schema covers every command; a config file may set any subset, and
`--set key=value` flags override the file.  Keys are namespaced by what
they configure (`model.depth`, `train.steps`, ...).  Unknown keys are
rejected rather than ignored so a typo cannot silently fall back to a
default.  The fully resolved mapping can be rendered back to text; the
rendering parses to the identical mapping, which is what makes the
effective-config echo in every output directory re-runnable.
"""

from __future__ import annotations

from dataclasses import MISSING, fields

from .errors import ValidationError
from .losses import LossConfig
from .model import ModelConfig
from .phantom import NUM_LABELS, PhantomSpec
from .sampling import SamplerConfig
from .training import CompareConfig, TrainConfig


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(",") if part.strip())


def _parse_str_list(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


# Parsers by dataclass field annotation (a string under postponed evaluation).
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "bool": _parse_bool,
    "tuple[int, ...]": _parse_int_list,
    "tuple[str, ...]": _parse_str_list,
}

# Key prefix -> the dataclass whose defaulted fields are its keys.
# sampler.patch_size has no default and is not a key: the sampler takes
# model.patch_size.
_SECTIONS = {"model": ModelConfig, "loss": LossConfig, "sampler": SamplerConfig,
             "phantom": PhantomSpec, "train": TrainConfig, "compare": CompareConfig}

# key -> (parser, default).  Keys backed by a dataclass field take both from
# the field; the rest have no field default to take them from.
SCHEMA: dict = {
    **{f"{section}.{f.name}": (_PARSERS[f.type], f.default)
       for section, cls in _SECTIONS.items()
       for f in fields(cls)
       if f.type in _PARSERS and f.default is not MISSING},
    "model.num_labels": (int, NUM_LABELS),
    "data.num_cases": (int, 30),
    "data.seed": (int, 0),
    "eval.oracle_self_test": (_parse_bool, False),
    "check.threshold": (float, 1e-5),
    "check.end_to_end_threshold": (float, 1e-4),
}


def parse_config_text(text: str, source: str) -> dict[str, str]:
    """Raw key -> value strings from `key = value` lines; `#` comments."""
    raw = {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{source}:{ln}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ValidationError(f"{source}:{ln}: empty key")
        if key in raw:
            raise ValidationError(f"{source}:{ln}: duplicate key {key!r}")
        raw[key] = value
    return raw


def resolve(file_text: str | None = None, overrides: list[str] | None = None,
            source: str = "<config>") -> dict:
    """Defaults, overlaid by the config file, overlaid by --set pairs."""
    cfg = {key: default for key, (_, default) in SCHEMA.items()}

    def apply(key: str, raw_value: str, where: str):
        if key not in SCHEMA:
            raise ValidationError(f"{where}: unknown key {key!r}")
        parser, _ = SCHEMA[key]
        try:
            cfg[key] = parser(raw_value)
        except (ValueError, TypeError) as exc:
            raise ValidationError(f"{where}: bad value for {key}: {exc}") from exc

    if file_text is not None:
        for key, value in parse_config_text(file_text, source).items():
            apply(key, value, source)
    for pair in overrides or []:
        if "=" not in pair:
            raise ValidationError(f"--set needs key=value, got {pair!r}")
        key, value = (part.strip() for part in pair.split("=", 1))
        apply(key, value, f"--set {pair}")
    return cfg


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render(cfg: dict) -> str:
    """Text form of the effective config; parsing it back round-trips."""
    lines = [f"{key} = {_format_value(cfg[key])}" for key in sorted(cfg)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# dataclass builders
# ---------------------------------------------------------------------------

def _build(cls, section: str, cfg: dict, **extra):
    """`cls` from its `section.*` keys in `cfg`, plus fields that are not keys."""
    keys = {f.name: f"{section}.{f.name}" for f in fields(cls)}
    return cls(**{name: cfg[key] for name, key in keys.items() if key in SCHEMA}, **extra)


def model_config(cfg: dict) -> ModelConfig:
    return _build(ModelConfig, "model", cfg)


def loss_config(cfg: dict) -> LossConfig:
    return _build(LossConfig, "loss", cfg)


def sampler_config(cfg: dict) -> SamplerConfig:
    return _build(SamplerConfig, "sampler", cfg, patch_size=cfg["model.patch_size"])


def phantom_spec(cfg: dict) -> PhantomSpec:
    return _build(PhantomSpec, "phantom", cfg)


def train_config(cfg: dict) -> TrainConfig:
    return _build(TrainConfig, "train", cfg, loss=loss_config(cfg), sampler=sampler_config(cfg))


def compare_config(cfg: dict) -> CompareConfig:
    return _build(CompareConfig, "compare", cfg)
