"""Run configuration: defaults, validation, INI round-trip, stable hashing.

``DistillConfig`` declares every setting once: the INI keys and their
kinds and the render order come from its fields, and the hash is that of
the rendered INI.  Every key has a default; only data paths (which live on
the command line, not in the file) are mandatory.  A config checks itself
when it is built, so no invalid one exists; the ``ConfigError`` names the
first violated invariant, and the CLI surfaces it verbatim.
"""

from __future__ import annotations

import configparser
import hashlib
import io as _stdio
import math
from dataclasses import dataclass, fields, replace

from .errors import ConfigError
from .models import ACTIVATIONS, MlpSpec

LOSS_VARIANTS = ("coss", "co_only", "ss_only", "bn")


@dataclass(frozen=True)
class DistillConfig:
    lam: float = 1.0            # weight on the space-similarity term
    k: int = 4                  # neighbours appended per anchor
    pool: int = 16              # neighbour candidates stored per sample
    batch_size: int = 64
    epochs: int = 50
    lr: float = 0.5
    momentum: float = 0.9
    weight_decay: float = 0.0
    aug_sigma: float = 0.05     # additive Gaussian noise scale
    seed: int = 0
    loss_variant: str = "coss"
    bn_eps: float = 1e-5
    student_hidden: tuple[int, ...] = (48,)
    student_dim: int = 8
    student_activation: str = "relu"

    def __post_init__(self):
        # NaN passes every comparison below, and training checks no value again
        for f in fields(self):
            if type(f.default) is float and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{_KEYS[f.name][1]} must be finite")
        if self.lam < 0:
            raise ConfigError("lambda ≥ 0")
        if self.k < 0:
            raise ConfigError("k ≥ 0")
        if self.pool < 1:
            raise ConfigError("pool ≥ 1")
        if self.k > self.pool:
            raise ConfigError("k ≤ pool")
        if self.batch_size < 1:
            raise ConfigError("batch_size ≥ 1")
        if self.epochs < 1:
            raise ConfigError("epochs ≥ 1")
        if self.lr < 0:
            raise ConfigError("lr ≥ 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum ∈ [0, 1)")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay ≥ 0")
        if self.aug_sigma < 0:
            raise ConfigError("aug_sigma ≥ 0")
        if self.seed < 0:
            raise ConfigError("seed ≥ 0")
        if self.loss_variant not in LOSS_VARIANTS:
            raise ConfigError("loss_variant ∈ {coss, co_only, ss_only, bn}")
        if self.bn_eps <= 0:
            raise ConfigError("bn_eps > 0")
        if self.loss_variant == "bn" and self.batch_size * (1 + self.k) < 2:
            raise ConfigError("batch_size × (1 + k) ≥ 2 for bn")
        if not self.student_hidden or any(h < 1 for h in self.student_hidden):
            raise ConfigError("student hidden dims ≥ 1")
        if self.student_dim < 1:
            raise ConfigError("student output_dim ≥ 1")
        if self.student_activation not in ACTIVATIONS:
            raise ConfigError(f"student activation ∈ {{{', '.join(ACTIVATIONS)}}}")

    def student_spec(self, input_dim: int) -> MlpSpec:
        dims = (input_dim, *self.student_hidden, self.student_dim)
        return MlpSpec(dims, hidden_activation=self.student_activation)

    def replace(self, **kwargs) -> "DistillConfig":
        return replace(self, **kwargs)


# Each field's INI (section, key): [distill] and the field's name, except the
# four renamed here.  The type of a field's default is the kind it parses as.
_KEYS = {f.name: ("distill", f.name) for f in fields(DistillConfig)} | {
    "lam": ("distill", "lambda"),
    "student_hidden": ("student", "hidden_dims"),
    "student_dim": ("student", "output_dim"),
    "student_activation": ("student", "activation"),
}
_FIELD_AT = {_KEYS[f.name]: f for f in fields(DistillConfig)}
_SECTIONS = tuple(dict.fromkeys(section for section, _ in _KEYS.values()))


def _parse_value(f, raw: str):
    raw = raw.strip()
    kind = type(f.default)
    try:
        if kind is tuple:
            return tuple(int(part) for part in raw.split(",") if part.strip())
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {f.name}: {raw!r}") from exc


def parse_config_text(text: str) -> DistillConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    overrides = {}
    for section in _SECTIONS:
        if not parser.has_section(section):
            continue
        for key, raw in parser.items(section):
            f = _FIELD_AT.get((section, key))
            if f is None:
                raise ConfigError(f"unknown key [{section}] {key}")
            overrides[f.name] = _parse_value(f, raw)
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
    return DistillConfig(**overrides)


def load_config(path) -> DistillConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def render_config(cfg: DistillConfig) -> str:
    """Canonical INI text; identical configs render byte-identically."""
    parser = configparser.ConfigParser(interpolation=None)
    for f in fields(cfg):
        section, key = _KEYS[f.name]
        if not parser.has_section(section):
            parser.add_section(section)
        value = getattr(cfg, f.name)
        if type(f.default) is tuple:
            value = ",".join(str(h) for h in value)
        parser.set(section, key, value if isinstance(value, str) else repr(value))
    buf = _stdio.StringIO()
    parser.write(buf)
    return buf.getvalue()


def config_hash(cfg: DistillConfig) -> str:
    """SHA-256 of ``render_config(cfg)``, the bytes ``coss distill`` saves as config.ini."""
    return hashlib.sha256(render_config(cfg).encode("utf-8")).hexdigest()
