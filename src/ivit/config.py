"""Configuration types and the flat key=value run-config file.

Every key has a documented default; unknown keys are rejected loudly so a
misspelled hyperparameter can never silently fall back to a default.
`n_classes` and `prompt_dim` are not run-config keys: they are derived from
the dataset and the prompt bank when a model is built.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .backbone import BackboneConfig
from .errors import ConfigError

REGIMES = ("full", "prompt_tuning")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters plus the similarity-loss/selection knobs."""

    image_size: int = 32
    patch_size: int = 8
    channels: int = 3
    dim: int = 64
    depth: int = 2
    heads: int = 4
    mlp_ratio: float = 4.0
    attn_dropout: float = 0.0
    prompt_dim: int = 64
    n_classes: int = 8
    select_k: int = 0            # 0 disables prompt selection
    loss_pred_weight: float = 1.0
    loss_score_weight: float = 1.0
    select_in_training: bool = False

    def __post_init__(self):
        for name, least in (("image_size", 1), ("patch_size", 1), ("channels", 1), ("dim", 1),
                            ("depth", 0), ("heads", 1), ("prompt_dim", 1), ("n_classes", 1),
                            ("select_k", 0)):
            value = getattr(self, name)
            if value < least:
                raise ConfigError(f"{name} must be >= {least}, got {value}")
        if not (math.isfinite(self.mlp_ratio) and int(self.dim * self.mlp_ratio) >= 1):
            raise ConfigError(f"mlp_ratio must be finite with int(dim * mlp_ratio) >= 1, got {self.mlp_ratio}")
        for name in ("loss_pred_weight", "loss_score_weight"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        if not 0 <= self.attn_dropout < 1:
            raise ConfigError(f"attn_dropout must lie in [0, 1), got {self.attn_dropout}")

    def backbone(self) -> BackboneConfig:
        return BackboneConfig(
            image_size=self.image_size,
            patch_size=self.patch_size,
            channels=self.channels,
            dim=self.dim,
            depth=self.depth,
            heads=self.heads,
            mlp_ratio=self.mlp_ratio,
            attn_dropout=self.attn_dropout,
        )


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32         # desk-scale default; 256 at full scale
    peak_lr: float = 1e-4
    floor_lr: float = 1e-5
    warmup_epochs: int = 5
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    mixup_alpha: float = 0.2
    regime: str = "full"
    seed: int = 0
    grad_clip: float = 0.0       # 0 disables global-norm clipping

    def __post_init__(self):
        for name, least in (("epochs", 1), ("batch_size", 1), ("warmup_epochs", 0)):
            value = getattr(self, name)
            if value < least:
                raise ConfigError(f"{name} must be >= {least}, got {value}")
        if not (math.isfinite(self.peak_lr) and self.peak_lr > 0):
            raise ConfigError(f"peak_lr must be finite and > 0, got {self.peak_lr}")
        for name in ("floor_lr", "mixup_alpha", "grad_clip"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        for name in ("adam_beta1", "adam_beta2"):
            value = getattr(self, name)
            if not 0 < value < 1:
                raise ConfigError(f"{name} must lie in (0, 1), got {value}")
        if not (math.isfinite(self.adam_eps) and self.adam_eps > 0):
            raise ConfigError(f"adam_eps must be finite and > 0, got {self.adam_eps}")
        if self.floor_lr > self.peak_lr:
            raise ConfigError(f"floor_lr {self.floor_lr} exceeds peak_lr {self.peak_lr}")
        if self.warmup_epochs > self.epochs:
            raise ConfigError(f"warmup_epochs {self.warmup_epochs} exceeds epochs {self.epochs}")
        if self.regime not in REGIMES:
            raise ConfigError(f"unknown regime {self.regime!r}, expected one of {REGIMES}")


_MODEL_KEYS = {f.name: f.type for f in dataclasses.fields(ModelConfig) if f.name not in ("n_classes", "prompt_dim")}
_TRAIN_KEYS = {f.name: f.type for f in dataclasses.fields(TrainConfig)}


def run_config_defaults() -> dict[str, object]:
    """The full documented key set with defaults."""
    out: dict[str, object] = {}
    for f in dataclasses.fields(ModelConfig):
        if f.name not in ("n_classes", "prompt_dim"):
            out[f.name] = f.default
    for f in dataclasses.fields(TrainConfig):
        out[f.name] = f.default
    return out


def _coerce(key: str, raw: str, default) -> object:
    try:
        if isinstance(default, bool):
            low = raw.strip().lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        return raw
    except ValueError as e:
        raise ConfigError(f"bad value for {key}: {raw!r}") from e


def parse_run_config(path) -> dict[str, object]:
    """Read a key=value file; blank lines and # comments are skipped."""
    values = run_config_defaults()
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, raw = line.partition("=")
            key = key.strip()
            if key not in values:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _coerce(key, raw.strip(), values[key])
    return values


def split_run_config(values: dict[str, object], n_classes: int, prompt_dim: int) -> tuple[ModelConfig, TrainConfig]:
    model = ModelConfig(
        n_classes=n_classes,
        prompt_dim=prompt_dim,
        **{k: values[k] for k in _MODEL_KEYS},
    )
    train = TrainConfig(**{k: values[k] for k in _TRAIN_KEYS})
    return model, train


def dump_model_config(cfg: ModelConfig) -> str:
    """Stable text form used for the checkpoint config echo."""
    items = sorted(dataclasses.asdict(cfg).items())
    return "".join(f"{k}={v!r}\n" for k, v in items)


def parse_model_config(text: str) -> ModelConfig:
    """Inverse of `dump_model_config`: every field must be echoed, and nothing else."""
    fields = {f.name: f for f in dataclasses.fields(ModelConfig)}
    kwargs = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in fields:
            raise ConfigError(f"unknown model-config key {key!r} in checkpoint echo")
        default = fields[key].default
        if isinstance(default, bool):
            if raw.strip() not in ("True", "False"):
                raise ConfigError(f"bad bool {raw.strip()!r} for {key!r} in checkpoint echo")
            kwargs[key] = raw.strip() == "True"
        elif isinstance(default, int):
            kwargs[key] = int(raw)
        elif isinstance(default, float):
            kwargs[key] = float(raw)
        else:
            kwargs[key] = raw.strip()
    missing = sorted(set(fields) - set(kwargs))
    if missing:  # save_checkpoint echoes every field, so a gap means a corrupt echo
        raise ConfigError(f"checkpoint echo is missing keys {missing}")
    return ModelConfig(**kwargs)
