"""Run configuration, presets, and config-file round-tripping.

Field map to the published hyperparameter symbols: batch_size=bs,
learning_rate=lr, dropout_rate=dr, epochs=te, embed_dim=d', propagation_hops=L,
attention_dim=d^att, embedding_encoder_dim=d^emb, dsc_heads=M, dsc_clusters=C,
regularizer_weight=alpha.

Note on the d1/d2 task-1 presets: the published table prints the d^att/d^emb
columns in the swapped order relative to the accompanying text; the presets
follow the text (attention_dim=200, embedding_encoder_dim=1500).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

from .errors import ParameterError


@dataclass
class RunConfig:
    # data / orchestration
    drug_table: str = ""
    ddi_file: str = ""
    task: int = 1
    n_folds: int = 5
    folds: tuple = ()            # empty = all folds
    seed: int = 0
    preset: str = ""

    # published hyperparameters
    batch_size: int = 256
    learning_rate: float = 1e-3
    dropout_rate: float = 0.1
    epochs: int = 100
    embed_dim: int = 32          # d'
    propagation_hops: int = 1    # L
    attention_dim: int = 32      # d^att
    embedding_encoder_dim: int = 32  # d^emb
    dsc_heads: int = 2           # M
    dsc_clusters: int = 4        # C
    regularizer_weight: float = 0.2  # alpha

    # structural knobs
    cnn_channels: tuple = (32, 64, 96)
    cnn_kernels: tuple = (4, 6, 8)
    token_count: int = 4
    token_dim: int = 64
    attn_heads: int = 4
    dsc_proj_dim: int = 0        # 0 = attention_dim
    decoder_hidden: int = 256

    # optimizer (Adam's betas and eps are numkit.optim constants)
    rectified: bool = False

    # augmentation / protocol
    mixup: bool = False
    macro_auc: bool = False

    def __post_init__(self):
        self.folds = tuple(self.folds)
        if len(set(self.folds)) != len(self.folds):
            raise ParameterError(f"folds must not repeat an index, got {self.folds!r}")
        self.cnn_channels = tuple(self.cnn_channels)
        self.cnn_kernels = tuple(self.cnn_kernels)
        if self.batch_size < 2:
            raise ParameterError("batch_size must be >= 2")
        for name in _COUNT_FIELDS:
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if self.token_dim % self.attn_heads:
            raise ParameterError(f"attn_heads ({self.attn_heads}) must divide "
                                 f"token_dim ({self.token_dim})")
        for name in ("propagation_hops", "dsc_proj_dim"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ParameterError(f"learning_rate must be finite and > 0, "
                                 f"got {self.learning_rate!r}")
        if not (math.isfinite(self.regularizer_weight) and self.regularizer_weight >= 0):
            raise ParameterError(f"regularizer_weight must be finite and >= 0, "
                                 f"got {self.regularizer_weight!r}")
        if not 0.0 <= self.dropout_rate < 1.0:     # also rejects nan
            raise ParameterError(f"dropout_rate must be in [0, 1), "
                                 f"got {self.dropout_rate!r}")
        if not self.cnn_channels or len(self.cnn_channels) != len(self.cnn_kernels):
            raise ParameterError("cnn_channels and cnn_kernels must pair up, "
                                 "one entry per stage and at least one stage")
        for name in ("cnn_channels", "cnn_kernels"):
            if min(getattr(self, name)) < 1:
                raise ParameterError(f"every {name} entry must be >= 1, "
                                     f"got {getattr(self, name)!r}")

    @property
    def effective_dsc_proj_dim(self) -> int:
        return self.dsc_proj_dim or self.attention_dim

    def as_dict(self) -> dict:
        out = dataclasses.asdict(self)
        for key in ("folds", "cnn_channels", "cnn_kernels"):
            out[key] = list(out[key])
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        data = dict(data)
        for key, value in _RETIRED.items():
            stored = data.pop(key, value)
            if not (_fits(stored, value) and stored == value):
                raise ParameterError(f"config key {key!r} is retired; a stored config "
                                     f"may only hold {value!r}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        for f in dataclasses.fields(cls):
            if f.name in data and not _fits(data[f.name], f.default):
                raise ParameterError(f"config key {f.name!r} must be of type "
                                     f"{type(f.default).__name__}, got {data[f.name]!r}")
        return cls(**data)

    def replace(self, **kwargs) -> "RunConfig":
        return dataclasses.replace(self, **kwargs)


# Retired keys and the one value a stored config may hold for each (of its
# type: 1 passes for 1.0, true does not pass for 1): the behaviour that value
# chose is now the only one. Configs and checkpoints written before the keys
# were removed still carry them.
_RETIRED = {"ffn_enabled": True, "positional_tokens": False, "rgcn_depth": 1,
            "adam_beta1": 0.9, "adam_beta2": 0.999, "adam_eps": 1e-8,
            "mixup_alpha": 1.0}

# dimension and count fields, each at least 1 (batch_size has its own floor)
_COUNT_FIELDS = ("epochs", "embed_dim", "attention_dim", "embedding_encoder_dim",
                 "dsc_heads", "dsc_clusters", "token_count", "token_dim",
                 "attn_heads", "decoder_hidden")


def _fits(value, default) -> bool:
    """Whether a config value has its field's type (ints pass as floats)."""
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(_fits(v, 0) for v in value)
    kinds = (int, float) if isinstance(default, float) else type(default)
    return isinstance(value, kinds) and isinstance(value, bool) == isinstance(default, bool)


# Published best-accuracy rows, keyed as <dataset>-<task>.
PRESETS: dict[str, dict] = {
    "d1-task1": dict(task=1, batch_size=512, learning_rate=2e-5, dropout_rate=0.3,
                     epochs=120, embed_dim=500, propagation_hops=0,
                     attention_dim=200, embedding_encoder_dim=1500,
                     dsc_heads=5, dsc_clusters=200, regularizer_weight=0.2),
    "d1-task2": dict(task=2, batch_size=1024, learning_rate=5e-6, dropout_rate=0.2,
                     epochs=120, embed_dim=500, propagation_hops=3,
                     attention_dim=800, embedding_encoder_dim=800,
                     dsc_heads=5, dsc_clusters=400, regularizer_weight=0.5),
    "d1-task3": dict(task=3, batch_size=1024, learning_rate=5e-6, dropout_rate=0.3,
                     epochs=120, embed_dim=500, propagation_hops=3,
                     attention_dim=800, embedding_encoder_dim=800,
                     dsc_heads=5, dsc_clusters=400, regularizer_weight=0.5),
    "d2-task1": dict(task=1, batch_size=1024, learning_rate=2e-5, dropout_rate=0.3,
                     epochs=150, embed_dim=500, propagation_hops=0,
                     attention_dim=200, embedding_encoder_dim=1500,
                     dsc_heads=5, dsc_clusters=400, regularizer_weight=0.2),
    "d2-task2": dict(task=2, batch_size=1024, learning_rate=5e-6, dropout_rate=0.4,
                     epochs=150, embed_dim=500, propagation_hops=3,
                     attention_dim=800, embedding_encoder_dim=800,
                     dsc_heads=5, dsc_clusters=400, regularizer_weight=0.5),
    "d2-task3": dict(task=3, batch_size=1024, learning_rate=5e-6, dropout_rate=0.4,
                     epochs=150, embed_dim=500, propagation_hops=3,
                     attention_dim=800, embedding_encoder_dim=800,
                     dsc_heads=5, dsc_clusters=400, regularizer_weight=0.5),
    # desk-scale presets: same structure, scaled-down dims
    "micro": dict(batch_size=8, learning_rate=1e-3, dropout_rate=0.0, epochs=30,
                  embed_dim=8, propagation_hops=1, attention_dim=8,
                  embedding_encoder_dim=8, dsc_heads=2, dsc_clusters=4,
                  regularizer_weight=0.2, cnn_channels=(4, 5, 6),
                  cnn_kernels=(3, 5, 7), token_count=2, token_dim=8,
                  attn_heads=2, dsc_proj_dim=4, decoder_hidden=16),
    "small": dict(batch_size=128, learning_rate=1.5e-3, dropout_rate=0.1, epochs=80,
                  embed_dim=32, propagation_hops=1, attention_dim=32,
                  embedding_encoder_dim=32, dsc_heads=2, dsc_clusters=4,
                  regularizer_weight=0.2, cnn_channels=(8, 16, 24),
                  cnn_kernels=(4, 6, 8), token_count=4, token_dim=16,
                  attn_heads=4, dsc_proj_dim=16, decoder_hidden=64),
}


def apply_preset(name: str, base: RunConfig | None = None) -> RunConfig:
    if name not in PRESETS:
        raise ParameterError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    base = base or RunConfig()
    return base.replace(preset=name, **PRESETS[name])


def save_config(path, config: RunConfig) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config.as_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_config(path) -> RunConfig:
    """Read a config file; any defect in it is a ParameterError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ParameterError("a config file must hold one JSON object")
        return RunConfig.from_dict(data)
    except OSError as err:
        raise ParameterError(f"{path}: {err.strerror or err}") from None
    except (UnicodeDecodeError, json.JSONDecodeError, ParameterError) as err:
        raise ParameterError(f"{path}: {err}") from None
