"""Run configuration, and the one strict reader of every JSON input.

Defaults follow the reference operating point: {32, 32} transmitter and
receiver hidden layers, {32, 32, 32} discriminator, learning rates 0.001
(transceiver) / 0.0001 (GAN), batch size 320. The generator is narrower
than the reference's {128, 128, 128}: {96, 96, 96} trains links that meet
the same acceptance bounds, and a GAN step costs less.

Configs, sweep specs and checkpoint nets are all read by ``read_json``, and
configs and sweep specs parsed by ``from_dict``: unknown keys are rejected
so a typo cannot silently fall back to a default, and a null key takes the
default. Ranges are checked by the dataclasses, for Python callers too.
"""

from __future__ import annotations

import json
import math
import types
import typing
from dataclasses import MISSING, asdict, dataclass, fields

from .channel import EBN0_DB_LIMIT, Channel, make_channel

CHANNELS = ("awgn", "rayleigh")

# Training Eb/N0 when the config does not name one.
DEFAULT_TRAIN_EBN0_DB = {"awgn": 4.0, "rayleigh": 10.0}

# Keys of removed TrainConfig fields, with the one value every run used.
# Older run directories still load; any other value is refused.
RETIRED_KEYS = {"hidden_activation": "relu", "label_smoothing": 0.0}


class ConfigError(ValueError):
    """A configuration value is missing, unknown, or out of range."""


@dataclass
class TrainConfig:
    k: int = 4
    n: int = 7
    n_pilot: int = 1
    channel: str = "awgn"
    train_ebn0_db: float | None = None  # resolved per channel in __post_init__
    batch_size: int = 320
    lr_transceiver: float = 0.001
    lr_gan: float = 0.0001
    lr_disc: float | None = None  # resolved to 4 * lr_gan in __post_init__
    gan_beta1: float = 0.0
    ema_decay: float = 0.995
    outer_iterations: int = 600
    rx_steps: int = 10
    tx_steps: int = 10
    gan_steps: int = 20
    warmup_gan_steps: int | None = None  # resolved to 10 * gan_steps
    final_rx_steps: int = 2000
    seed: int = 1
    z_dim: int = 16
    tx_hidden: tuple[int, ...] = (32, 32)
    rx_hidden: tuple[int, ...] = (32, 32)
    gen_hidden: tuple[int, ...] = (96, 96, 96)
    disc_hidden: tuple[int, ...] = (32, 32, 32)
    d_updates: int = 2

    def __post_init__(self) -> None:
        for name in ("tx_hidden", "rx_hidden", "gen_hidden", "disc_hidden"):
            setattr(self, name, tuple(int(v) for v in getattr(self, name)))
        if self.channel in CHANNELS and self.train_ebn0_db is None:
            self.train_ebn0_db = DEFAULT_TRAIN_EBN0_DB[self.channel]
        if self.warmup_gan_steps is None:
            self.warmup_gan_steps = 10 * self.gan_steps
        if self.lr_disc is None:
            self.lr_disc = 4.0 * self.lr_gan
        self.validate()

    def validate(self) -> None:
        def require(ok: bool, key: str, why: str) -> None:
            if not ok:
                raise ConfigError(f"{key}: {why}")

        require(self.channel in CHANNELS, "channel",
                f"unknown channel {self.channel!r}; must be one of {CHANNELS}")
        require(self.k >= 1, "k", "must be >= 1")
        require(self.n >= 1, "n", "must be >= 1")
        require(self.n_pilot >= 1, "n_pilot", "must be >= 1")
        require(self.batch_size >= 1, "batch_size", "must be >= 1")
        for key in ("lr_transceiver", "lr_gan", "lr_disc"):
            require(0 < getattr(self, key) < math.inf, key, "must be finite and > 0")
        require(0.0 <= self.gan_beta1 < 1.0, "gan_beta1", "must lie in [0, 1)")
        require(0.0 <= self.ema_decay < 1.0, "ema_decay", "must lie in [0, 1)")
        require(self.outer_iterations >= 1, "outer_iterations", "must be >= 1")
        for key in ("rx_steps", "tx_steps", "gan_steps", "warmup_gan_steps",
                    "final_rx_steps"):
            require(getattr(self, key) >= 0, key, "must be >= 0")
        require(self.seed >= 0, "seed", "must be a non-negative integer")
        require(self.z_dim >= 1, "z_dim", "must be >= 1")
        for key in ("tx_hidden", "rx_hidden", "gen_hidden", "disc_hidden"):
            require(
                len(getattr(self, key)) >= 1 and all(w >= 1 for w in getattr(self, key)),
                key,
                "must list positive layer widths",
            )
        require(self.d_updates >= 1, "d_updates", "must be >= 1")
        require(
            abs(float(self.train_ebn0_db)) <= EBN0_DB_LIMIT,
            "train_ebn0_db",
            f"must lie within +-{EBN0_DB_LIMIT:g} dB",
        )

    @property
    def M(self) -> int:
        return 2**self.k

    @property
    def is_fading(self) -> bool:
        return self.channel == "rayleigh"

    def make_channel(self) -> Channel:
        return make_channel(self.channel, self.n_pilot)

    def net_dims(self) -> dict[str, tuple[int, ...]]:
        """Each net's layer widths, input first, by role, in the order of
        ``checkpoint.CHECKPOINT_FILES``. The receiver sees the block plus
        the received pilots (none on AWGN); the generator and the
        discriminator are conditioned on the same."""
        block = 2 * self.n
        cond = self.make_channel().cond_dim(self.n)
        return {
            "tx": (self.M, *self.tx_hidden, block),
            "rx": (cond, *self.rx_hidden, self.M),
            "gen": (self.z_dim + cond, *self.gen_hidden, block),
            "disc": (block + cond, *self.disc_hidden, 1),
        }

    def to_dict(self) -> dict:
        d = asdict(self)
        for name in ("tx_hidden", "rx_hidden", "gen_hidden", "disc_hidden"):
            d[name] = list(d[name])
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        """Parse a config object; a retired key loads only at its one value."""
        if isinstance(data, dict):
            data = dict(data)
            for key, only in RETIRED_KEYS.items():
                value = data.pop(key, None)
                if value is not None and (isinstance(value, bool) or value != only):
                    raise ConfigError(
                        f"{key}: retired; only {only!r} still loads, got {value!r}")
        return from_dict(cls, data)


# What parsing leaves where a NaN, Infinity or -Infinity literal stood, for
# read_json to find the key it sits under.
_LITERAL = object()


def _holds_literal(value) -> bool:
    return value is _LITERAL or (
        isinstance(value, list) and any(map(_holds_literal, value)))


def read_json(path: str, what: str):
    """The parsed JSON file at path; a file that cannot be read or parsed
    raises a ConfigError naming it as ``what`` and its path. So does a NaN,
    Infinity or -Infinity literal, which standard JSON does not have, as
    "<what> <path>: <key>: ..." with the key it sits under."""
    literals = []

    def constant(name: str):
        literals.append(name)
        return _LITERAL

    def check(items: list) -> dict:
        # the first object to close after a literal, or one around it, holds it
        for key, value in items if literals else ():
            if _holds_literal(value):
                raise ConfigError(
                    f"{what} {path}: {key}: {literals[0]} is not standard JSON")
        return dict(items)

    try:
        with open(path) as f:
            data = json.load(f, parse_constant=constant, object_pairs_hook=check)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed {what} {path}: {exc}") from None
    if literals:
        raise ConfigError(f"{what} {path}: {literals[0]} is not standard JSON")
    return data


def from_dict(cls, data):
    """Build the config dataclass cls from a parsed JSON object.

    Unknown keys are rejected; a null or absent key takes the field's
    default, and a field without one raises "<key>: required". Each value
    must match the field's annotation; cls checks the ranges."""
    if not isinstance(data, dict):
        raise ConfigError(
            f"{cls.__name__} must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        if data.get(f.name) is None:
            if f.default is MISSING:
                raise ConfigError(f"{f.name}: required")
            continue
        try:
            kwargs[f.name] = _coerce(hints[f.name], data[f.name])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{f.name}: {exc}") from None
    return cls(**kwargs)


def _coerce(hint, value):
    """Check a JSON value against a field's annotation. Optional fields
    check as their base type (from_dict skips None)."""
    if isinstance(hint, types.UnionType):
        hint = next(t for t in typing.get_args(hint) if t is not type(None))
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"expected an integer, got {value!r}")
        return value
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"expected a number, got {value!r}")
        return float(value)
    if hint is str:
        if not isinstance(value, str):
            raise ValueError(f"expected a string, got {value!r}")
        return value
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"expected a list, got {value!r}")
        return tuple(_coerce(typing.get_args(hint)[0], v) for v in value)
    raise ValueError(f"unhandled type {hint!r}")


def load_config(path: str) -> TrainConfig:
    """Parse a JSON config file; unspecified fields take the defaults. A
    bad value raises a ConfigError that names the file."""
    data = read_json(path, "config")
    try:
        return TrainConfig.from_dict(data)
    except ConfigError as exc:
        raise ConfigError(f"config {path}: {exc}") from None
