"""Checkpoint files: JSON nets that round-trip their parameters exactly.

Nets are trained in and loaded into ``nn.PARAM_DTYPE`` (float32). json
writes floats with repr(), which is exact for binary64 and so for every
float32 value, so a save/load cycle reproduces every parameter bit for bit
and two identical training runs produce byte-identical checkpoint files. A
float64 checkpoint loads rounded to the nearest float32; a value beyond the
float32 range becomes Inf, which loading refuses.
"""

from __future__ import annotations

import contextlib
import json
import os
from collections.abc import Iterator
from typing import TextIO

import numpy as np

from . import gan, nn, transceiver
from .config import ConfigError, TrainConfig, load_config, read_json

CHECKPOINT_FILES = ("transmitter.json", "receiver.json", "generator.json",
                    "discriminator.json")

# how write_json's json.dumps writes a list of floats or a string
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


def net_from_dict(data: dict) -> nn.DenseNet:
    """The net a parsed checkpoint describes; any malformed content (a
    missing key, a ragged or mismatched array, an unknown activation, no
    layers) raises a ConfigError."""
    try:
        # out-of-range values become Inf, which load_net refuses
        with np.errstate(over="ignore"):
            layers = [
                nn.Layer(
                    w=np.array(entry["w"], dtype=nn.PARAM_DTYPE),
                    b=np.array(entry["b"], dtype=nn.PARAM_DTYPE),
                    activation=entry["activation"],
                )
                for entry in data["layers"]
            ]
        return nn.DenseNet(layers)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed network checkpoint: {exc}") from None


def save_net(net: nn.DenseNet, path: str) -> None:
    """Write a net as the compact, key-sorted JSON ``{"layers":
    [{"activation", "b", "w"}, ...]}``, w as a list of rows: the bytes
    write_json would write for it, streamed one weight row at a time. A NaN
    or Inf parameter raises a ValueError naming the file before anything is
    written."""
    if not np.isfinite(net.params).all():
        raise ValueError(f"cannot write {path}: the net holds non-finite parameters")
    with atomic_open(path) as f:
        f.writelines(_net_chunks(net))


def _net_chunks(net: nn.DenseNet) -> Iterator[str]:
    """The text of a net's file, in pieces of at most one weight row."""
    yield '{"layers":['
    for i, layer in enumerate(net.layers):
        yield (("," if i else "") + '{"activation":' + _ENCODER.encode(layer.activation)
               + ',"b":' + _ENCODER.encode(layer.b.tolist()) + ',"w":[')
        for j, row in enumerate(layer.w):
            yield ("," if j else "") + _ENCODER.encode(row.tolist())
        yield "]}"
    yield "]}\n"


def load_net(path: str) -> nn.DenseNet:
    """Read a net; malformed content, or a NaN or Inf parameter (the JSON
    of a diverged run that was flushed on abort), is rejected with a
    ConfigError naming the file rather than evaluated."""
    net = read_json(path, "checkpoint file", net_from_dict)
    if not np.isfinite(net.params).all():
        raise ConfigError(f"checkpoint file {path} holds non-finite parameters")
    return net


def write_json(data: dict, path: str) -> None:
    """Write data as compact, key-sorted, standard JSON. A value JSON cannot
    hold (NaN, Inf) raises a ValueError naming the file before anything is
    written."""
    try:
        text = json.dumps(data, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from None
    with atomic_open(path) as f:
        f.write(text + "\n")


@contextlib.contextmanager
def atomic_open(path: str) -> Iterator[TextIO]:
    """The text file every gancomm output is written through: the block
    writes path + ".tmp", which is renamed into place when the block ends,
    so a reader never sees a partly written file. On any error the
    temporary file is removed and a file already at path keeps its bytes.
    Line endings are written as given (newline="")."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", newline="") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def wrap_nets(
    cfg: TrainConfig, nets: list[nn.DenseNet]
) -> tuple[transceiver.Transmitter, transceiver.Receiver, gan.Generator,
           gan.Discriminator]:
    """The four wrappers around nets given in ``CHECKPOINT_FILES`` order;
    each reads its sizes off its net, and the generator its z_dim off cfg."""
    tx_net, rx_net, g_net, d_net = nets
    return (transceiver.Transmitter(tx_net), transceiver.Receiver(rx_net),
            gan.Generator(g_net, cfg.z_dim), gan.Discriminator(d_net))


def save_system(
    out_dir: str,
    cfg: TrainConfig,
    tx: transceiver.Transmitter,
    rx: transceiver.Receiver,
    g: gan.Generator,
    d: gan.Discriminator,
) -> None:
    """Write the four nets plus the config into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    write_json(cfg.to_dict(), os.path.join(out_dir, "config.json"))
    for name, wrapper in zip(CHECKPOINT_FILES, (tx, rx, g, d)):
        save_net(wrapper.net, os.path.join(out_dir, name))


def load_system(
    ckpt_dir: str,
) -> tuple[TrainConfig, transceiver.Transmitter, transceiver.Receiver,
           gan.Generator, gan.Discriminator]:
    """Load config plus the four nets; a net whose layer widths differ from
    the config's ``net_dims`` is refused, naming its file."""
    cfg = load_config(os.path.join(ckpt_dir, "config.json"))
    nets = []
    for name, dims in zip(CHECKPOINT_FILES, cfg.net_dims().values()):
        path = os.path.join(ckpt_dir, name)
        net = load_net(path)
        if net.dims != dims:
            raise ConfigError(
                f"checkpoint file {path} has layer widths {list(net.dims)}, "
                f"but its config.json builds {list(dims)}"
            )
        nets.append(net)
    return (cfg, *wrap_nets(cfg, nets))
