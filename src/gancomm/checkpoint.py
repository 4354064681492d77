"""Checkpoint files: JSON nets that round-trip their parameters exactly.

Nets are trained in and loaded into ``nn.PARAM_DTYPE`` (float32). json
writes floats with repr(), which is exact for binary64 and so for every
float32 value, so a save/load cycle reproduces every parameter bit for bit
and two identical training runs produce byte-identical checkpoint files. A
float64 checkpoint loads rounded to the nearest float32; a value beyond the
float32 range becomes Inf, which loading refuses.
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import gan, nn, transceiver
from .config import ConfigError, TrainConfig, load_config, read_json

CHECKPOINT_FILES = ("transmitter.json", "receiver.json", "generator.json",
                    "discriminator.json")


def net_to_dict(net: nn.DenseNet) -> dict:
    return {
        "layers": [
            {
                "activation": layer.activation,
                "w": layer.w.tolist(),
                "b": layer.b.tolist(),
            }
            for layer in net.layers
        ]
    }


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
    write_json(net_to_dict(net), path)


def load_net(path: str) -> nn.DenseNet:
    """Read a net; malformed content, or a NaN or Inf parameter (the JSON
    of a diverged run that was flushed on abort), is rejected with a
    ConfigError naming the file rather than evaluated."""
    data = read_json(path, "checkpoint file")
    try:
        net = net_from_dict(data)
    except ConfigError as exc:
        raise ConfigError(f"checkpoint file {path}: {exc}") from None
    if not np.isfinite(net.params).all():
        raise ConfigError(f"checkpoint file {path} holds non-finite parameters")
    return net


def write_json(data: dict, path: str) -> None:
    """Write data as compact, key-sorted JSON; a reader never sees a
    partly written file, because it is renamed into place when complete."""
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(data, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")
    os.replace(tmp, path)


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
    for name, net in (
        ("transmitter.json", tx.net),
        ("receiver.json", rx.net),
        ("generator.json", g.net),
        ("discriminator.json", d.net),
    ):
        save_net(net, os.path.join(out_dir, name))


def load_system(
    ckpt_dir: str,
) -> tuple[TrainConfig, transceiver.Transmitter, transceiver.Receiver,
           gan.Generator, gan.Discriminator]:
    """Load config plus the four nets, checking dimensions against the
    config so a checkpoint cannot be silently run with the wrong k/n."""
    cfg = load_config(os.path.join(ckpt_dir, "config.json"))
    nets = {name: load_net(os.path.join(ckpt_dir, name)) for name in CHECKPOINT_FILES}

    model = cfg.make_channel()
    cond_dim = model.cond_dim(cfg.n)
    # the wrapper constructors re-check every dimension against cfg
    tx = transceiver.Transmitter(nets["transmitter.json"], cfg.n)
    if tx.m_count != cfg.M:
        raise ConfigError(
            f"transmitter expects M = {tx.m_count} messages, config says {cfg.M}"
        )
    rx = transceiver.Receiver(nets["receiver.json"], cfg.M, cfg.n, model.n_pilot)
    g_net = nets["generator.json"]
    g = gan.Generator(g_net, cfg.n, g_net.input_dim - cond_dim, cond_dim)
    if g.z_dim != cfg.z_dim:
        raise ConfigError(
            f"generator z_dim {g.z_dim} does not match config z_dim {cfg.z_dim}"
        )
    d = gan.Discriminator(nets["discriminator.json"], cfg.n, cond_dim)
    return cfg, tx, rx, g, d
