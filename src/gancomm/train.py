"""Alternating training of transmitter, receiver, and channel GAN.

``TrainConfig.schedule()`` lists the run's phases; ``Trainer.run`` walks
it. In each outer iteration the GAN fits the channel conditioned on the
current transmitter's blocks, the receiver trains on real channel output,
and the transmitter trains end-to-end with the frozen generator standing
in for the channel, which offers no gradient. The GAN and rx phases gather
blocks from one codebook per transmitter state; the receiver loss is
cross-entropy against message indices, and the GAN uses the non-saturating
logistic losses.

The GAN phase jitters the blocks it sends: each real dimension gets
``COND_JITTER`` times a standard normal draw, the jittered block goes
through the real channel, and the generator and discriminator are
conditioned on it. So the GAN fits p(y | x) around the codewords, not only
at them, and the transmitter phase reads dG/dx, which depends on that
neighbourhood (instance noise, Sonderby et al. arXiv:1610.04490; a
perturbed transmitter, Aoudia and Hoydis arXiv:1804.02276). The receiver
and transmitter phases send clean blocks.
"""

from __future__ import annotations

import collections
import csv
import datetime
import os
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import __version__, channel, checkpoint, gan, nn, transceiver
from .config import ConfigError, TrainConfig
from .rng import substream

# Standard deviation of the GAN phase's jitter per real dimension of a block
# of unit average power per complex use (see the module docstring).
COND_JITTER = 0.5


@dataclass
class StepRecord:
    step: int
    iteration: int
    phase: str  # "gan", "rx", or "tx"
    loss: float
    g_loss: float | None = None
    d_accuracy: float | None = None


class TrainLog:
    """Ordered per-step records, one row per optimizer step."""

    def __init__(self) -> None:
        self.records: list[StepRecord] = []

    def append(self, record: StepRecord) -> None:
        self.records.append(record)

    def to_csv(self, path: str) -> None:
        with checkpoint.atomic_open(path) as f:
            writer = csv.writer(f)
            writer.writerow(["step", "iteration", "phase", "loss", "g_loss",
                             "d_accuracy"])
            for r in self.records:
                writer.writerow([
                    r.step,
                    r.iteration,
                    r.phase,
                    repr(r.loss),
                    "" if r.g_loss is None else repr(r.g_loss),
                    "" if r.d_accuracy is None else repr(r.d_accuracy),
                ])


def _tape(tapes: Mapping[str, nn.Tape] | None, key: str) -> nn.Tape | None:
    """The tape kept under this key, or None for a new one."""
    return None if tapes is None else tapes[key]


def receiver_forward_backward(
    rx: transceiver.Receiver,
    messages: np.ndarray,
    y: np.ndarray,
    y_pilot: np.ndarray | None = None,
    tape: nn.Tape | None = None,
) -> tuple[float, nn.Gradients]:
    """Cross-entropy on real channel output and its receiver gradients."""
    logits, tape = rx.forward_logits(y, y_pilot, tape)
    loss, grad = nn.softmax_cross_entropy(logits, messages)
    grads, _ = nn.backward(rx.net, tape, grad, inputs=False)
    return loss, grads


def transmitter_forward_backward(
    tx: transceiver.Transmitter,
    rx: transceiver.Receiver,
    g: gan.Generator,
    messages: np.ndarray,
    z: np.ndarray,
    y_pilot: np.ndarray | None = None,
    tapes: Mapping[str, nn.Tape] | None = None,
) -> tuple[float, nn.Gradients]:
    """End-to-end loss with the generator in place of the channel, and its
    transmitter gradients.

    The chain is messages -> transmitter -> x -> generator(z | x, pilots) ->
    fake y -> receiver -> cross-entropy. Receiver and generator parameters
    are read only; their input gradients carry the signal back to the
    transmitter. Pilots are a fixed symbol, so the gradient w.r.t. the
    pilot part of the conditioning is dropped. ``tapes``, if given, holds a
    reusable tape for each net by name (tx, gen, rx).
    """
    x, tx_tape = tx.encode(messages, _tape(tapes, "tx"))
    m = gan.conditioning(x, y_pilot)
    fake_y, g_tape = gan.generate(g, z, m, _tape(tapes, "gen"))
    logits, rx_tape = rx.forward_logits(fake_y, y_pilot, _tape(tapes, "rx"))
    loss, grad_logits = nn.softmax_cross_entropy(logits, messages)
    _, rx_input_grad = nn.backward(rx.net, rx_tape, grad_logits, params=False)
    _, g_input_grad = nn.backward(
        g.net, g_tape, rx_input_grad[:, : x.shape[1]], params=False
    )
    x_grad = g_input_grad[:, g.z_dim : g.z_dim + x.shape[1]]
    tx_grads = tx.backward(tx_tape, x_grad)
    return loss, tx_grads


def gan_update(
    g: gan.Generator,
    d: gan.Discriminator,
    g_opt: nn.AdamState,
    d_opt: nn.AdamState,
    real_y: np.ndarray,
    m: np.ndarray,
    rng_z: np.random.Generator,
    d_updates: int,
    tapes: Mapping[str, nn.Tape] | None = None,
) -> tuple[float, float, float]:
    """One adversarial step on one generator pass: z is drawn once, and
    the pass's fakes and the real batch, filled once into one
    ``gan.real_fake_rows`` array, are scored by each of the d_updates
    discriminator updates; then one generator update on that same pass,
    which the generator has not moved since, scoring the array's fake half.
    Returns (d loss, g loss, d accuracy), the discriminator's from its last
    update. ``tapes``, if given, holds reusable tapes by net: gen, disc.pair
    for the discriminator's 2B-row [real; fake] pass, and disc for its
    B-row pass over the fake half in the generator update."""
    z = gan.sample_z(rng_z, real_y.shape[0], g.z_dim)
    fake_y, g_tape = gan.generate(g, z, m, _tape(tapes, "gen"))
    rows = gan.real_fake_rows(d, real_y, fake_y, m)
    for _ in range(d_updates):
        d_loss_val, d_grads, d_acc = gan.d_loss(d, rows, _tape(tapes, "disc.pair"))
        nn.adam_step(d.net, d_grads, d_opt)
    g_loss_val, g_grads = gan.g_loss(g, d, rows, g_tape, _tape(tapes, "disc"))
    nn.adam_step(g.net, g_grads, g_opt)
    return d_loss_val, g_loss_val, d_acc


def build_system(
    cfg: TrainConfig,
) -> tuple[transceiver.Transmitter, transceiver.Receiver, gan.Generator,
           gan.Discriminator]:
    """Fresh nets for the configured system, each from its own init stream."""
    return checkpoint.wrap_nets(cfg, [
        nn.DenseNet.create(dims, substream(cfg.seed, "init", role))
        for role, dims in cfg.net_dims().items()
    ])


class Trainer:
    """Holds nets, optimizers, and RNG streams for one training run.

    The GAN and receiver phases gather their blocks from the transmitter's
    M blocks, encoded when a step first needs them and dropped after each
    transmitter update. The steps reuse one ``nn.Tape`` per net (two for
    the discriminator: 2B rows in its update, B rows in the generator's),
    so a step allocates almost nothing; ``run`` drops them when it returns.
    """

    def __init__(self, cfg: TrainConfig):
        self.cfg = cfg
        self.channel_model = cfg.make_channel()
        self.noise_std = channel.noise_std_from_snr(cfg.train_ebn0_db, cfg.k, cfg.n)
        self.tx, self.rx, self.generator, self.discriminator = build_system(cfg)
        self.tx_opt = nn.AdamState.for_net(self.tx.net, cfg.lr_transceiver)
        self.rx_opt = nn.AdamState.for_net(self.rx.net, cfg.lr_transceiver)
        self.g_opt = nn.AdamState.for_net(
            self.generator.net, cfg.lr_gan, beta1=cfg.gan_beta1
        )
        self.d_opt = nn.AdamState.for_net(
            self.discriminator.net, cfg.lr_disc, beta1=cfg.gan_beta1
        )
        self._g_ema = nn.EmaTracker(self.generator.net, cfg.ema_decay)
        self._codebook: np.ndarray | None = None
        self._rng_batch = substream(cfg.seed, "train", "batch")
        self._rng_channel = substream(cfg.seed, "train", "channel")
        self._rng_z = substream(cfg.seed, "train", "z")
        self._rng_jitter = substream(cfg.seed, "train", "jitter")
        # one tape per net, by role: each step's passes through a net run one
        # after another. The discriminator's 2B-row pass has its own,
        # "disc.pair", so neither tape is reallocated for the other's rows
        self._tapes: dict[str, nn.Tape] = collections.defaultdict(nn.Tape)
        self.log = TrainLog()
        self.step = 0

    def _draw_batch(self) -> tuple[np.ndarray, object]:
        """Uniform message indices, then the channel state of each block,
        both from the batch stream."""
        batch = self.cfg.batch_size
        messages = self._rng_batch.integers(0, self.cfg.M, size=batch)
        return messages, self.channel_model.draw_state(self._rng_batch, batch)

    def _observe_batch(self, jitter: bool = False) -> tuple[
            np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
        """A drawn batch sent through the channel: its messages, the blocks
        sent (their codebook rows, see the class docstring, plus
        ``COND_JITTER`` times a draw from the jitter stream if ``jitter``),
        the channel output and the received pilots (None on AWGN)."""
        messages, state = self._draw_batch()
        if self._codebook is None:
            self._codebook = self.tx.encode_messages(np.arange(self.cfg.M))
        x = np.take(self._codebook, messages, axis=0)
        if jitter:
            noise = self._rng_jitter.standard_normal(x.shape)
            noise *= COND_JITTER
            x += noise
        y, y_p = self.channel_model.observe(x, state, self.noise_std, self._rng_channel)
        return messages, x, y, y_p

    def _record(self, iteration: int, phase: str, loss: float, **extra) -> float:
        """Count the step and log it; returns its loss."""
        self.step += 1
        self.log.append(StepRecord(self.step, iteration, phase, loss, **extra))
        return loss

    def train_gan_step(self, iteration: int) -> float:
        _, x, real_y, y_p = self._observe_batch(jitter=True)
        d_loss_val, g_loss_val, d_acc = gan_update(
            self.generator, self.discriminator, self.g_opt, self.d_opt,
            real_y, gan.conditioning(x, y_p), self._rng_z,
            d_updates=self.cfg.d_updates, tapes=self._tapes,
        )
        self._g_ema.update(self.generator.net)
        return self._record(iteration, "gan", d_loss_val, g_loss=g_loss_val,
                            d_accuracy=d_acc)

    def train_receiver_step(self, iteration: int) -> float:
        messages, x, y, y_p = self._observe_batch()
        del x  # the gathered rows need not live through the receiver's pass
        loss, grads = receiver_forward_backward(
            self.rx, messages, y, y_p, self._tapes["rx"]
        )
        nn.adam_step(self.rx.net, grads, self.rx_opt)
        return self._record(iteration, "rx", loss)

    def generator_averaged(self) -> gan.Generator:
        """The parameter-averaged generator; the surrogate worth keeping."""
        return gan.Generator(self._g_ema.averaged_net(self.generator.net),
                             self.generator.z_dim)

    def train_transmitter_step(self, iteration: int) -> float:
        messages, state = self._draw_batch()
        y_p = self.channel_model.pilots(state, self.noise_std, self._rng_channel)
        z = gan.sample_z(self._rng_z, self.cfg.batch_size, self.cfg.z_dim)
        loss, grads = transmitter_forward_backward(
            self.tx, self.rx, self.generator, messages, z, y_p, self._tapes
        )
        nn.adam_step(self.tx.net, grads, self.tx_opt)
        self._codebook = None
        return self._record(iteration, "tx", loss)

    def run(self, progress=None) -> None:
        """Walk ``cfg.schedule()``, skipping entries with 0 steps: run the
        phase's step ``steps`` times, then call ``progress(iteration, phase,
        loss)`` with the mean of the last 100 losses at most. The step tapes
        are dropped on return; later steps make new ones."""
        step_fns = {"gan": self.train_gan_step, "rx": self.train_receiver_step,
                    "tx": self.train_transmitter_step}
        try:
            for iteration, phase, steps in self.cfg.schedule():
                if steps == 0:
                    continue
                losses = [step_fns[phase](iteration) for _ in range(steps)]
                if progress:
                    progress(iteration, phase, float(np.mean(losses[-100:])))
        finally:
            self._tapes.clear()


def train_full(cfg: TrainConfig, out_dir: str, progress=None) -> Trainer:
    """Run the whole schedule, recorded in out_dir: ``manifest.json`` reads
    status "running" from the start; the checkpoints and the step log are
    written even if training aborts mid-run (the partial state is flushed
    before the exception propagates); then the status reads "completed",
    or "aborted at step N: <error>" with N the number of steps logged. A
    Trainer that cannot be built aborts at step 0 and leaves only the
    manifest."""
    manifest = _start_manifest(out_dir, cfg)
    trainer = None
    try:
        trainer = Trainer(cfg)
        trainer.run(progress)
        manifest["status"] = "completed"
    except BaseException as exc:
        step = 0 if trainer is None else trainer.step
        manifest["status"] = f"aborted at step {step}: {type(exc).__name__}: {exc}"
        raise
    finally:
        if trainer is not None:
            checkpoint.save_system(
                out_dir, cfg, trainer.tx, trainer.rx,
                trainer.generator_averaged(), trainer.discriminator,
            )
            trainer.log.to_csv(os.path.join(out_dir, "train_log.csv"))
        checkpoint.write_json(manifest, os.path.join(out_dir, "manifest.json"))
    return trainer


def _start_manifest(out_dir: str, cfg: TrainConfig) -> dict:
    """The run's manifest, written into out_dir with status "running"; a
    directory that already holds one is refused."""
    path = os.path.join(out_dir, "manifest.json")
    if os.path.exists(path):
        raise ConfigError(
            f"{path} already exists; refusing to overwrite a previous run")
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "command": "train",
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "package_version": __version__,
        "seed": cfg.seed,
        "config": cfg.to_dict(),
        "outputs": [*sorted(checkpoint.CHECKPOINT_FILES), "config.json",
                    "train_log.csv"],
        "status": "running",
    }
    checkpoint.write_json(manifest, path)
    return manifest

