"""Training steps reuse their buffers, BLER sweeps and fidelity distances
work on bounded blocks of rows, and a net is saved one row at a time: what
one step, shard or call allocates, and that reuse changes nothing a run
writes."""

import math
import tracemalloc

import numpy as np
import pytest

from gancomm import checkpoint, evaluate, nn, train
from gancomm.config import TrainConfig

MIB = 1 << 20
WARMUP_STEPS = 3


def transient_peak(step) -> int:
    """Peak bytes allocated during one call, above what it started with."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        step()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["awgn", "rayleigh"])
def test_a_steady_state_step_allocates_under_one_mib(kind):
    # default nets at batch 320: one generator pass alone spans about 1 MiB
    # of activations, so a step that made new activation, gradient or Adam
    # arrays would peak at several MiB
    trainer = train.Trainer(TrainConfig(channel=kind))
    steps = {"gan": trainer.train_gan_step, "rx": trainer.train_receiver_step,
             "tx": trainer.train_transmitter_step}
    for _ in range(WARMUP_STEPS):
        for step in steps.values():
            step(1)
    peaks = {phase: transient_peak(lambda: step(1)) for phase, step in steps.items()}
    assert all(peak < MIB for peak in peaks.values()), peaks


def reduced_cfg(**overrides):
    return TrainConfig(**{**dict(outer_iterations=2, warmup_gan_steps=5,
                                 final_rx_steps=5, seed=8), **overrides})


@pytest.mark.parametrize("kind", ["awgn", "rayleigh"])
def test_back_to_back_trainers_write_identical_files(tmp_path, kind):
    # the second run in the process finds the first run's freed memory in
    # the allocator; nothing it writes may depend on that
    for run in ("a", "b"):
        train.train_full(reduced_cfg(channel=kind), out_dir=str(tmp_path / run))
    for name in (*checkpoint.CHECKPOINT_FILES, "config.json", "train_log.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_a_trainer_still_steps_after_run_released_its_tapes():
    trainer = train.Trainer(reduced_cfg())
    trainer.run()
    assert not trainer._tapes
    losses = [trainer.train_gan_step(9), trainer.train_receiver_step(9),
              trainer.train_transmitter_step(9)]
    assert all(math.isfinite(loss) for loss in losses)
    assert [r.phase for r in trainer.log.records[-3:]] == ["gan", "rx", "tx"]


@pytest.mark.parametrize("kind", ["awgn", "rayleigh"])
def test_a_steady_state_sweep_shard_peaks_within_its_blocks(kind, monkeypatch):
    # default nets, one full shard: the gathered rows, the received blocks
    # and the noise span one DECIDE_ROWS block, and the receiver's tape, kept
    # through the shard, one block's pass; only the messages and h span the
    # shard. At 500 rows it peaks at 0.6 MiB on AWGN and 0.95 on Rayleigh
    # (0.5 and 0.8 with a new tape per block), at 2,000 rows at 1.35 and
    # 1.7; drawn shard-wide the rows and noise were 2.1 MiB each at 7 uses
    # and the shard peaked near 10 MiB
    cfg = TrainConfig(channel=kind)
    tx, rx, _, _ = train.build_system(cfg)
    trial_fns = []
    run_point = evaluate._run_point

    def capture(trial_fn, *args):
        trial_fns.append(trial_fn)
        return run_point(trial_fn, *args)

    monkeypatch.setattr(evaluate, "_run_point", capture)
    shard = evaluate.SHARD_TRIALS
    # the sweep's one shard is the warm-up
    evaluate.bler_sweep_learned(tx, rx, cfg, evaluate.SweepSpec((8.0,), shard, shard))
    (trial_fn,) = trial_fns
    peak = transient_peak(lambda: trial_fn(shard, np.random.default_rng(1)))
    assert peak < 1.25 * MIB, peak / MIB


@pytest.mark.parametrize("system", ["learned-awgn", "learned-rayleigh",
                                    *evaluate.BASELINE_SYSTEMS])
def test_a_one_shard_sweep_call_peaks_within_its_blocks(system):
    # the whole call: the gathered rows, the received blocks and pilots,
    # the receiver's pass, Hamming's scores and 16-QAM's distances all span
    # one DECIDE_ROWS block; only the messages and h span the shard. At 500
    # rows a call peaks at 0.3 (Hamming) to 0.95 MiB (learned Rayleigh), at
    # 2,000 rows at 0.65 to 1.7 MiB (learned Rayleigh). With the rows and received
    # blocks shard-wide (2.1 MiB each for a learned system at 7 uses) a call
    # peaked near 6 MiB for a learned system and 2.6 MiB for Hamming
    shard = evaluate.SHARD_TRIALS
    spec = evaluate.SweepSpec((8.0,), shard, shard)
    if system.startswith("learned-"):
        cfg = TrainConfig(channel=system.removeprefix("learned-"))
        tx, rx, _, _ = train.build_system(cfg)
        peak = transient_peak(lambda: evaluate.bler_sweep_learned(tx, rx, cfg, spec))
    else:
        peak = transient_peak(lambda: evaluate.bler_sweep_baseline(system, spec))
    assert peak < 1.25 * MIB, peak / MIB


def test_every_shard_is_decided_in_blocks_of_decide_rows(monkeypatch):
    # every block the receiver decides spans DECIDE_ROWS rows but the last
    # of a shard, which takes what is left
    monkeypatch.setattr(evaluate, "SHARD_TRIALS", 100)
    monkeypatch.setattr(evaluate, "DECIDE_ROWS", 7)
    cfg = TrainConfig(k=2, n=2, channel="rayleigh", tx_hidden=(8,), rx_hidden=(8,))
    tx, rx, _, _ = train.build_system(cfg)
    seen, tapes = [], []
    decode = rx.decode

    def recording_decode(y, y_pilot, tape):
        seen.append(len(y))
        tapes.append(tape)
        return decode(y, y_pilot, tape)

    monkeypatch.setattr(rx, "decode", recording_decode)
    evaluate.bler_sweep_learned(tx, rx, cfg, evaluate.SweepSpec((4.0,), 150, 150))
    assert seen == [7] * 14 + [2] + [7] * 7 + [1]
    # and the receiver's passes of a shard run on one tape of its own
    assert all(tape is tapes[0] for tape in tapes[:15])
    assert all(tape is tapes[15] for tape in tapes[15:]) and tapes[15] is not tapes[0]


def test_two_shards_on_two_workers_peak_within_their_blocks():
    # two learned Rayleigh shards at once, each thread's arrays spanning
    # one block: 1.9 MiB at 500 rows (1.6 with a new receiver tape per
    # block), 3.4 at 2,000; with shard-wide rows,
    # received blocks and pilots the call peaked near 12 MiB
    cfg = TrainConfig(channel="rayleigh")
    tx, rx, _, _ = train.build_system(cfg)
    shards = 2 * evaluate.SHARD_TRIALS
    spec = evaluate.SweepSpec((8.0,), shards, shards)
    peak = transient_peak(
        lambda: evaluate.bler_sweep_learned(tx, rx, cfg, spec, workers=2))
    assert peak < 2.5 * MIB, peak / MIB


def test_energy_distance_peaks_under_three_mib():
    # 1,024 samples of 14 reals a side: the (256, 1024) distance buffer is
    # 2 MiB; one (256, 1024, 14) difference cube per chunk was 32 MiB
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(2, 1024, 14))
    peak = transient_peak(lambda: evaluate.energy_distance(a, b))
    assert peak < 3 * MIB, peak / MIB


def test_saving_a_wide_net_holds_under_one_mib(tmp_path):
    # 548,366 parameters: the bound admits the finite check's 0.5 MiB of
    # bools and one row as text, not the net as Python floats (about 50 MiB)
    net = nn.DenseNet.create((30, 512, 512, 512, 14), np.random.default_rng(0))
    path = str(tmp_path / "generator.json")
    peak = transient_peak(lambda: checkpoint.save_net(net, path))
    assert peak < MIB, peak / MIB

