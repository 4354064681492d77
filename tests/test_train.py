"""Training loop: phase updates, the surrogate gradient path, scheduling."""

import collections
import csv
import importlib.util
import json
import pathlib

import numpy as np
import pytest

from gancomm import baseline, channel, checkpoint, gan, nn, train, transceiver
from gancomm.config import TrainConfig
from gancomm.rng import substream
from helpers import (
    central_difference,
    float64_copy,
    last_iteration_mean,
    phase_losses,
    relative_error,
)


def tiny_cfg(**overrides):
    base = dict(
        k=2, n=2, batch_size=16, outer_iterations=2, rx_steps=2, tx_steps=2,
        gan_steps=2, warmup_gan_steps=2, final_rx_steps=3, seed=3,
        tx_hidden=(8,), rx_hidden=(8,), gen_hidden=(12,), disc_hidden=(8,),
        z_dim=3,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainLog:
    def test_phase_filter_and_csv_round_trip(self, tmp_path):
        log = train.TrainLog()
        log.append(train.StepRecord(1, 0, "gan", 1.5, g_loss=0.7, d_accuracy=0.5))
        log.append(train.StepRecord(2, 1, "rx", 1.25))
        log.append(train.StepRecord(3, 1, "rx", 0.75))
        assert np.array_equal(phase_losses(log, "rx"), [1.25, 0.75])
        assert last_iteration_mean(log, "rx") == 1.0
        path = tmp_path / "log.csv"
        log.to_csv(str(path))
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0][:4] == ["step", "iteration", "phase", "loss"]
        assert float(rows[1][3]) == 1.5
        assert float(rows[1][4]) == 0.7
        assert rows[2][4] == ""

    def test_mean_covers_only_the_last_iteration(self):
        log = train.TrainLog()
        log.append(train.StepRecord(1, 1, "tx", 10.0))
        log.append(train.StepRecord(2, 2, "tx", 1.0))
        log.append(train.StepRecord(3, 2, "tx", 3.0))
        assert last_iteration_mean(log, "tx") == 2.0

    def test_unknown_phase_raises(self):
        with pytest.raises(ValueError):
            last_iteration_mean(train.TrainLog(), "rx")


class TestSampleBatch:
    @pytest.mark.parametrize("kind", ["awgn", "rayleigh"])
    def test_trainer_draws_messages_then_state_from_the_batch_stream(self, kind):
        cfg = tiny_cfg(channel=kind)
        trainer = train.Trainer(cfg)
        messages, state = trainer._draw_batch()
        assert messages.shape == (cfg.batch_size,)
        assert messages.min() >= 0 and messages.max() < cfg.M
        ref = substream(cfg.seed, "train", "batch")
        assert np.array_equal(messages, ref.integers(0, cfg.M, size=cfg.batch_size))
        if kind == "awgn":
            assert state is None
        else:
            h = channel.rayleigh_sample(ref, cfg.batch_size)
            assert state.tobytes() == h.tobytes()
        assert trainer._rng_batch.bit_generator.state == ref.bit_generator.state
        assert trainer.noise_std == channel.noise_std_from_snr(
            cfg.train_ebn0_db, cfg.k, cfg.n)

    def test_noise_std_is_the_train_point_at_the_code_rate(self):
        # 4 dB at rate 4/7: N0 = 1 / ((4/7) * 10^0.4)
        assert train.Trainer(tiny_cfg(k=4, n=7, train_ebn0_db=4.0)).noise_std == (
            pytest.approx(0.5902065521783963, rel=1e-12))


class TestGradientPaths:
    def test_receiver_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        rx = transceiver.Receiver(nn.DenseNet.create((4, 8, 4), rng))
        rx.net = float64_copy(rx.net)
        messages = rng.integers(0, 4, size=6)
        y = rng.normal(size=(6, 4))

        _, grads = train.receiver_forward_backward(rx, messages, y)
        flat = rx.net.flat_params()
        idx = np.linspace(0, flat.size - 1, 30).astype(int)

        def at(params):
            rx.net.set_flat_params(params)
            loss, _ = train.receiver_forward_backward(rx, messages, y)
            return loss

        fd = central_difference(at, flat, idx)
        rx.net.set_flat_params(flat)
        assert relative_error(grads.flat[idx], fd).max() < 1e-6

    def test_transmitter_gradients_cross_generator_and_receiver(self):
        # loss -> receiver -> generator -> power norm -> transmitter, the
        # path that replaces the unusable real-channel gradient
        cfg = tiny_cfg()
        tx, rx, g, _ = train.build_system(cfg)
        for part in (tx, rx, g):
            part.net = float64_copy(part.net)
        rng = np.random.default_rng(4)
        messages = rng.integers(0, 4, size=5)
        z = gan.sample_z(rng, 5, cfg.z_dim)

        _, grads = train.transmitter_forward_backward(tx, rx, g, messages, z)
        flat = tx.net.flat_params()
        idx = np.linspace(0, flat.size - 1, 40).astype(int)

        def at(params):
            tx.net.set_flat_params(params)
            loss, _ = train.transmitter_forward_backward(tx, rx, g, messages, z)
            return loss

        fd = central_difference(at, flat, idx)
        tx.net.set_flat_params(flat)
        assert relative_error(grads.flat[idx], fd).max() < 1e-6

    def test_transmitter_update_reads_but_never_writes_the_others(self):
        cfg = tiny_cfg()
        tx, rx, g, _ = train.build_system(cfg)
        rng = np.random.default_rng(5)
        messages = rng.integers(0, 4, size=5)
        z = gan.sample_z(rng, 5, cfg.z_dim)
        rx_before = rx.net.flat_params().copy()
        g_before = g.net.flat_params().copy()
        train.transmitter_forward_backward(tx, rx, g, messages, z)
        assert np.array_equal(rx.net.flat_params(), rx_before)
        assert np.array_equal(g.net.flat_params(), g_before)

    def test_fading_composite_path_passes_finite_differences(self):
        cfg = tiny_cfg(channel="rayleigh")
        tx, rx, g, _ = train.build_system(cfg)
        for part in (tx, rx, g):
            part.net = float64_copy(part.net)
        rng = np.random.default_rng(6)
        messages = rng.integers(0, 4, size=5)
        z = gan.sample_z(rng, 5, cfg.z_dim)
        y_p = rng.normal(size=(5, 2))

        _, grads = train.transmitter_forward_backward(tx, rx, g, messages, z, y_p)
        flat = tx.net.flat_params()
        idx = np.linspace(0, flat.size - 1, 30).astype(int)

        def at(params):
            tx.net.set_flat_params(params)
            loss, _ = train.transmitter_forward_backward(
                tx, rx, g, messages, z, y_p
            )
            return loss

        fd = central_difference(at, flat, idx)
        tx.net.set_flat_params(flat)
        assert relative_error(grads.flat[idx], fd).max() < 1e-6


def float32_representable(a):
    return np.asarray(a).astype(np.float32).astype(np.float64)


def norm_relative_error(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


class TestFloat32Gradients:
    @pytest.mark.parametrize("kind", ["awgn", "rayleigh"])
    def test_float32_gradients_match_their_float64_copies(self, kind):
        # the float32 arithmetic itself: at the default widths, every
        # training gradient of the product nets agrees with the same code
        # run on float64 copies, fed the same float32-representable inputs
        cfg = TrainConfig(channel=kind, seed=9)
        system32 = train.build_system(cfg)
        system64 = train.build_system(cfg)
        for part in system64:
            part.net = float64_copy(part.net)
        rng = np.random.default_rng(10)
        batch = 64
        messages = rng.integers(0, cfg.M, size=batch)
        z = float32_representable(gan.sample_z(rng, batch, cfg.z_dim))
        y, real_y, fake_y = (
            float32_representable(rng.normal(size=(batch, 2 * cfg.n))) for _ in range(3)
        )
        y_p = (float32_representable(rng.normal(size=(batch, 2 * cfg.n_pilot)))
               if cfg.is_fading else None)
        x = float32_representable(system64[0].encode(messages)[0])
        cond = gan.conditioning(x, y_p)

        def path_gradients(tx, rx, g, d):
            grads = {
                "rx": train.receiver_forward_backward(rx, messages, y, y_p)[1],
                "disc": gan.d_loss(d, real_y, fake_y, cond)[1],
                "gen": gan.g_loss(g, d, *gan.generate(g, z, cond), cond)[1],
                "tx": train.transmitter_forward_backward(tx, rx, g, messages, z,
                                                         y_p)[1],
            }
            return {path: v.flat.astype(np.float64) for path, v in grads.items()}

        want = path_gradients(*system64)
        for path, got in path_gradients(*system32).items():
            assert norm_relative_error(got, want[path]) <= 1e-4, path

        for part32, part64 in zip(system32, system64):
            net32, net64 = part32.net, part64.net
            x_in = float32_representable(rng.normal(size=(batch, net32.input_dim)))
            upstream = float32_representable(rng.normal(size=(batch, net32.output_dim)))
            results = []
            for net in (net32, net64):
                _, tape = nn.forward(net, x_in)
                grads, input_grad = nn.backward(net, tape, upstream)
                results.append((grads.flat.astype(np.float64),
                                input_grad.astype(np.float64)))
            (params32, inputs32), (params64, inputs64) = results
            assert norm_relative_error(params32, params64) <= 1e-4
            assert norm_relative_error(inputs32, inputs64) <= 1e-4


class TestGanUpdate:
    def test_both_nets_move_and_step_counts_track_d_updates(self):
        cfg = tiny_cfg()
        _, _, g, d = train.build_system(cfg)
        g_opt = nn.AdamState.for_net(g.net, 1e-3)
        d_opt = nn.AdamState.for_net(d.net, 1e-3)
        rng = np.random.default_rng(7)
        real_y = rng.normal(size=(8, 4))
        m = rng.normal(size=(8, 4))
        g_before = g.net.flat_params().copy()
        d_before = d.net.flat_params().copy()
        train.gan_update(g, d, g_opt, d_opt, real_y, m, rng, d_updates=3)
        assert not np.array_equal(g.net.flat_params(), g_before)
        assert not np.array_equal(d.net.flat_params(), d_before)
        assert d_opt.step_count == 3
        assert g_opt.step_count == 1

    @pytest.mark.parametrize("d_updates", [1, 2, 3])
    def test_a_step_runs_each_net_only_as_often_as_it_must(self, d_updates,
                                                           monkeypatch):
        # d_updates generator passes, each scored with the real batch in
        # one 2B-row discriminator pass, then the generator update reuses
        # the last of them: one more B-row discriminator pass, and the one
        # generator backward
        trainer = train.Trainer(tiny_cfg(d_updates=d_updates))
        batch = trainer.cfg.batch_size
        role = {id(trainer.generator.net): "gen", id(trainer.discriminator.net): "disc"}
        calls, z_draws = [], []
        forward, backward, sample_z = nn.forward, nn.backward, gan.sample_z

        def counting_forward(net, x, *args, **kwargs):
            calls.append(("forward", role.get(id(net)), len(x)))
            return forward(net, x, *args, **kwargs)

        def counting_backward(net, tape, *args, **kwargs):
            calls.append(("backward", role.get(id(net)), tape.batch_size))
            return backward(net, tape, *args, **kwargs)

        def counting_sample_z(*args):
            z_draws.append(args)
            return sample_z(*args)

        monkeypatch.setattr(nn, "forward", counting_forward)
        monkeypatch.setattr(nn, "backward", counting_backward)
        monkeypatch.setattr(gan, "sample_z", counting_sample_z)
        trainer.train_gan_step(1)
        # the GAN's calls; the first step also encodes the codebook
        forwards = [(net, rows) for kind, net, rows in calls if kind == "forward" and net]
        backwards = [(net, rows) for kind, net, rows in calls if kind == "backward" and net]
        assert len(z_draws) == d_updates
        assert forwards.count(("gen", batch)) == d_updates
        assert forwards.count(("disc", 2 * batch)) == d_updates
        assert forwards.count(("disc", batch)) == 1
        assert len(forwards) == 2 * d_updates + 1
        assert backwards.count(("gen", batch)) == 1
        assert backwards.count(("disc", 2 * batch)) == d_updates
        assert backwards.count(("disc", batch)) == 1
        assert len(backwards) == d_updates + 2
        assert sorted(trainer._tapes) == ["disc", "disc.pair", "gen"]

    def test_generator_update_is_g_loss_on_the_last_discriminator_z(self, monkeypatch):
        cfg = tiny_cfg()
        _, _, g, d = train.build_system(cfg)
        g_opt = nn.AdamState.for_net(g.net, 1e-3)
        d_opt = nn.AdamState.for_net(d.net, 1e-3)
        rng = np.random.default_rng(8)
        real_y = rng.normal(size=(8, 4))
        m = rng.normal(size=(8, 4))
        zs, seen = [], {}
        sample_z, adam_step = gan.sample_z, nn.adam_step

        def recording_sample_z(*args):
            zs.append(sample_z(*args))
            return zs[-1]

        def recording_adam_step(net, grads, state):
            if net is g.net:
                # the discriminator has taken its updates, the generator not yet
                seen["got"] = grads.flat.copy()
                fake_y, g_tape = gan.generate(g, zs[-1], m)
                seen["want"] = gan.g_loss(g, d, fake_y, g_tape, m)[1].flat.copy()
            adam_step(net, grads, state)

        monkeypatch.setattr(gan, "sample_z", recording_sample_z)
        monkeypatch.setattr(nn, "adam_step", recording_adam_step)
        train.gan_update(g, d, g_opt, d_opt, real_y, m, rng, d_updates=2,
                         tapes=collections.defaultdict(nn.Tape))
        assert len(zs) == 2
        assert seen["got"].tobytes() == seen["want"].tobytes()


class TestTrainer:
    def test_first_receiver_loss_starts_near_uniform_guessing(self):
        trainer = train.Trainer(tiny_cfg())
        loss = trainer.train_receiver_step(1)
        assert abs(loss - np.log(4.0)) < 0.4

    def test_schedule_produces_the_expected_record_sequence(self):
        cfg = tiny_cfg()
        trainer = train.Trainer(cfg)
        trainer.run()
        records = trainer.log.records
        # sum(steps) records, each entry's in turn
        want = [(it, phase) for it, phase, steps in cfg.schedule()
                for _ in range(steps)]
        assert [(r.iteration, r.phase) for r in records] == want
        assert [r.step for r in records] == list(range(1, len(want) + 1))

    def test_identical_configs_train_to_identical_parameters(self):
        cfg = tiny_cfg()
        a = train.Trainer(cfg)
        a.run()
        b = train.Trainer(tiny_cfg())
        b.run()
        for na, nb in (
            (a.tx.net, b.tx.net), (a.rx.net, b.rx.net),
            (a.generator.net, b.generator.net),
            (a.discriminator.net, b.discriminator.net),
        ):
            assert np.array_equal(na.flat_params(), nb.flat_params())

    def test_progress_callback_sees_every_phase(self):
        seen = []
        trainer = train.Trainer(tiny_cfg())
        trainer.run(progress=lambda it, phase, loss: seen.append((it, phase)))
        assert seen[0] == (0, "gan")
        assert (1, "rx") in seen and (2, "tx") in seen
        assert seen[-1] == (3, "rx")

    def test_averaged_generator_lags_the_live_one(self):
        trainer = train.Trainer(tiny_cfg())
        for _ in range(5):
            trainer.train_gan_step(1)
        live = trainer.generator.net.flat_params()
        averaged = trainer.generator_averaged().net.flat_params()
        assert not np.array_equal(live, averaged)
        assert trainer.generator_averaged().net.dims == trainer.generator.net.dims
        assert trainer.generator_averaged().z_dim == trainer.generator.z_dim

    def test_receiver_alone_learns_a_clean_channel(self):
        cfg = tiny_cfg(
            train_ebn0_db=12.0, outer_iterations=40, rx_steps=5, gan_steps=0,
            tx_steps=0, warmup_gan_steps=0, final_rx_steps=0, batch_size=64,
        )
        trainer = train.Trainer(cfg)
        trainer.run()
        losses = phase_losses(trainer.log, "rx")
        assert losses[-1] < 0.5 * losses[0]
        assert last_iteration_mean(trainer.log, "rx") < 1.0


class TestSchedule:
    def test_lists_the_run_in_order(self):
        cfg = tiny_cfg(warmup_gan_steps=4, gan_steps=2, rx_steps=3, tx_steps=1,
                       final_rx_steps=5)
        assert cfg.schedule() == [
            (0, "gan", 4),
            (1, "gan", 2), (1, "rx", 3), (1, "tx", 1),
            (2, "gan", 2), (2, "rx", 3), (2, "tx", 1),
            (3, "rx", 5),
        ]

    def test_a_phase_with_no_steps_gets_no_record_and_no_progress(self):
        cfg = tiny_cfg(rx_steps=0, warmup_gan_steps=0)
        trainer = train.Trainer(cfg)
        seen = []
        trainer.run(lambda it, phase, loss: seen.append((it, phase)))
        assert seen == [(1, "gan"), (1, "tx"), (2, "gan"), (2, "tx"), (3, "rx")]
        assert [(r.iteration, r.phase) for r in trainer.log.records
                if r.phase == "rx"] == [(3, "rx")] * cfg.final_rx_steps
        assert not any(r.iteration == 0 for r in trainer.log.records)

    def test_progress_is_the_mean_of_at_most_the_last_100_losses(self):
        cfg = tiny_cfg(outer_iterations=1, final_rx_steps=150)
        trainer = train.Trainer(cfg)
        seen = {}
        trainer.run(lambda it, phase, loss: seen.setdefault((it, phase), loss))
        rx = [r.loss for r in trainer.log.records if r.iteration == 2]
        assert len(rx) == 150
        assert seen[(2, "rx")] == float(np.mean(rx[-100:]))
        gan_warmup = [r.loss for r in trainer.log.records if r.iteration == 0]
        assert seen[(0, "gan")] == float(np.mean(gan_warmup))


def record_steps(trainer, monkeypatch):
    """Per step, the messages drawn and the blocks sent through the channel
    (None for a transmitter step, which sends none), and the nn.forward
    calls on the trainer's transmitter net."""
    steps = []
    draw, observe, forward = trainer._draw_batch, trainer.channel_model.observe, nn.forward

    def draw_batch():
        messages, state = draw()
        steps.append({"messages": messages, "blocks": None, "tx_forwards": 0})
        return messages, state

    def observe_blocks(x, *args, **kwargs):
        steps[-1]["blocks"] = x.copy()
        return observe(x, *args, **kwargs)

    def counting_forward(net, *args, **kwargs):
        if net is trainer.tx.net:
            steps[-1]["tx_forwards"] += 1
        return forward(net, *args, **kwargs)

    monkeypatch.setattr(trainer, "_draw_batch", draw_batch)
    monkeypatch.setattr(trainer.channel_model, "observe", observe_blocks)
    monkeypatch.setattr(nn, "forward", counting_forward)
    return steps


class TestCodebook:
    @pytest.mark.parametrize("kind", ["awgn", "rayleigh"])
    def test_blocks_after_a_transmitter_step_are_the_new_encoding(self, kind,
                                                                  monkeypatch):
        trainer = train.Trainer(tiny_cfg(channel=kind))
        steps = record_steps(trainer, monkeypatch)
        trainer.train_gan_step(1)
        trainer.train_transmitter_step(1)
        trainer.train_gan_step(2)
        trainer.train_receiver_step(2)
        first, _, gan_step, rx_step = steps
        for step in (gan_step, rx_step):
            want = trainer.tx.encode(step["messages"])[0]
            assert step["blocks"].tobytes() == want.tobytes()
        # the transmitter step moved the blocks, so a stale codebook would show
        assert not np.array_equal(first["blocks"],
                                  trainer.tx.encode(first["messages"])[0])

    def test_only_the_transmitter_step_and_the_codebook_run_the_transmitter(
            self, monkeypatch):
        trainer = train.Trainer(tiny_cfg())
        steps = record_steps(trainer, monkeypatch)
        for step in ("gan", "gan", "rx", "tx", "rx", "gan", "tx", "gan"):
            {"gan": trainer.train_gan_step, "rx": trainer.train_receiver_step,
             "tx": trainer.train_transmitter_step}[step](1)
        # a GAN or receiver step encodes the codebook only when a
        # transmitter update, or the start of the run, dropped it
        assert [s["tx_forwards"] for s in steps] == [1, 0, 0, 1, 1, 0, 1, 1]

    def test_channel_gan_keeps_the_qam16_codebook(self, monkeypatch):
        trainers = []

        class Recording(train.Trainer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                trainers.append(self)
                self.steps = record_steps(self, monkeypatch)

        monkeypatch.setattr(train, "Trainer", Recording)
        train.train_channel_gan("rayleigh", 10.0, steps=3, seed=0, batch_size=8,
                                gen_hidden=(8,), disc_hidden=(8,), z_dim=3)
        (trainer,) = trainers
        assert trainer._codebook is baseline.qam16_codebook()
        assert len(trainer.steps) == 3
        for step in trainer.steps:
            assert step["tx_forwards"] == 0
            want = baseline.qam16_codebook()[step["messages"]]
            assert step["blocks"].tobytes() == want.tobytes()

    @pytest.mark.parametrize("batch", [1, 5, 17, 320, 640])
    @pytest.mark.parametrize("kind", ["awgn", "rayleigh"])
    def test_gathered_rows_equal_a_batch_encode(self, kind, batch):
        # the rows of the M-message encode are the bits a batch encode of
        # the same messages gives, whatever the batch size; training's
        # gathered batches rest on it
        cfg = TrainConfig(channel=kind, seed=11)
        tx = train.build_system(cfg)[0]
        codebook = tx.encode_messages(np.arange(cfg.M))
        messages = np.random.default_rng(batch).integers(0, cfg.M, size=batch)
        gathered = np.take(codebook, messages, axis=0)
        assert gathered.tobytes() == tx.encode(messages)[0].tobytes()


class TestNetDims:
    @pytest.mark.parametrize("n_pilot", [1, 3])
    @pytest.mark.parametrize("kind", ["awgn", "rayleigh"])
    def test_are_the_widths_of_the_built_nets(self, kind, n_pilot):
        cfg = TrainConfig(channel=kind, n_pilot=n_pilot)
        dims = cfg.net_dims()
        assert list(dims) == ["tx", "rx", "gen", "disc"]
        assert [w.net.dims for w in train.build_system(cfg)] == list(dims.values())

    @pytest.mark.parametrize("n_pilot", [1, 3])
    @pytest.mark.parametrize("kind", ["awgn", "rayleigh"])
    def test_agree_with_the_benchmark_roles(self, kind, n_pilot, monkeypatch):
        perfbench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
        monkeypatch.syspath_prepend(str(perfbench))
        spec = importlib.util.spec_from_file_location(
            "perfbench_workload", perfbench / "workload.py")
        workload = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workload)
        cfg = TrainConfig(channel=kind, n_pilot=n_pilot)
        assert workload.roles_for([cfg]) == {
            dims: role for role, dims in cfg.net_dims().items()}


class TestTrainFull:
    def test_checkpoint_holds_the_averaged_generator(self, tmp_path):
        cfg = tiny_cfg()
        trainer = train.train_full(cfg, out_dir=str(tmp_path))
        _, _, _, g_loaded, _ = checkpoint.load_system(str(tmp_path))
        assert np.array_equal(
            g_loaded.net.flat_params(),
            trainer.generator_averaged().net.flat_params(),
        )
        assert not np.array_equal(
            g_loaded.net.flat_params(), trainer.generator.net.flat_params()
        )

    def test_aborted_run_still_flushes_partial_state(self, tmp_path):
        cfg = tiny_cfg()
        calls = []

        def bomb(it, phase, loss):
            calls.append(it)
            if len(calls) == 3:
                raise RuntimeError("deliberate stop")

        with pytest.raises(RuntimeError, match="deliberate stop"):
            train.train_full(cfg, out_dir=str(tmp_path), progress=bomb)
        names = {p.name for p in tmp_path.iterdir()}
        assert set(checkpoint.CHECKPOINT_FILES) <= names
        assert "train_log.csv" in names

    def test_finished_run_reads_completed(self, tmp_path):
        train.train_full(tiny_cfg(), out_dir=str(tmp_path))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "completed"

    @pytest.mark.parametrize("error", [RuntimeError("deliberate stop"),
                                       KeyboardInterrupt()])
    def test_aborted_run_reads_the_step_it_stopped_at(self, tmp_path, error):
        calls = []

        def bomb(it, phase, loss):
            calls.append(it)
            if len(calls) == 3:
                raise error

        with pytest.raises(type(error)):
            train.train_full(tiny_cfg(), out_dir=str(tmp_path), progress=bomb)
        with open(tmp_path / "train_log.csv", newline="") as f:
            steps = len(list(csv.reader(f))) - 1
        assert steps > 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == (
            f"aborted at step {steps}: {type(error).__name__}: {error}")

    def test_a_trainer_that_cannot_be_built_aborts_at_step_zero(self, tmp_path, monkeypatch):
        def no_memory(cfg):
            raise MemoryError("no room for the nets")

        monkeypatch.setattr(train, "build_system", no_memory)
        with pytest.raises(MemoryError):
            train.train_full(tiny_cfg(), out_dir=str(tmp_path))
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "aborted at step 0: MemoryError: no room for the nets"

    def test_progress_sees_the_run_as_running(self, tmp_path):
        seen = []

        def look(it, phase, loss):
            seen.append(json.loads((tmp_path / "manifest.json").read_text())["status"])

        train.train_full(tiny_cfg(), out_dir=str(tmp_path), progress=look)
        assert len(seen) > 1 and set(seen) == {"running"}

    def test_log_csv_written_alongside_checkpoints(self, tmp_path):
        cfg = tiny_cfg()
        train.train_full(cfg, out_dir=str(tmp_path))
        with open(tmp_path / "train_log.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert len(rows) > 10


class TestChannelOnlyGan:
    def test_awgn_surrogate_conditions_on_the_block_alone(self):
        g, d, log = train.train_channel_gan(
            "awgn", 6.0, steps=3, seed=0, batch_size=8,
            gen_hidden=(8,), disc_hidden=(8,), z_dim=3,
        )
        # z_dim 3 plus the one-use block; the discriminator sees y and the block
        assert g.net.input_dim == 3 + 2
        assert d.net.input_dim == 2 + 2
        assert len(log.records) == 3

    def test_fading_surrogate_sees_the_pilot(self):
        g, _, _ = train.train_channel_gan(
            "rayleigh", 10.0, steps=3, seed=0, batch_size=8,
            gen_hidden=(8,), disc_hidden=(8,), z_dim=3,
        )
        assert g.net.input_dim == 3 + 4

    def test_unknown_channel_rejected(self):
        with pytest.raises(ValueError, match="unknown channel"):
            train.train_channel_gan("rician", 6.0, steps=1, seed=0)

    def test_same_seed_reproduces_the_surrogate(self):
        kwargs = dict(steps=4, seed=9, batch_size=8, gen_hidden=(8,),
                      disc_hidden=(8,), z_dim=3)
        g1, _, _ = train.train_channel_gan("awgn", 6.0, **kwargs)
        g2, _, _ = train.train_channel_gan("awgn", 6.0, **kwargs)
        assert np.array_equal(g1.net.flat_params(), g2.net.flat_params())
