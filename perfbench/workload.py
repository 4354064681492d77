"""One benchmark workload, run in a fresh process started by run.py.

Usage (run.py passes these; a person normally runs run.py instead):

    python3 perfbench/workload.py --workload train-awgn --seed 1 --seconds 30 \
        --trace 0 --spawned-at <time.monotonic() at spawn> --out result.json

The result goes to ``--out`` as JSON: metric values by name, the counts of
operations attempted and failed, the failed checks, a fingerprint of every
seed-determined output, and the run environment. With ``--setup-only`` the
process sets the workload up, reports ``setup_s`` and exits.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from gancomm import checkpoint, channel, evaluate, nn, train  # noqa: E402
from gancomm.config import TrainConfig  # noqa: E402
from gancomm.rng import substream  # noqa: E402

import reference  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

# train-rayleigh is not in BENCHMARK.json (see README.md) but runs on request
WORKLOADS = ("train-awgn", "eval-sweep", "train-rayleigh")

# train-*: outer iterations per requested second. One iteration (40
# optimizer steps) took 0.25-0.4 s on the 2-core reference host, whose speed
# drifts by tens of percent over tens of seconds, so a run trains for about
# --seconds and its median iteration spans several of those drifts. At
# --seconds 30 the 200 warm-up and 1800 loop GAN steps give more than the
# 1000 gan_update samples that ms_p99 needs.
ITERATIONS_PER_SECOND = 3
POLISH_RX_STEPS = 200
BLER_TRIALS = 200_000  # train_bler: fixed-length point at the training Eb/N0
FIDELITY_SAMPLES = 512  # surrogate_edist: samples per condition

# eval-sweep: fixed-length points, in whole shards so both worker counts
# run full waves. Learned systems sit at their training Eb/N0.
LEARNED_CHANNELS = ("awgn", "rayleigh")
LEARNED_SHARDS = 6
BASELINE_SHARDS = 20
BASELINE_POINTS = (("hamming74-mld-awgn", 4.0),
                   ("qam16-rayleigh-perfect-csi", 10.0),
                   ("qam16-rayleigh-ls", 10.0))
WORKER_COUNTS = (1, 2)

ROLES = ("tx", "rx", "gen", "disc")
CALL_METRICS = {
    **{f"nn.{kind}.{role}.ms_p50": (f"nn.{kind}.{role}", 50)
       for kind in ("forward", "backward", "adam_step") for role in ROLES},
    "nn.ema_update.ms_p50": ("nn.EmaTracker.update", 50),
    "nn.softmax.ms_p50": ("nn.softmax", 50),
    "gan.generate.ms_p50": ("gan.generate", 50),
    "gan.d_loss.ms_p50": ("gan.d_loss", 50),
    "gan.g_loss.ms_p50": ("gan.g_loss", 50),
    "train.gan_update.ms_p50": ("train.gan_update", 50),
    "train.gan_update.ms_p99": ("train.gan_update", 99),
    "train.gan_step.ms_p50": ("train.Trainer.train_gan_step", 50),
    "train.rx_step.ms_p50": ("train.Trainer.train_receiver_step", 50),
    "train.tx_step.ms_p50": ("train.Trainer.train_transmitter_step", 50),
    "train.transmitter_forward_backward.ms_p50": ("train.transmitter_forward_backward", 50),
    "channel.awgn_apply.ms_p50": ("channel.awgn_apply", 50),
    "channel.fading_apply.ms_p50": ("channel.fading_apply", 50),
    "channel.pilot_receive.ms_p50": ("channel.pilot_receive", 50),
    "channel.rayleigh_sample.ms_p50": ("channel.rayleigh_sample", 50),
    "transceiver.encode.ms_p50": ("transceiver.Transmitter.encode", 50),
    "transceiver.decode.ms_p50": ("transceiver.Receiver.decode", 50),
    "transceiver.to_onehot.ms_p50": ("transceiver.to_onehot", 50),
    "baseline.hamming74_mld_decode.ms_p50": ("baseline.hamming74_mld_decode", 50),
    "baseline.qam16_demod_coherent.ms_p50": ("baseline.qam16_demod_coherent", 50),
    "checkpoint.save_system.ms": ("checkpoint.save_system", 50),
    "checkpoint.load_system.ms": ("checkpoint.load_system", 50),
    **{f"evaluate.shard_ms.{system}.p{q}": (f"evaluate.shard.{system}.w1", q)
       for system in ("learned-awgn", "learned-rayleigh", *evaluate.BASELINE_SYSTEMS)
       for q in (50, 90)},
}
PHASE_SPANS = {"gan": "train.Trainer.train_gan_step",
               "rx": "train.Trainer.train_receiver_step",
               "tx": "train.Trainer.train_transmitter_step"}
# workload-level metrics that a traced run of the other kind reports as 0.0
TRAIN_ONLY = ("train_steps_per_s", "train_bler", "surrogate_edist")
EVAL_ONLY = ("learned_trials_per_s", "learned_trials_per_s.w2", "baseline_trials_per_s",
             "evaluate.parallel_speedup.w2")
SELF_SHARE_LAYERS = tuple(l for l in LAYERS if l != "checkpoint")


class Ops:
    """Operations attempted and failed, and why each failure happened."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, count: int, ok: bool, what: str) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            self.failures.append(what)


def minor_faults() -> int:
    """Minor page faults of this process so far. The allocator gives the
    pages of freed temporaries back to the kernel and faults them in again
    (833,672 faults in a 20-iteration AWGN run that peaks at 43 MB), so this
    counts allocation churn that the timings alone do not show."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def percentile_ms(samples: np.ndarray, q: int) -> float:
    """The q-th percentile, or 0.0 when there are no samples or, for a
    tail percentile, fewer than ten samples beyond it."""
    if samples.size == 0 or (q > 90 and samples.size * (100 - q) / 100 < 10):
        return 0.0
    return float(np.percentile(samples, q))


def roles_for(cfgs: list[TrainConfig]) -> dict[tuple[int, ...], str]:
    """Layer widths of each net the configs build, mapped to its role."""
    roles: dict[tuple[int, ...], str] = {}
    for cfg in cfgs:
        pilot = 2 * cfg.n_pilot if cfg.is_fading else 0
        cond = 2 * cfg.n + pilot
        for role, dims in (
            ("tx", (cfg.M, *cfg.tx_hidden, 2 * cfg.n)),
            ("rx", (2 * cfg.n + pilot, *cfg.rx_hidden, cfg.M)),
            ("gen", (cfg.z_dim + cond, *cfg.gen_hidden, 2 * cfg.n)),
            ("disc", (2 * cfg.n + cond, *cfg.disc_hidden, 1)),
        ):
            if roles.setdefault(dims, role) != role:
                raise ValueError(f"nets {roles[dims]} and {role} share the shape {dims}")
    return roles


def digest_files(directory: str) -> str:
    h = hashlib.sha256()
    for name in ("config.json", *checkpoint.CHECKPOINT_FILES):
        with open(os.path.join(directory, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def same_params(a: nn.DenseNet, b: nn.DenseNet) -> bool:
    return len(a.layers) == len(b.layers) and all(
        la.activation == lb.activation and la.w.tobytes() == lb.w.tobytes()
        and la.b.tobytes() == lb.b.tobytes()
        for la, lb in zip(a.layers, b.layers))


def round_trip(cfg: TrainConfig, nets: tuple, directory: str, ops: Ops, label: str) -> str:
    """Save a system, load it back, check it bit for bit; return the
    digest of the written files."""
    checkpoint.save_system(directory, cfg, *nets)
    loaded_cfg, *loaded = checkpoint.load_system(directory)
    ok = loaded_cfg.to_dict() == cfg.to_dict() and all(
        same_params(a.net, b.net) for a, b in zip(nets, loaded))
    ops.add(1, ok, f"{label}: checkpoint round trip is not bit-exact")
    return digest_files(directory)


# -- train-awgn, train-rayleigh -------------------------------------------


def train_config(channel_kind: str, seed: int, seconds: int) -> TrainConfig:
    """The default schedule, reduced: default nets, batch 320, d_updates 2,
    the default 200 warm-up GAN steps, fewer outer iterations and a short
    receiver polish."""
    return TrainConfig(channel=channel_kind, seed=seed,
                       outer_iterations=ITERATIONS_PER_SECOND * seconds,
                       final_rx_steps=POLISH_RX_STEPS)


def train_pass(cfg: TrainConfig, trainer: train.Trainer, ops: Ops, tmp: str,
               tracer: Tracer | None = None) -> dict:
    """Run the schedule once, timed, then check and fingerprint its outputs."""
    pause = tracer.paused if tracer else contextlib.nullcontext
    messages = np.arange(cfg.M)
    ends: dict[int, float] = {}

    def progress(iteration: int, phase: str, loss: float) -> None:
        ends[iteration] = time.perf_counter()
        if phase == "tx":
            with pause():
                x = trainer.tx.encode_messages(messages)
            power = np.einsum("ij,ij->i", x, x)
            ops.add(1, bool(np.all(np.abs(power - cfg.n) <= 1e-9 * cfg.n)),
                    f"iteration {iteration}: a block's power is not n")

    scheduled = (cfg.warmup_gan_steps + cfg.final_rx_steps + cfg.outer_iterations
                 * (cfg.gan_steps + cfg.rx_steps + cfg.tx_steps))
    faults = minor_faults()
    start = time.perf_counter()
    try:
        trainer.run(progress)
    except Exception:
        # the step that raised and every step after it failed
        ops.add(scheduled - trainer.step, False, f"training raised at step {trainer.step + 1}")
        raise
    end = time.perf_counter()
    faults = minor_faults() - faults
    bad = sum(not all(math.isfinite(v) for v in (r.loss, r.g_loss, r.d_accuracy)
                      if v is not None)
              for r in trainer.log.records)
    ops.add(scheduled - bad, len(trainer.log.records) == scheduled,
            f"{len(trainer.log.records)} of {scheduled} steps logged")
    if bad:
        ops.add(bad, False, f"{bad} logged losses are not finite")

    boundaries = [ends[i] for i in range(cfg.outer_iterations + 1)]
    iteration_s = np.diff(boundaries)
    steps_per_iteration = cfg.gan_steps + cfg.rx_steps + cfg.tx_steps

    with pause():
        spec = evaluate.SweepSpec((cfg.train_ebn0_db,), min_trials=BLER_TRIALS,
                                  max_trials=BLER_TRIALS)
        point = evaluate.bler_sweep_learned(trainer.tx, trainer.rx, cfg, spec)[0]
        x = trainer.tx.encode_messages(messages)
        h = (channel.rayleigh_sample(substream(cfg.seed, "perfbench", "fidelity-h"), cfg.M)
             if cfg.is_fading else None)
        reports = evaluate.gan_fidelity(trainer.generator_averaged(), x,
                                        trainer.noise_std, FIDELITY_SAMPLES, cfg.seed,
                                        h=h, n_pilot=cfg.n_pilot)
        edist = float(np.mean([r.energy_distance for r in reports]))
    ckpt = round_trip(cfg, (trainer.tx, trainer.rx, trainer.generator_averaged(),
                            trainer.discriminator), tmp, ops, cfg.channel)
    log = hashlib.sha256(repr([(r.phase, r.loss, r.g_loss, r.d_accuracy)
                               for r in trainer.log.records]).encode()).hexdigest()
    return {
        "window": (start, end),
        "wall_s": end - start,
        "steps": len(trainer.log.records),
        "train_steps_per_s": steps_per_iteration / float(np.median(iteration_s)),
        "proc.minor_faults_per_op": faults / len(trainer.log.records),
        "train_bler": point.bler,
        "surrogate_edist": edist,
        "fingerprint": {"train_bler_errors": [point.trials, point.errors],
                        "surrogate_edist": repr(edist),
                        "checkpoint_sha256": ckpt, "train_log_sha256": log},
    }


def train_setup(args) -> dict:
    cfg = train_config(args.workload.split("-", 1)[1], args.seed, args.seconds)
    return {"cfg": cfg, "trainer": train.Trainer(cfg)}


def train_measure(state: dict, args, ops: Ops, tmp: str) -> dict:
    cfg = state["cfg"]
    first = train_pass(cfg, state["trainer"], ops, tmp)
    out = {
        "metrics": {"ops_per_s": first["train_steps_per_s"],
                    "train_steps_per_s": first["train_steps_per_s"],
                    "train_bler": first["train_bler"],
                    "surrogate_edist": first["surrogate_edist"],
                    "proc.minor_faults_per_op": first["proc.minor_faults_per_op"]},
        "fingerprint": first["fingerprint"],
    }
    if args.trace:
        # The first pass in a process takes about 500 page faults per step;
        # once the checks after it have freed large arrays, the allocator
        # keeps its pages and later passes take none. So the overhead is
        # measured between two later passes, untraced and traced.
        untraced = train_pass(cfg, train.Trainer(cfg), ops, tmp)
        trainer = train.Trainer(cfg)
        tracer = Tracer(roles_for([cfg]))
        tracer.install()
        try:
            traced = train_pass(cfg, trainer, ops, tmp, tracer)
        finally:
            tracer.uninstall()
        for other in (untraced, traced):
            ops.add(1, other["fingerprint"] == first["fingerprint"],
                    "a later pass did not reproduce the first one")
        out["metrics"].update(layer_metrics(tracer, traced["window"], traced["steps"]))
        out["metrics"].update(dict.fromkeys(EVAL_ONLY, 0.0))
        out["metrics"]["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
        out["counts"] = call_counts(tracer)
    return out


# -- eval-sweep -------------------------------------------------------------


def eval_setup(args, tmp: str, ops: Ops) -> dict:
    """Learned systems from the seed, written and read back as checkpoints."""
    systems = []
    for kind in LEARNED_CHANNELS:
        cfg = TrainConfig(channel=kind, seed=args.seed)
        nets = train.build_system(cfg)
        directory = os.path.join(tmp, f"learned-{kind}")
        checkpoint.save_system(directory, cfg, *nets)
        _, tx, rx, _, _ = checkpoint.load_system(directory)
        ops.add(1, same_params(tx.net, nets[0].net) and same_params(rx.net, nets[1].net),
                f"learned-{kind}: loaded nets differ from the built ones")
        systems.append({"label": f"learned-{kind}", "cfg": cfg, "nets": nets,
                        "tx": tx, "rx": rx})
    return {"systems": systems}


def sweep_once(systems: list[dict], seed: int, workers: int) -> dict:
    """Fixed-length points for every system, then one point per system under
    the default stop rule; returns the fixed-point times and all points."""
    shard = evaluate.SHARD_TRIALS
    clock = time.perf_counter
    points = {}
    t0 = clock()
    for s in systems:
        trials = LEARNED_SHARDS * shard
        spec = evaluate.SweepSpec((s["cfg"].train_ebn0_db,), trials, trials)
        points[s["label"]] = evaluate.bler_sweep_learned(
            s["tx"], s["rx"], s["cfg"], spec, seed=seed, workers=workers)[0]
    t1 = clock()
    for system, ebn0 in BASELINE_POINTS:
        trials = BASELINE_SHARDS * shard
        spec = evaluate.SweepSpec((ebn0,), trials, trials)
        points[system] = evaluate.bler_sweep_baseline(
            system, spec, seed=seed, workers=workers)[0]
    t2 = clock()
    for s in systems:
        points[s["label"] + ".stop"] = evaluate.bler_sweep_learned(
            s["tx"], s["rx"], s["cfg"], evaluate.SweepSpec((s["cfg"].train_ebn0_db,)),
            seed=seed, workers=workers)[0]
    for system, ebn0 in BASELINE_POINTS:
        points[system + ".stop"] = evaluate.bler_sweep_baseline(
            system, evaluate.SweepSpec((ebn0,)), seed=seed, workers=workers)[0]
    return {"learned_s": t1 - t0, "baseline_s": t2 - t1, "points": points}


def sweep_reps(systems: list[dict], seed: int, seconds: float | None = None,
               count: int | None = None) -> tuple[list[dict], tuple[float, float]]:
    """Repeat sweep_once at each worker count, for `seconds` or `count` times;
    returns the repetitions and the interval they ran in."""
    reps = []
    start = time.perf_counter()
    while (len(reps) < count) if count is not None else (
            not reps or time.perf_counter() - start < seconds):
        t0, faults = time.perf_counter(), minor_faults()
        rep = {w: sweep_once(systems, seed, w) for w in WORKER_COUNTS}
        rep["wall_s"] = time.perf_counter() - t0
        rep["minor_faults"] = minor_faults() - faults
        reps.append(rep)
    return reps, (start, time.perf_counter())


def check_sweeps(reps: list[dict], ops: Ops) -> None:
    """w1 and w2 points are identical (shard-exactness), every repetition
    repeats the first, counts are sane, and baselines match the reference."""
    first = reps[0][1]["points"]
    for i, rep in enumerate(reps):
        for w in WORKER_COUNTS:
            for key, p in rep[w]["points"].items():
                problems = []
                if p != first[key]:
                    problems.append(f"differs from repetition 0 workers=1 ({p} vs {first[key]})")
                if not 0 <= p.errors <= p.trials:
                    problems.append(f"{p.errors} errors in {p.trials} trials")
                system = key.removesuffix(".stop")
                if (i == 0 and w == 1 and system in evaluate.BASELINE_SYSTEMS
                        and not reference.within_reference(system, p.ebn0_db, p.trials, p.errors)):
                    problems.append(f"BLER {p.bler:.6g} is outside the reference interval")
                ops.add(math.ceil(p.trials / evaluate.SHARD_TRIALS), not problems,
                        f"repetition {i} workers={w} {key}: " + "; ".join(problems))


def eval_rates(reps: list[dict]) -> dict:
    learned = LEARNED_SHARDS * evaluate.SHARD_TRIALS * len(LEARNED_CHANNELS)
    baseline = BASELINE_SHARDS * evaluate.SHARD_TRIALS * len(BASELINE_POINTS)
    med = lambda values: float(np.median(values))  # noqa: E731
    trials = sum(p.trials for w in WORKER_COUNTS for p in reps[0][w]["points"].values())
    return {
        "learned_trials_per_s": med([learned / r[1]["learned_s"] for r in reps]),
        "learned_trials_per_s.w2": med([learned / r[2]["learned_s"] for r in reps]),
        "baseline_trials_per_s": med([baseline / r[1]["baseline_s"] for r in reps]),
        "evaluate.parallel_speedup.w2": med(
            [(r[1]["learned_s"] + r[1]["baseline_s"]) / (r[2]["learned_s"] + r[2]["baseline_s"])
             for r in reps]),
        "proc.minor_faults_per_op": med([r["minor_faults"] / trials for r in reps]),
    }


def eval_measure(state: dict, args, ops: Ops, tmp: str) -> dict:
    systems = state["systems"]
    budget = args.seconds / 2 if args.trace else args.seconds
    reps, _ = sweep_reps(systems, args.seed, seconds=budget)
    check_sweeps(reps, ops)
    rates = eval_rates(reps)
    metrics = {"ops_per_s": rates["learned_trials_per_s"], **rates}
    tracer = None
    if args.trace:
        tracer = Tracer(roles_for([s["cfg"] for s in systems]))
        tracer.install()
    try:
        if tracer:
            traced, window = sweep_reps(systems, args.seed, count=len(reps))
            check_sweeps(traced, ops)
            ops.add(1, traced[0][1]["points"] == reps[0][1]["points"],
                    "the traced repetitions did not reproduce the untraced ones")
        digests = {s["label"]: round_trip(s["cfg"], s["nets"],
                                          os.path.join(tmp, "round-trip", s["label"]),
                                          ops, s["label"])
                   for s in systems}
    finally:
        if tracer:
            tracer.uninstall()
    out = {
        "metrics": metrics,
        "fingerprint": {"points": {k: [p.trials, p.errors]
                                   for k, p in reps[0][1]["points"].items()},
                        "checkpoint_sha256": digests},
    }
    if tracer:
        out["metrics"].update(layer_metrics(tracer, window, 0))
        out["metrics"].update(dict.fromkeys(TRAIN_ONLY, 0.0))
        out["metrics"]["trace.overhead_ratio"] = (
            float(np.median([r["wall_s"] for r in traced]))
            / float(np.median([r["wall_s"] for r in reps])))
        out["counts"] = call_counts(tracer)
    return out


# -- per-layer metrics --------------------------------------------------------


def layer_metrics(tracer: Tracer, window: tuple[float, float], steps: int) -> dict:
    """Per-layer metrics from the traced pass; 0.0 where the workload never
    makes the call."""
    wall = window[1] - window[0]
    calls = tracer.call_ms()
    out = {name: percentile_ms(calls.get(span, np.empty(0)), q)
           for name, (span, q) in CALL_METRICS.items()}
    self_s = tracer.layer_self_seconds(window)
    out.update({f"{layer}.self_share": self_s[layer] / wall for layer in SELF_SHARE_LAYERS})
    out.update({f"train.phase_share.{phase}": tracer.span_seconds(span, window) / wall
                for phase, span in PHASE_SPANS.items()})
    out["nn.matmul_gflop_per_step"] = tracer.matmul_flops / steps / 1e9 if steps else 0.0
    stop = [(merged, drawn) for _, stop_rule, merged, drawn in tracer.points if stop_rule]
    out["evaluate.useful_trials_ratio"] = (
        sum(m for m, _ in stop) / sum(d for _, d in stop) if stop else 0.0)
    return out


def call_counts(tracer: Tracer) -> dict:
    calls = tracer.call_ms()
    return {name: len(calls.get(span, ())) for name, (span, _) in CALL_METRICS.items()}


# -- environment and entry point ------------------------------------------------


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pinned_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                        "MALLOC_ARENA_MAX")},
    }


def full_run(channel_kind: str) -> dict:
    """The default schedule (TrainConfig defaults but the channel), timed once."""
    cfg = TrainConfig(channel=channel_kind)
    trainer = train.Trainer(cfg)
    start = time.perf_counter()
    trainer.run()
    return {"channel": channel_kind, "seconds": time.perf_counter() - start,
            "steps": trainer.step, "host": platform.node(), "env": environment()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--full", choices=("awgn", "rayleigh"))
    args = parser.parse_args(argv)

    if args.full:
        result = full_run(args.full)
    else:
        tmp = os.path.join(os.path.dirname(args.out), f"work-{os.getpid()}")
        ops = Ops()
        try:
            result = run_workload(args, ops, tmp)
        except Exception:
            # the run is over; report what failed rather than a bare traceback
            result = {"error": traceback.format_exc(), "attempted": ops.attempted,
                      "failed": ops.failed, "failures": ops.failures}
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    tmp_out = args.out + ".tmp"
    with open(tmp_out, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    os.replace(tmp_out, args.out)
    return 0


def run_workload(args, ops: Ops, tmp: str) -> dict:
    if args.workload == "eval-sweep":
        state = eval_setup(args, tmp, ops)
        measure = eval_measure
    else:
        state = train_setup(args)
        measure = train_measure
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        return {"setup_s": setup_s}
    result = measure(state, args, ops, tmp)
    result["metrics"]["setup_s"] = setup_s
    result["metrics"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result.update(attempted=ops.attempted, failed=ops.failed,
                  failures=ops.failures, env=environment())
    return result


if __name__ == "__main__":
    sys.exit(main())
