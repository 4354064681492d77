"""gancomm benchmark: one workload run, measured in fresh processes.

    python3 perfbench/run.py --workload train-awgn --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --full

Run from anywhere; the repository root is the parent of this directory and
the package is imported from its ``src/``. Each run starts the workload in a
fresh Python process with BLAS pinned to one thread (see CHILD_ENV). An untraced run
(``--trace 0``) first starts SETUP_REPEATS more processes that only set the
workload up, so ``setup_s`` is a median. ``--trace 1`` runs the workload
untraced and then traced in the same process and reports the per-layer
metrics. ``--full`` times the default training schedule once per channel.

Every metric is printed by name and unit; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics
(the end-to-end metrics of BENCHMARK.json untraced, its per-layer metrics
traced). The exit code is 0 only when every output check passed. Results,
with the run environment, are also written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
OUT = os.path.join(ROOT, ".perfbench_out")
# train-rayleigh is not in BENCHMARK.json (see README.md) but runs on request
WORKLOADS = ("train-awgn", "eval-sweep", "train-rayleigh")
SETUP_REPEATS = 4
RUN_DEADLINE_S = 175.0
FULL_TIMEOUT_S = 3600.0
# Two eval workers with several BLAS threads each would oversubscribe a
# small host, so every child process runs its matmuls on one thread. One
# malloc arena keeps peak RSS from depending on which pool thread allocated
# first (eval-sweep ranged over 124-141 MB without it, 121-124 MB with it).
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "MALLOC_ARENA_MAX": "1"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def code_digest() -> str:
    """Digest of the package and benchmark sources: the determinism ledger
    only compares runs of the same code."""
    h = hashlib.sha256()
    for directory in (os.path.join(ROOT, "src", "gancomm"), HERE):
        for name in sorted(os.listdir(directory)):
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as f:
                    h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unavailable ({exc})"
    return done.stdout.strip() or "unavailable"


def spawn(extra: list[str], out: str, timeout: float) -> dict:
    """Run workload.py in a fresh process and return the result it wrote."""
    if os.path.exists(out):
        os.remove(out)
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--spawned-at", repr(time.monotonic()), "--out", out, *extra]
    # the child's standard output goes to our standard error, so the last
    # line of our standard output stays the result
    subprocess.run(cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV},
                   stdout=sys.stderr, timeout=timeout, check=True)
    with open(out) as f:
        return json.load(f)


def check_determinism(args, fingerprint: dict) -> bool:
    """Compare with the fingerprint an earlier run of the same code, workload,
    seed and length left in the ledger; the first run records it."""
    key = hashlib.sha256(json.dumps(
        [code_digest(), args.workload, args.seed, args.seconds]).encode()).hexdigest()[:32]
    path = os.path.join(OUT, "determinism", f"{args.workload}-{key}.json")
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f) == fingerprint
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".tmp", "w") as f:
        json.dump(fingerprint, f, sort_keys=True)
    os.replace(path + ".tmp", path)
    return True


def run_workload(args, spec: dict) -> int:
    started = time.monotonic()
    name = f"{args.workload}-seed{args.seed}-s{args.seconds}-trace{args.trace}"
    out = os.path.join(OUT, f"{name}.child.json")
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                left = RUN_DEADLINE_S - (time.monotonic() - started)
                setups.append(spawn(base + ["--setup-only"], out, left)["setup_s"])
        result = spawn(base, out, RUN_DEADLINE_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        return fail(f"{args.workload} did not finish within {RUN_DEADLINE_S:.0f} s")
    except (subprocess.CalledProcessError, OSError, ValueError) as exc:
        return fail(f"{args.workload} did not produce a result: {exc}")
    if "error" in result:
        print(result["error"], file=sys.stderr)
        return fail(f"{args.workload} raised; {result['failed']} of "
                    f"{result['attempted']} operations failed")

    metrics = result["metrics"]
    metrics["setup_s"] = statistics.median(setups + [metrics["setup_s"]])
    attempted, failed = result["attempted"] + 1, result["failed"]
    failures = list(result["failures"])
    if not check_determinism(args, result["fingerprint"]):
        failed += 1
        failures.append("outputs differ from an earlier run with the same seed")
    metrics["failed_ops_ratio"] = failed / attempted

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        return fail(f"{args.workload} did not report {', '.join(missing)}")
    env = {**result["env"], "git_sha": git_sha(), "code_sha256": code_digest()}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_s_samples": setups, "attempted": attempted,
              "failed": failed, "failures": failures, "metrics": metrics,
              "calls": result.get("counts", {}), "fingerprint": result["fingerprint"],
              "env": env}
    with open(os.path.join(OUT, f"{name}.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for key, value in env.items():
        print(f"# env {key}: {value}")
    for key in sorted(metrics):
        calls = result.get("counts", {}).get(key)
        shown = f"{key} = {metrics[key]:.6g} {units.get(key, '')}".rstrip()
        print(shown + (f"  (n={calls})" if calls is not None else ""))
    for failure in failures:
        print(f"FAILED: {failure}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


def run_full() -> int:
    """The default schedule, once per channel; record seconds and host."""
    for kind in ("awgn", "rayleigh"):
        out = os.path.join(OUT, f"full-{kind}.json")
        try:
            result = spawn(["--full", kind], out, FULL_TIMEOUT_S)
        except (subprocess.SubprocessError, OSError, ValueError) as exc:
            return fail(f"full {kind} run failed: {exc}")
        result["env"].update(git_sha=git_sha(), code_sha256=code_digest())
        with open(out, "w") as f:
            json.dump(result, f, indent=1, sort_keys=True)
        print(f"full default schedule, {kind}: {result['seconds']:.1f} s for "
              f"{result['steps']} steps on {result['env']['cpu']} "
              f"({result['env']['nproc']} CPUs, host {result['host']})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="gancomm benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full", action="store_true",
                        help="time the default training schedule once per channel")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gancomm", "__init__.py")):
        return fail(f"no gancomm package under {os.path.join(ROOT, 'src')}")
    if not args.full and args.workload is None:
        parser.error("--workload is required unless --full is given")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    os.makedirs(OUT, exist_ok=True)
    return run_full() if args.full else run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
