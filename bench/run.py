"""Benchmark entry point.

    python3 bench/run.py --workload {certify-zaz,zone-sweep,cli-roundtrip} \\
        --seed N --seconds T --trace {0,1}

Run from a checkout of the repository; the package is imported from its
``src/`` (nothing needs installing). With ``--trace 0`` the last stdout
line reports the end-to-end metrics: round_s, ops_per_s, peak_rss_mb and
setup_s. With ``--trace 1`` it reports the per-layer metrics of a traced
run and writes the spans to ``bench/out/``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("certify-zaz", "zone-sweep", "cli-roundtrip")
DEADLINE_S = 170


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def worker_env() -> dict:
    """Import the package from src/, with single-threaded BLAS.

    The products the package hands to BLAS are small (one row against an
    L x n_v matrix); with two threads OpenBLAS busy-waits a second core and
    the rounds get slower and noisier, not faster.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start(cmd: list, env: dict, deadline: float) -> str:
    """Run one child in its own process group and return its stdout; the group
    is killed if it outlives the deadline."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:3])} ... exited {proc.returncode}")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ambizone" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/ambizone; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = worker_env()
    try:
        # Compile bytecode first, so that no timed import pays for it.
        start([sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(BENCH)],
              env, deadline)
        out = start([sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace)], env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    res = json.loads(out.strip().splitlines()[-1])

    if args.trace:
        metrics = res["layers"]
        if res["absent"]:
            print(f"absent (function gone, metric left out): {', '.join(res['absent'])}")
        print(f"traced rounds: {len(res['round_s'])}, median round "
              f"{statistics.median(res['round_s']):.4f} s; spans in {res['trace_file']}")
    else:
        setups = res["setup_samples_s"]
        rounds = res["round_s"]
        metrics = {
            "round_s": {"value": statistics.median(rounds), "unit": "s"},
            "ops_per_s": {"value": statistics.median(res["ops_per_round"] / t for t in rounds),
                          "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
        print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds of "
              f"{res['ops_per_round']} operations; set-up samples {len(setups)}; "
              f"median round wall time {statistics.median(res['round_wall_s']):.4f} s")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
