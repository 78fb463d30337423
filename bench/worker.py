"""One benchmark process: set a workload up, then time whole rounds.

    python bench/worker.py --workload W --seed S --seconds T --trace 0|1 [--setup-only]

``run.py`` starts it, one process at a time, with ``src/`` on PYTHONPATH.
Set-up is timed from the first import of ``ambizone`` to the end of input
building. One untimed warm-up round follows; then rounds run, with
``gc.collect()`` between them outside the timed interval, until the timed
rounds add up to T seconds of wall time. Outputs are checked after each
round, outside the timed interval. The last stdout line is one JSON object.

Times are CPU seconds (user plus system) of this process and of the
children it has waited for. The hypervisor's steal time counts in wall
time but not in CPU time; with BLAS on one thread and no other threads,
the two are equal when nothing is stolen.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# Fresh CLI processes timed for cli.startup_s in a traced run.
STARTUP_PROBES = 9


def parse_args(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def cpu_seconds() -> float:
    """CPU time of this process and of its children waited for so far."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class Tally:
    """Operations attempted and failed, and whether every checked output was right."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def run_round(self, wl, counted: bool) -> tuple[float, float]:
        """One round: operations timed together, then their outputs checked.

        Returns the round's CPU time and wall time.
        """
        import checks  # not at the top: numpy must load inside the set-up clock

        outputs, errors = {}, []
        wall0, cpu0 = time.perf_counter(), cpu_seconds()
        for op in wl.ops:
            try:
                outputs[op] = wl.run(op)
            except Exception:  # a failed operation is counted, and the round goes on
                errors.append(traceback.format_exc())
        cpu, wall = cpu_seconds() - cpu0, time.perf_counter() - wall0
        for message in errors:
            print(f"operation failed:\n{message}", file=sys.stderr)
        try:
            for op, output in outputs.items():
                wl.check(op, output)
            wl.check_round(outputs)
        except checks.CheckError as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            self.correct = False
        if counted:
            self.attempted += len(wl.ops)
            self.failed += len(errors)
        return cpu, wall


def setup_probe(args) -> float:
    """Set-up time of a fresh process that only sets the workload up."""
    out = subprocess.run([sys.executable, __file__, "--workload", args.workload,
                          "--seed", str(args.seed), "--setup-only"],
                         stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    workdir = str(OUT / f"work-{os.getpid()}")

    t0 = time.process_time()
    import ambizone
    import workloads
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setup_s = time.process_time() - t0

    try:
        origin = Path(ambizone.__file__).resolve()
        if ROOT / "src" not in origin.parents:
            print(f"error: ambizone imported from {origin}, not from {ROOT / 'src'}",
                  file=sys.stderr)
            return 2
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        wl.tracer = tracer
        tally = Tally()
        if tracer:
            tracer.round = 0
        tally.run_round(wl, counted=False)  # warm-up
        times, walls, setups = [], [], [setup_s]
        while not walls or sum(walls) < args.seconds:
            gc.collect()
            if tracer:
                tracer.round = len(times) + 1
            cpu, wall = tally.run_round(wl, counted=True)
            times.append(cpu)
            walls.append(wall)
            if not tracer:
                # Set-up is sampled in fresh processes spread over the run.
                setups.append(setup_probe(args))

        result = {
            "setup_samples_s": setups,
            "round_s": times,
            "round_wall_s": walls,
            "ops_per_round": len(wl.ops),
            "attempted": tally.attempted,
            "failed": tally.failed,
            "correct": tally.correct,
        }
        if tracer:
            # Peak allocations are traced in one more round, apart from the timed ones.
            gc.collect()
            tracer.round, tracer.memory = "memory", True
            tally.run_round(wl, counted=False)
            result["correct"] = tally.correct
            startup = [wl.startup_s() for _ in range(STARTUP_PROBES)] if hasattr(wl, "startup_s") else []
            result["layers"] = tracer.metrics(list(range(1, len(times) + 1)), startup)
            result["absent"] = tracer.absent
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(trace_path, workload=args.workload, seed=args.seed, round_s=times,
                         cli_startup_s=startup, metrics=result["layers"])
            result["trace_file"] = str(trace_path.relative_to(ROOT))
        else:
            result["peak_rss_mb"] = wl.peak_rss_mb()
        print(json.dumps(result))
        return 0
    finally:
        wl.close()


if __name__ == "__main__":
    sys.exit(main())
