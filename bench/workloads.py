"""The benchmark's workloads: inputs made from a seed, operations, checks.

A workload builds its inputs once (``__init__``, timed as set-up), then
runs whole rounds. A round is one pass over ``ops``, a fixed list whose
order the seed sets. ``run`` performs one operation and is timed; ``check``
and ``check_round`` verify outputs outside the timed interval.

The seed picks the primitive element alpha of family C and the power-map
exponent sigma of family A among the valid choices; sizes never depend on
it, so every seed does the same amount of work.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import subprocess
import sys
from math import gcd

import ambizone

import checks


class OperationFailed(Exception):
    """An operation did not complete (for the CLI: a nonzero exit code)."""


def primitive_roots(p: int) -> list[int]:
    """Generators of the multiplicative group mod the prime p."""
    factors = [q for q in range(2, p) if (p - 1) % q == 0 and all(q % r for r in range(2, q))]
    return [g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors)]


def power_exponents(n: int) -> list[int]:
    """Exponents a with x -> x^a a non-affine permutation of Z_n (n an odd prime)."""
    return [a for a in range(2, n) if gcd(a, n - 1) == 1]


def zone_points(rng: random.Random, size: int, zx: int, zy: int) -> list[tuple]:
    """One in-zone point (n, n2, tau, v) per sequence n, never the auto origin.

    Every sequence appears in some point, so a change to any of its phases
    changes one of the direct sums that should vanish.
    """
    points = []
    for n in range(size):
        n2 = rng.randrange(size)
        while True:
            tau, v = rng.randrange(-zx + 1, zx), rng.randrange(-zy + 1, zy)
            if n2 != n or (tau, v) != (0, 0):
                break
        points.append((n, n2, tau, v))
    return points


class Workload:
    """Defaults for workloads without cross-operation checks or files."""

    tracer = None

    def peak_rss_mb(self) -> float:
        """Peak resident memory of this process."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def check_round(self, outputs: dict) -> None:
        pass

    def close(self) -> None:
        pass


class CertifyZaz(Workload):
    """certify() on four zero-ambiguity-zone sets of families A and B."""

    name = "certify-zaz"

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        sigma = ambizone.power_permutation(13, rng.choice(power_exponents(13)))
        params = [
            {"family": "a", "M": 1, "N": 13, "K": 1},
            {"family": "a", "M": 2, "N": 13, "K": 3},
            {"family": "b", "K": 4, "N": 13, "P": 1},
            {"family": "b", "K": 8, "N": 7, "P": 1},
        ]
        self.cases = []
        for prm in params:
            if prm["family"] == "a":
                sset = ambizone.construct_a(prm["M"], prm["N"], prm["K"], sigma)
                zx, zy = prm["N"] // prm["K"], prm["K"]
            else:
                sset = ambizone.construct_b(prm["K"], prm["N"], prm["P"])
                zx, zy = prm["N"], prm["K"]
            self.cases.append((prm, sset, zone_points(rng, sset.size, zx, zy)))
        self.ops = list(range(len(self.cases)))
        rng.shuffle(self.ops)

    def run(self, op):
        return ambizone.certify(self.cases[op][1])

    def check(self, op, cert) -> None:
        prm, sset, points = self.cases[op]
        phases, denom = checks.phase_matrix(sset)
        checks.check_claims_hold(cert)
        checks.check_theta_zero(cert, sset.length)
        checks.check_zero_points(phases, denom, points)
        checks.check_zaz_ratio(cert, prm, sset.length, sset.size)
        if prm["family"] == "b":
            checks.check_spectral_nulls(phases, denom, prm["K"], prm["N"], prm["P"], cert)
            checks.check_comb_magnitude(phases, denom, prm["K"], prm["N"], prm["P"])


class ZoneSweep(Workload):
    """sidelobe_stats() alone on family C over nested and claimed zones."""

    name = "zone-sweep"
    # (p, zone); the C(17) zones are nested, smallest first.
    SCANS = ((17, (4, 17)), (17, (8, 17)), (17, (16, 17)), (17, (16, 34)), (23, (22, 23)))

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.sets = {
            p: ambizone.construct_c(p, ambizone.exp_mapping(p, rng.choice(primitive_roots(p))))
            for p in (17, 23)
        }
        self.zones = [ambizone.DelayDopplerZone(*zone) for _, zone in self.SCANS]
        self.ops = list(range(len(self.SCANS)))
        rng.shuffle(self.ops)

    def run(self, op):
        return ambizone.sidelobe_stats(self.sets[self.SCANS[op][0]], self.zones[op])

    def check(self, op, stats) -> None:
        p, (zx, zy) = self.SCANS[op]
        sset = self.sets[p]
        checks.check_argmax(*checks.phase_matrix(sset), stats)
        if (zx, zy) == (p - 1, p):
            checks.check_claimed_theta(stats, p, sset.length)

    def check_round(self, outputs: dict) -> None:
        nested = [(self.SCANS[op][1], outputs[op]) for op in range(4) if op in outputs]
        checks.check_nested(nested, self.sets[17].length)


class CliRoundtrip(Workload):
    """One CLI process at a time: gen to a file, then verify, spectrum, bounds and af."""

    name = "cli-roundtrip"
    AF_WINDOW = (range(-3, 4), range(-3, 4))

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        sigma_exp = rng.choice(power_exponents(13))
        alpha = rng.choice(primitive_roots(11))
        self.af_pair = (rng.randrange(11), rng.randrange(11))
        self.sets = {
            "b": ambizone.construct_b(2, 7, 1),
            "a": ambizone.construct_a(1, 13, 3, ambizone.power_permutation(13, sigma_exp)),
            "c": ambizone.construct_c(11, ambizone.exp_mapping(11, alpha)),
        }
        self.dir = workdir
        os.makedirs(workdir, exist_ok=True)
        f = self.path
        gens = [
            ("gen", "b", ["gen", "b", "--K", "2", "--N", "7", "--P", "1", "-o", f("b.json")]),
            ("gen", "a", ["gen", "a", "--M", "1", "--N", "13", "--K", "3",
                          "--sigma-exp", str(sigma_exp), "-o", f("a.json")]),
            ("gen", "c", ["gen", "c", "--p", "11", "--alpha", str(alpha), "-o", f("c.json")]),
        ]
        (tlo, thi), (vlo, vhi) = [(r[0], r[-1]) for r in self.AF_WINDOW]
        n, n2 = self.af_pair
        uses = [(("verify", s, ["verify", f(f"{s}.json"), "-o", f(f"{s}.cert.json")]))
                for s in "bac"]
        uses += [
            ("spectrum", "b", ["spectrum", f("b.json"), "-o", f("b.spectrum.csv")]),
            ("bounds", "c", ["bounds", f("c.json"), "--format", "json", "-o", f("c.bounds.json")]),
            ("af", "c", ["af", f("c.json"), "--seq", str(n), "--seq2", str(n2),
                         "--tau-range", str(tlo), str(thi), "--v-range", str(vlo), str(vhi),
                         "-o", f("c.af.csv")]),
        ]
        rng.shuffle(gens)
        rng.shuffle(uses)
        # Every gen precedes the commands that read its file.
        self.commands = gens + uses
        self.ops = list(range(len(self.commands)))
        self.child_rss_kb = 0

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the largest CLI process."""
        return self.child_rss_kb / 1024

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def run(self, op):
        command, _, argv = self.commands[op]
        if self.tracer is not None:
            # Traced runs call the CLI in-process, so its layers can be split.
            from ambizone import cli
            with self.tracer.span(f"cli.{command}"):
                code = cli.main(argv)
        else:
            proc = subprocess.Popen([sys.executable, "-m", "ambizone.cli", *argv],
                                    stdin=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            code = proc.returncode = os.waitstatus_to_exitcode(status)
            self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        if code != 0:
            raise OperationFailed(f"ambizone {' '.join(argv)} exited {code}")
        if command == "gen" and self.tracer is not None:
            self.tracer.count("core.set_file_bytes", os.path.getsize(argv[-1]))
        return code

    def read(self, name: str) -> str:
        with open(self.path(name), encoding="utf-8") as fh:
            return fh.read()

    def check(self, op, code) -> None:
        command, s, _ = self.commands[op]
        phases, denom = checks.phase_matrix(self.sets[s])
        if command == "gen":
            checks.check_set_document(json.loads(self.read(f"{s}.json")), phases, denom)
        elif command == "verify":
            checks.check_claims_hold(json.loads(self.read(f"{s}.cert.json")))
        elif command == "spectrum":
            checks.check_spectrum_csv(self.read("b.spectrum.csv"), phases, denom)
        elif command == "bounds":
            checks.check_bounds_report(json.loads(self.read("c.bounds.json")), 11)
        else:
            checks.check_af_csv(self.read("c.af.csv"), phases, denom, *self.af_pair,
                                *self.AF_WINDOW)

    def startup_s(self) -> float:
        """CPU time of a fresh CLI process that only parses its arguments."""
        proc = subprocess.Popen([sys.executable, "-m", "ambizone.cli", "--help"],
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        if os.waitstatus_to_exitcode(status) != 0:
            raise OperationFailed(f"ambizone --help exited {status}")
        proc.returncode = 0
        return usage.ru_utime + usage.ru_stime

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (CertifyZaz, ZoneSweep, CliRoundtrip)}
