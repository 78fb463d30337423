"""Spans and counts at the package's layer boundaries, for traced runs.

``Tracer.install`` replaces each hooked function with a wrapper under every
name the package binds it to (``ambizone.sidelobe_stats``,
``ambizone.analysis.sidelobe_stats`` and ``ambizone.ambiguity.sidelobe_stats``
are one function), so calls made inside the package reach the wrapper too.
A function that no longer exists is listed in ``absent`` and the metrics
that need it are left out. Spans stay in memory until ``write``; their
times are this process's CPU seconds, like the rounds' times.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager

# (span or counter name, owner, attribute, kind); "span" records the call's
# interval, "count" only counts calls.
HOOKS = (
    ("constructions.construct", "ambizone.constructions", "construct_a", "span"),
    ("constructions.construct", "ambizone.constructions", "construct_b", "span"),
    ("constructions.construct", "ambizone.constructions", "construct_c", "span"),
    ("core.evaluate", "ambizone.core:PhaseSequence", "evaluate", "count"),
    ("core.save_set", "ambizone.core", "save_set", "span"),
    ("core.load_set", "ambizone.core", "load_set", "span"),
    ("ambiguity.sidelobe_stats", "ambizone.ambiguity", "sidelobe_stats", "span"),
    ("ambiguity.af_surface", "ambizone.ambiguity", "af_surface", "count"),
    ("ambiguity.verify_zcz", "ambizone.ambiguity", "verify_zcz", "span"),
    ("ambiguity.cf", "ambizone.ambiguity", "cf", "count"),
    ("ambiguity.dft", "ambizone.ambiguity", "dft", "count"),
    ("analysis.certify", "ambizone.analysis", "certify", "span"),
    ("analysis.cyclically_distinct", "ambizone.analysis", "verify_cyclically_distinct", "span"),
    ("analysis.spectral", "ambizone.analysis", "verify_spectral_null", "span"),
    ("analysis.spectral", "ambizone.analysis", "verify_comb_magnitude", "span"),
    ("bounds.optimality_report", "ambizone.bounds", "optimality_report", "span"),
)

# Work a call does, counted from its inputs: grid points scanned by
# sidelobe_stats, pair-shift tests of the distinctness check.
WORK = {
    "ambiguity.sidelobe_stats":
        lambda sset, zone, *_, **__: sset.size ** 2 * zone.zx * (2 * zone.zy - 1),
    "analysis.cyclically_distinct":
        lambda sset, *_, **__: sset.size * (sset.size - 1) // 2 * sset.length,
}

# Spans whose peak traced allocation is taken in the memory round.
PEAK = ("ambiguity.sidelobe_stats", "analysis.cyclically_distinct")

CLI_COMMANDS = ("gen", "verify", "spectrum", "bounds", "af")


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(obj, cls, None) if cls else obj


class Tracer:
    """Spans (name, start, end, parent, round) and per-round call counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict = {}
        self.peaks: dict = {}
        self.absent: list[str] = []
        self.round = "setup"
        self.memory = False
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, work=None):
        record = {"name": name, "round": self.round, "work": work,
                  "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.process_time()
        try:
            yield
        finally:
            record["end"] = time.process_time()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        per_round = self.counts.setdefault(self.round, {})
        per_round[name] = per_round.get(name, 0) + n

    def _wrap(self, fn, name: str, kind: str):
        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.count(name)
                return fn(*args, **kwargs)
            return counted

        work = WORK.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            measure = self.memory and name in PEAK and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            try:
                with self.span(name, work(*args, **kwargs) if work else None):
                    return fn(*args, **kwargs)
            finally:
                if measure:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peaks[name] = max(self.peaks.get(name, 0), peak)
        return spanned

    def install(self) -> None:
        """Wrap every hooked function under each name the package gives it."""
        for name, owner_path, attr, kind in HOOKS:
            owner = _resolve(owner_path)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(f"{owner_path}.{attr}".replace(":", "."))
                continue
            wrapper = self._wrap(fn, name, kind)
            setattr(owner, attr, wrapper)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "ambizone" or mod_name.startswith("ambizone."):
                    for key in [k for k, v in vars(mod).items() if v is fn]:
                        setattr(mod, key, wrapper)

    def _missing(self, hook: str) -> bool:
        return any(f"{o}.{a}".replace(":", ".") in self.absent
                   for n, o, a, _ in HOOKS if n == hook)

    def metrics(self, rounds: list, startup: list) -> dict:
        """Per-layer metrics: medians over the timed rounds of per-round values.

        A layer the workload never calls reads 0. Metrics whose function is
        gone are left out.
        """
        def busy(name, rnd):
            return sum(s["end"] - s["start"] for s in self.spans
                       if s["name"] == name and s["round"] == rnd)

        def work(name, rnd):
            return sum(s["work"] for s in self.spans if s["name"] == name and s["round"] == rnd)

        def median(per_round):
            return statistics.median(per_round(r) for r in rounds)

        def seconds(name):
            return median(lambda r: busy(name, r))

        def calls(name):
            return statistics.median_low(self.counts.get(r, {}).get(name, 0) for r in rounds)

        def rate(name):
            return median(lambda r: work(name, r) / busy(name, r) if busy(name, r) else 0.0)

        def self_time(name, rnd):
            own = {i for i, s in enumerate(self.spans) if s["name"] == name and s["round"] == rnd}
            children = sum(s["end"] - s["start"] for s in self.spans if s["parent"] in own)
            return busy(name, rnd) - children

        def peak_mb(name):
            return self.peaks.get(name, 0) / 2 ** 20

        table = [
            ("constructions.construct_s", "s", "constructions.construct",
             lambda: busy("constructions.construct", "setup") + seconds("constructions.construct")),
            ("core.evaluate_calls", "count", "core.evaluate", lambda: calls("core.evaluate")),
            ("core.save_set_s", "s", "core.save_set", lambda: seconds("core.save_set")),
            ("core.load_set_s", "s", "core.load_set", lambda: seconds("core.load_set")),
            ("core.set_file_bytes", "bytes", None, lambda: calls("core.set_file_bytes")),
            ("ambiguity.sidelobe_stats_s", "s", "ambiguity.sidelobe_stats",
             lambda: seconds("ambiguity.sidelobe_stats")),
            ("ambiguity.af_surface_calls", "count", "ambiguity.af_surface",
             lambda: calls("ambiguity.af_surface")),
            ("ambiguity.grid_points_per_s", "1/s", "ambiguity.sidelobe_stats",
             lambda: rate("ambiguity.sidelobe_stats")),
            ("ambiguity.sidelobe_stats_peak_mb", "MB", "ambiguity.sidelobe_stats",
             lambda: peak_mb("ambiguity.sidelobe_stats")),
            ("ambiguity.verify_zcz_s", "s", "ambiguity.verify_zcz",
             lambda: seconds("ambiguity.verify_zcz")),
            ("ambiguity.cf_calls", "count", "ambiguity.cf", lambda: calls("ambiguity.cf")),
            ("ambiguity.dft_calls", "count", "ambiguity.dft", lambda: calls("ambiguity.dft")),
            ("analysis.certify_self_s", "s", "analysis.certify",
             lambda: median(lambda r: self_time("analysis.certify", r))),
            ("analysis.cyclically_distinct_s", "s", "analysis.cyclically_distinct",
             lambda: seconds("analysis.cyclically_distinct")),
            ("analysis.distinct_shift_tests_per_s", "1/s", "analysis.cyclically_distinct",
             lambda: rate("analysis.cyclically_distinct")),
            ("analysis.cyclically_distinct_peak_mb", "MB", "analysis.cyclically_distinct",
             lambda: peak_mb("analysis.cyclically_distinct")),
            ("analysis.spectral_s", "s", "analysis.spectral", lambda: seconds("analysis.spectral")),
            ("bounds.optimality_report_s", "s", "bounds.optimality_report",
             lambda: seconds("bounds.optimality_report")),
            ("cli.startup_s", "s", None, lambda: statistics.median(startup) if startup else 0.0),
        ]
        table += [(f"cli.{c}_s", "s", None, functools.partial(seconds, f"cli.{c}"))
                  for c in CLI_COMMANDS]
        return {name: {"value": value(), "unit": unit}
                for name, unit, hook, value in table
                if hook is None or not self._missing(hook)}

    def write(self, path, **extra) -> None:
        doc = dict(extra, absent=self.absent, peaks=self.peaks,
                   counts={str(k): v for k, v in self.counts.items()}, spans=self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
