"""Correctness checks that do not rely on the program under test.

Each check recomputes what it needs from the stored integer phases with
numpy, or compares an output with a closed form that the constructions
must satisfy. None compares with a saved copy of an earlier output.
A failed check raises ``CheckError``; ``test_checks.py`` shows that every
check fails once one phase of a set is changed.
"""

from __future__ import annotations

import csv
import io
from math import floor, sqrt

import numpy as np

ZERO_FACTOR = 1e-6     # |AF| <= 1e-6 * L counts as zero, as the paper's claims use
EXACT_FACTOR = 1e-9    # two float evaluations of one value agree within 1e-9 * L
SPECTRAL_FACTOR = 1e-9  # a unitary DFT bin agrees within 1e-9 * sqrt(L)


class CheckError(Exception):
    """A program output failed a correctness check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def phase_matrix(sset) -> tuple[np.ndarray, int]:
    """(N, L) integer phases and their root-of-unity order, as stored in the set."""
    return np.array([s.phases for s in sset.sequences], dtype=np.int64), sset.denom


def _unimodular(phases: np.ndarray, denom: int) -> np.ndarray:
    return np.exp(2j * np.pi * (phases % denom) / denom)


def direct_af(phases: np.ndarray, denom: int, n: int, n2: int, tau: int, v: int) -> float:
    """|sum_t a_n(t) conj(a_n2(<t+tau>_L)) w_L^{v t}| by the defining sum."""
    a = _unimodular(phases[n], denom)
    b = _unimodular(phases[n2], denom)
    L = len(a)
    t = np.arange(L)
    return float(abs(np.sum(a * np.conj(np.roll(b, -tau)) * np.exp(2j * np.pi * v * t / L))))


def unitary_dft(phases: np.ndarray, denom: int) -> np.ndarray:
    """Row-wise unitary DFT magnitudes of the sequences."""
    return np.abs(np.fft.fft(_unimodular(phases, denom), axis=1)) / sqrt(phases.shape[1])


# --- certify-zaz -----------------------------------------------------------

def check_claims_hold(cert: dict) -> None:
    require(cert["verdicts"]["claims_hold"] is True,
            f"claims do not hold: verdicts {cert['verdicts']}")


def check_theta_zero(cert: dict, length: int) -> None:
    theta = cert["measured"]["theta_max"]
    require(theta <= ZERO_FACTOR * length,
            f"theta_max {theta!r} exceeds {ZERO_FACTOR} * L over the claimed zone")


def check_zero_points(phases: np.ndarray, denom: int, points) -> None:
    """The direct sum vanishes at in-zone points (n, n2, tau, v) off the auto origin."""
    tol = ZERO_FACTOR * phases.shape[1]
    for n, n2, tau, v in points:
        mag = direct_af(phases, denom, n, n2, tau, v)
        require(mag <= tol, f"|AF_{n},{n2}({tau},{v})| = {mag!r} is not zero")


def zero_bins(mags: np.ndarray) -> np.ndarray:
    """Bins where every sequence's dual vanishes."""
    return np.all(mags <= SPECTRAL_FACTOR * sqrt(mags.shape[1]), axis=0)


def check_spectral_nulls(phases: np.ndarray, denom: int, k: int, n: int, p_off: int,
                         cert: dict) -> None:
    """The shared null set has N^2 (K-1) + N P bins, counted here and in the certificate."""
    expected = n * n * (k - 1) + n * p_off
    counted = int(np.count_nonzero(zero_bins(unitary_dft(phases, denom))))
    require(counted == expected, f"{counted} shared spectral nulls, expected {expected}")
    reported = cert["measured"].get("spectral_null_count")
    require(reported == expected, f"certificate reports {reported} nulls, expected {expected}")


def check_comb_magnitude(phases: np.ndarray, denom: int, k: int, n: int, p_off: int) -> None:
    """Off the shared null set every dual magnitude is sqrt(K + P/N)."""
    mags = unitary_dft(phases, denom)
    support = mags[:, ~zero_bins(mags)]
    expected = sqrt(k + p_off / n)
    worst = float(np.max(np.abs(support - expected))) if support.size else float("inf")
    require(worst <= SPECTRAL_FACTOR * sqrt(phases.shape[1]),
            f"dual magnitude deviates from sqrt(K+P/N) = {expected!r} by {worst!r}")


def closed_form_zaz_ratio(params: dict) -> float:
    """(K/N) floor(N/K) for family A; 1 - P/(N K + P) for family B."""
    n, k = params["N"], params["K"]
    if params["family"] == "a":
        return (k / n) * floor(n / k)
    return 1.0 - params["P"] / (n * k + params["P"])


def check_zaz_ratio(cert: dict, params: dict, length: int, set_size: int) -> None:
    """The zone proved zero has the closed-form area ratio (zone area over L/N).

    A zone whose measured peak is not zero proves no area, so its ratio is 0.
    """
    zone = cert["measured"]["zone"]
    proved = cert["measured"]["theta_max"] <= ZERO_FACTOR * length
    achieved = zone["zx"] * zone["zy"] * set_size / length if proved else 0.0
    expected = closed_form_zaz_ratio(params)
    require(abs(achieved - expected) <= 1e-12,
            f"proved ZAZ ratio {achieved!r}, closed form {expected!r}")
    reported = cert["measured"]["optimality"]["factor"]
    require(abs(reported - expected) <= 1e-12,
            f"certificate ZAZ ratio {reported!r}, closed form {expected!r}")


# --- zone-sweep ------------------------------------------------------------

def check_argmax(phases: np.ndarray, denom: int, stats) -> None:
    """The direct sum reproduces the magnitude at each reported argmax."""
    tol = EXACT_FACTOR * phases.shape[1]
    if stats.argmax_auto is not None:
        n, tau, v = stats.argmax_auto
        mag = direct_af(phases, denom, n, n, tau, v)
        require(abs(mag - stats.theta_auto) <= tol,
                f"auto argmax {stats.argmax_auto}: direct {mag!r}, reported {stats.theta_auto!r}")
    if stats.argmax_cross is not None:
        n, n2, tau, v = stats.argmax_cross
        mag = direct_af(phases, denom, n, n2, tau, v)
        require(abs(mag - stats.theta_cross) <= tol,
                f"cross argmax {stats.argmax_cross}: direct {mag!r}, reported {stats.theta_cross!r}")


def check_claimed_theta(stats, p: int, length: int) -> None:
    """Over family C's claimed zone the peak magnitude is exactly p."""
    require(abs(stats.theta_max - p) <= ZERO_FACTOR * length,
            f"theta_max {stats.theta_max!r} over the claimed zone, expected p = {p}")


def check_nested(stats_by_zone: list, length: int) -> None:
    """Peaks over nested zones (smallest first) never decrease."""
    tol = EXACT_FACTOR * length
    for (z1, s1), (z2, s2) in zip(stats_by_zone, stats_by_zone[1:]):
        for kind in ("theta_auto", "theta_cross"):
            small, big = getattr(s1, kind), getattr(s2, kind)
            require(small <= big + tol, f"{kind} drops from {small!r} over {z1} to {big!r} over {z2}")


# --- cli-roundtrip ---------------------------------------------------------

def check_set_document(doc: dict, phases: np.ndarray, denom: int) -> None:
    """A generated set file holds exactly the phases of the set built in the benchmark."""
    require(doc["denom"] == denom and doc["length"] == phases.shape[1],
            f"header (length {doc['length']}, denom {doc['denom']}) differs")
    require(doc["sequences"] == phases.tolist(), "stored phases differ from the built set")


def check_spectrum_csv(text: str, phases: np.ndarray, denom: int) -> None:
    """Rows cover every (sequence, bin); magnitudes and null flags match our own DFT."""
    mags = unitary_dft(phases, denom)
    nulls = zero_bins(mags)
    rows = list(csv.DictReader(io.StringIO(text)))
    require(len(rows) == mags.size, f"{len(rows)} spectrum rows, expected {mags.size}")
    tol = SPECTRAL_FACTOR * sqrt(phases.shape[1])
    for row in rows:
        n, i = int(row["seq"]), int(row["i"])
        require(abs(float(row["mag"]) - mags[n, i]) <= tol, f"spectrum magnitude at ({n}, {i})")
        if "in_omega" in row:
            require(int(row["in_omega"]) == int(nulls[i]), f"null flag at bin {i}")


def check_af_csv(text: str, phases: np.ndarray, denom: int, n: int, n2: int,
                 taus: range, vs: range) -> None:
    """Every exported surface value matches the direct sum."""
    rows = list(csv.DictReader(io.StringIO(text)))
    require(len(rows) == len(taus) * len(vs), f"{len(rows)} surface rows")
    tol = EXACT_FACTOR * phases.shape[1]
    for row in rows:
        tau, v = int(row["tau"]), int(row["v"])
        mag = direct_af(phases, denom, n, n2, tau, v)
        require(abs(float(row["mag"]) - mag) <= tol, f"|AF({tau},{v})| {row['mag']} != {mag!r}")


def family_c_ratio(p: int) -> float:
    """(1 + 1/(p-1)) sqrt(1 - 1/(p(p-1))), family C's peak over the bound."""
    return (1.0 + 1.0 / (p - 1)) * sqrt(1.0 - 1.0 / (p * (p - 1)))


def check_bounds_report(report: dict, p: int) -> None:
    """Family C meets the bound with the closed-form tightness ratio."""
    require(report["theta_max"] == p, f"bounds report theta {report['theta_max']!r}, expected {p}")
    expected = family_c_ratio(p)
    require(abs(report["factor"] - expected) <= 1e-9,
            f"bounds factor {report['factor']!r}, closed form {expected!r}")
    require(report["verdict"] == "asymptotic", f"bounds verdict {report['verdict']!r}")
