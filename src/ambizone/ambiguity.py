"""Periodic correlation / ambiguity evaluation and delay-Doppler zone scans.

The direct sum over time is the reference implementation. The
frequency-domain path (product of unitary DFT duals) is an optimization
that the test suite cross-validates against the direct path; it is never
the sole witness for a zero claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core import (
    AmbiguitySurface,
    DelayDopplerZone,
    FrequencyDual,
    PhaseSequence,
    SequenceSet,
)

__all__ = [
    "DEFAULT_ZERO_TOL_FACTOR",
    "zero_tolerance",
    "af",
    "cf",
    "dft",
    "af_via_frequency",
    "af_surface",
    "SidelobeStats",
    "sidelobe_stats",
    "verify_zcz",
]

# A magnitude <= DEFAULT_ZERO_TOL_FACTOR * L counts as zero. Direct sums of L
# unit-modulus terms accumulate error on the order of L * machine epsilon,
# while the smallest genuine nonzero magnitudes seen in the constructions
# are >= 1, so 1e-6 * L separates the two regimes by many orders.
DEFAULT_ZERO_TOL_FACTOR = 1e-6


def zero_tolerance(length: int) -> float:
    """Default threshold below which an ambiguity magnitude counts as zero."""
    return DEFAULT_ZERO_TOL_FACTOR * length


RangeLike = Union[range, tuple[int, int], Sequence[int]]


def _check_pair(a: PhaseSequence, b: PhaseSequence) -> int:
    if a.length != b.length:
        raise ValueError(f"length mismatch: {a.length} != {b.length}")
    return a.length


def _as_range(r: RangeLike, L: int, what: str) -> range:
    if isinstance(r, range):
        if r.step != 1:
            raise ValueError(f"{what} must have unit step")
        lo, hi = r.start, r.stop - 1
    else:
        lo, hi = int(r[0]), int(r[1])
    if lo > hi:
        raise ValueError(f"empty {what}: [{lo}, {hi}]")
    if lo <= -L or hi >= L:
        raise ValueError(f"{what} [{lo}, {hi}] exceeds the open interval (-{L}, {L})")
    return range(lo, hi + 1)


def af(a: PhaseSequence, b: PhaseSequence, tau: int, v: int) -> complex:
    """Periodic ambiguity of a and b at integer delay tau and Doppler v.

    Direct evaluation of sum_t a(t) * conj(b(<t+tau>_L)) * w_L^{v t}.
    """
    L = _check_pair(a, b)
    if not -L < tau < L:
        raise ValueError(f"delay {tau} outside (-{L}, {L})")
    if not -L < v < L:
        raise ValueError(f"Doppler {v} outside (-{L}, {L})")
    av = a.evaluate()
    bv = b.evaluate()
    t = np.arange(L)
    return complex(np.sum(av * np.conj(np.roll(bv, -tau)) * np.exp(2j * np.pi * v * t / L)))


def cf(a: PhaseSequence, b: PhaseSequence, tau: int) -> complex:
    """Periodic correlation at delay tau; the zero-Doppler ambiguity value."""
    return af(a, b, tau, 0)


def dft(a: PhaseSequence) -> FrequencyDual:
    """Frequency-domain dual d(i) = (1/sqrt(L)) * sum_t a(t) * w_L^{-i t}.

    The 1/sqrt(L) normalization makes the transform unitary, so the dual
    carries the same total energy L as the unimodular time sequence.
    """
    vals = a.evaluate()
    return FrequencyDual(np.fft.fft(vals) / np.sqrt(a.length))


def af_via_frequency(a: PhaseSequence, b: PhaseSequence, tau: int, v: int) -> complex:
    """Ambiguity from the frequency-domain duals.

    With c, d the duals of a, b, the identity

        AF(tau, v) = sum_i c(i) * conj(d(<i+v>_L)) * w_L^{-(i+v) tau}

    reproduces the direct sum exactly (a Doppler shift in time is a cyclic
    shift of the dual). Useful as a fast path: after the duals are computed
    once, each fixed v yields all tau through a single transform.
    """
    L = _check_pair(a, b)
    if not -L < tau < L:
        raise ValueError(f"delay {tau} outside (-{L}, {L})")
    if not -L < v < L:
        raise ValueError(f"Doppler {v} outside (-{L}, {L})")
    c = dft(a).values
    d = dft(b).values
    i = np.arange(L)
    return complex(np.sum(c * np.conj(np.roll(d, -v)) * np.exp(-2j * np.pi * (i + v) * tau / L)))


def _lag_rows(x: np.ndarray, start: int, n: int) -> np.ndarray:
    """(n, L) array whose row j is t -> x(<start + j + t>_L)."""
    L = len(x)
    window = x[np.arange(start, start + n + L - 1) % L]
    return window[np.add.outer(np.arange(n), np.arange(L))]


def af_surface(
    a: PhaseSequence,
    b: PhaseSequence,
    tau_range: RangeLike,
    v_range: RangeLike,
    method: str = "direct",
    source: tuple[str, str] = ("a", "b"),
) -> AmbiguitySurface:
    """Ambiguity values on the inclusive grid tau_range x v_range.

    ``method="direct"`` evaluates the defining sum as matrix products of the
    lag products a(t) * conj(b(<t+tau>_L)), one row per delay, by the
    (L, n_v) Doppler matrix w_L^{t v}; ``method="fft"`` uses the
    dual-product identity, one FFT per Doppler row. The phases t*v and
    v*tau are reduced modulo L in integers and looked up in one table of
    L-th roots of unity. Rows go in blocks of at most max(width, 64), where
    width is the length of the other axis, so a full grid needs little more
    transient memory than the Doppler matrix.
    """
    L = _check_pair(a, b)
    taus = _as_range(tau_range, L, "delay range")
    vs = _as_range(v_range, L, "Doppler range")
    n_tau, n_v = len(taus), len(vs)
    v_arr = np.arange(vs.start, vs.stop)
    roots = np.exp(2j * np.pi * np.arange(L) / L)
    values = np.empty((n_tau, n_v), dtype=np.complex128)

    if method == "direct":
        av = a.evaluate()
        conj_b = np.conj(b.evaluate())
        k = np.multiply.outer(np.arange(L), v_arr)
        k %= L
        w = roots[k]  # (L, n_v): w_L^{t v}
        del k
        step = max(n_v, 64)
        for lo in range(0, n_tau, step):
            rows = _lag_rows(conj_b, taus.start + lo, min(step, n_tau - lo))
            np.matmul(rows * av, w, out=values[lo:lo + step])
    elif method == "fft":
        c = dft(a).values
        conj_d = np.conj(dft(b).values)
        tau_idx = np.arange(taus.start, taus.stop) % L
        step = max(n_tau, 64)
        for lo in range(0, n_v, step):
            # row v: the FFT of c(i) * conj(d(<i+v>_L)) holds every tau = 0..L-1
            rows = _lag_rows(conj_d, vs.start + lo, min(step, n_v - lo))
            by_tau = np.fft.fft(rows * c, axis=1)[:, tau_idx]
            k = np.multiply.outer(v_arr[lo:lo + step], -tau_idx)
            k %= L
            values[:, lo:lo + step] = (by_tau * roots[k]).T
    else:
        raise ValueError(f"unknown method {method!r} (expected 'direct' or 'fft')")

    return AmbiguitySurface(taus, vs, values, source)


@dataclass(frozen=True)
class SidelobeStats:
    """Maximum ambiguity magnitudes of a set over a delay-Doppler zone.

    ``argmax_auto`` is (n, tau, v); ``argmax_cross`` is (n, n2, tau, v).
    Locations come from the scanned half-plane tau >= 0; the mirrored
    points carry the same magnitude.
    """

    theta_auto: float
    theta_cross: float
    argmax_auto: Optional[tuple[int, int, int]]
    argmax_cross: Optional[tuple[int, int, int, int]]

    @property
    def theta_max(self) -> float:
        return max(self.theta_auto, self.theta_cross)

    @property
    def argmax_location(self) -> Optional[tuple]:
        """("auto", n, tau, v) or ("cross", n, n2, tau, v) of the global max."""
        if self.theta_cross > self.theta_auto:
            return ("cross",) + self.argmax_cross if self.argmax_cross else None
        return ("auto",) + self.argmax_auto if self.argmax_auto else None


def sidelobe_stats(
    sset: SequenceSet, zone: DelayDopplerZone, method: str = "direct"
) -> SidelobeStats:
    """Maximum auto sidelobe and cross magnitude of the set over the zone.

    Scans delays tau in [0, zx) only: |AF_{a,b}(-tau, v)| equals
    |AF_{b,a}(tau, -v)|, so with all ordered pairs and the full symmetric
    Doppler range the half-plane covers the whole open rectangle.
    """
    L = sset.length
    if not (1 <= zone.zx <= L and 1 <= zone.zy <= L):
        raise ValueError(f"zone {zone} does not fit sequences of length {L}")
    v_span = (-zone.zy + 1, zone.zy - 1)
    tau_span = (0, zone.zx - 1)

    theta_a = 0.0
    arg_a: Optional[tuple[int, int, int]] = None
    for n, s in enumerate(sset.sequences):
        surf = af_surface(s, s, tau_span, v_span, method=method)
        located = surf.argmax(exclude_origin=True)
        if located is None:
            continue
        tau, v, mag = located
        if arg_a is None or mag > theta_a:
            theta_a, arg_a = mag, (n, tau, v)

    theta_c = 0.0
    arg_c: Optional[tuple[int, int, int, int]] = None
    for n, s in enumerate(sset.sequences):
        for n2, s2 in enumerate(sset.sequences):
            if n2 == n:
                continue
            surf = af_surface(s, s2, tau_span, v_span, method=method)
            tau, v, mag = surf.argmax()
            if arg_c is None or mag > theta_c:
                theta_c, arg_c = mag, (n, n2, tau, v)
    return SidelobeStats(theta_a, theta_c, arg_a, arg_c)


def verify_zcz(sset: SequenceSet, z: int, tol: Optional[float] = None) -> bool:
    """Whether the set has a zero correlation zone of width z.

    Checks the three-branch condition: peak L at (n, n, 0), zero for
    0 < |tau| < z on every autocorrelation, zero for |tau| < z on every
    cross-correlation, all within tol (default ``zero_tolerance(L)``). Each
    delay takes one (N, L) x (L, N) product of the values matrix.
    """
    L = sset.length
    if not 1 <= z <= L:
        raise ValueError(f"zone width {z} outside [1, {L}]")
    if tol is None:
        tol = zero_tolerance(L)
    values = sset.values_matrix()
    for tau in range(-z + 1, z):
        # corr[n, n2] = cf(s_n, s_n2, tau) for every ordered pair at once
        corr = np.abs(values @ np.conj(np.roll(values, -tau, axis=1)).T)
        if tau == 0:
            if np.any(np.abs(np.diagonal(corr) - L) > tol):
                return False
            np.fill_diagonal(corr, 0.0)
        if np.any(corr > tol):
            return False
    return True
