"""Whole-set certifications: spectral nulls, cyclic distinctness, certificates.

The spectral checks verify the comb structure of family B (shared null set,
flat magnitude on the common support) on one batched DFT of the set; the
distinctness check proves no set member is a phase-rotated cyclic shift of
another, in exact integer arithmetic and O(N*L) time, by keying each
member's phase-difference sequence with its least rotation; ``certify``
bundles everything into one JSON-able certificate.
It is the only builder of certificates: claims, closed-form ratio and
null set come from the family table ``constructions.FAMILIES``.
"""

from __future__ import annotations

from math import sqrt
from typing import Optional

import numpy as np

from . import bounds
from .ambiguity import sidelobe_stats, verify_zcz, zero_tolerance
from .constructions import SpectralNullSet, lookup, omega_for_b
from .core import DelayDopplerZone, SequenceSet, cyclic_shift_ratio

__all__ = [
    "SpectralNullSet",
    "spectral_tolerance",
    "omega_for_b",
    "verify_spectral_null",
    "verify_comb_magnitude",
    "verify_cyclically_distinct",
    "certify",
]


def spectral_tolerance(length: int) -> float:
    """Default per-bin spectral tolerance; unitary DFT error scales with sqrt(L)."""
    return 1e-9 * sqrt(length)


def verify_spectral_null(
    sset: SequenceSet, omega: SpectralNullSet, tol: Optional[float] = None
) -> bool:
    """Whether the set's total spectral energy vanishes on every index of omega."""
    if omega.length != sset.length:
        raise ValueError(
            f"length mismatch: null set for length {omega.length}, set has {sset.length}"
        )
    if not omega.forbidden:
        return True
    if tol is None:
        tol = spectral_tolerance(sset.length)
    total = np.sum(np.abs(sset.duals()) ** 2, axis=0)
    return bool(np.all(total[list(omega.forbidden)] <= tol))


def verify_comb_magnitude(
    sset: SequenceSet, k: int, n: int, p_off: int, tol: Optional[float] = None
) -> bool:
    """Whether every bin outside the null set has magnitude sqrt(K + P/N).

    Only meaningful for family-B provenance: each dual is supported on the
    same N^2 bins (the complement of the null set) and is flat there.
    """
    if sset.provenance.get("family") != "b":
        raise ValueError(
            f"comb magnitude applies to family 'b' sets, got {sset.provenance.get('family')!r}"
        )
    if tol is None:
        tol = spectral_tolerance(sset.length)
    omega = omega_for_b(k, n, p_off)
    if omega.length != sset.length:
        raise ValueError("parameters do not match the set length")
    keep = np.ones(sset.length, dtype=bool)
    keep[list(omega.forbidden)] = False
    mags = np.abs(sset.duals()[:, keep])
    return bool(np.all(np.abs(mags - sqrt(k + p_off / n)) <= tol))


def _least_rotation(s: list) -> int:
    """Offset r whose rotation s[r:] + s[:r] is lexicographically least.

    Booth's O(L) algorithm (K. S. Booth, "Lexicographically least circular
    substrings", Inf. Process. Lett. 10(4), 1980) on the doubled string.
    """
    ss = s + s
    fail = [-1] * len(ss)
    k = 0
    for j in range(1, len(ss)):
        c = ss[j]
        i = fail[j - k - 1]
        while i != -1 and c != ss[k + i + 1]:
            if c < ss[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if i == -1 and c != ss[k]:
            if c < ss[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k % len(s)


def verify_cyclically_distinct(
    sset: SequenceSet,
) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Whether no member is a constant-phase cyclic shift of another.

    Exact integer arithmetic on the difference sequences
    delta(t) = a(<t+1>_L) - a(t) mod D: a(t) = b(<t+tau>_L) * w_D^c for some
    c if and only if delta_a(t) = delta_b(<t+tau>_L) for all t. Each delta is
    keyed by its least rotation, starting at offset r, so equivalent members
    share a key and the check costs O(N*L) time and memory.

    Returns (True, None) or (False, (i, j, tau)) with
    sequences[i](t) = sequences[j](<t+tau>) * w_D^c: i is the smallest index
    with an equivalent partner, j the next member of its key, and tau the
    smallest matching shift, (r_j - r_i) mod P for P the smallest period of
    the key. The witness is confirmed with ``cyclic_shift_ratio``.
    """
    phases = np.array([s.phases for s in sset.sequences], dtype=np.int64)
    deltas = ((np.roll(phases, -1, axis=1) - phases) % sset.denom).tolist()
    offsets, buckets = [], {}
    for n, delta in enumerate(deltas):
        r = _least_rotation(delta)
        offsets.append(r)
        buckets.setdefault(tuple(delta[r:] + delta[:r]), []).append(n)
    colliding = [(members[:2], key) for key, members in buckets.items() if len(members) > 1]
    if not colliding:
        return True, None
    (i, j), key = min(colliding)
    L = len(key)
    period = next(p for p in range(1, L + 1) if L % p == 0 and key[p:] == key[:L - p])
    tau = (offsets[j] - offsets[i]) % period
    if cyclic_shift_ratio(sset.sequences[i], sset.sequences[j], tau) is None:
        raise RuntimeError(f"distinctness witness {(i, j, tau)} is not an equivalence")
    return False, (i, j, tau)


def certify(
    sset: SequenceSet,
    zone: Optional[DelayDopplerZone] = None,
    tol: Optional[float] = None,
    spectral_tol: Optional[float] = None,
    zcz: Optional[int] = None,
) -> dict:
    """Measure a set against the claims implied by its provenance.

    Returns a certificate dict with keys ``claims``, ``measured``,
    ``verdicts``, ``tolerances``, ``witnesses``. For externally loaded sets
    (no construction claims) an explicit ``zone`` or ``zcz`` is required and
    the certificate carries measurements only. ``zcz`` checks a ZCZ of that
    width in place of any claimed one; with no zone it is the whole check.
    """
    prov = sset.provenance
    family = lookup(prov)
    args = family.args(prov) if family else ()
    claims = family.claims(prov) if family else {}
    if tol is None:
        tol = zero_tolerance(sset.length)

    claimed_zone = DelayDopplerZone(**claims["zone"]) if claims else None
    scan_zone = zone or claimed_zone
    if scan_zone is None and zcz is None:
        raise ValueError("set carries no construction claims; pass a zone or a ZCZ width")

    measured: dict = {}
    witnesses: list[dict] = []
    verdicts: dict = {}
    tolerances = {"ambiguity_zero": tol}

    if scan_zone is not None:
        if spectral_tol is None:
            spectral_tol = spectral_tolerance(sset.length)
        tolerances["spectral"] = spectral_tol
        stats = sidelobe_stats(sset, scan_zone)
        distinct, distinct_witness = verify_cyclically_distinct(sset)
        measured.update(
            zone={"zx": scan_zone.zx, "zy": scan_zone.zy},
            theta_auto=stats.theta_auto,
            theta_cross=stats.theta_cross,
            theta_max=stats.theta_max,
            argmax=list(stats.argmax_location) if stats.argmax_location else None,
            cyclically_distinct=distinct,
        )

        if scan_zone == claimed_zone:
            ok = abs(stats.theta_max - claims["theta_max"]) <= tol
            verdicts["zone_claim"] = ok
            if not ok and stats.argmax_location:
                witnesses.append(
                    {
                        "kind": "ambiguity_peak",
                        "location": list(stats.argmax_location),
                        "magnitude": stats.theta_max,
                    }
                )

        if "cyclically_distinct" in claims:
            verdicts["cyclically_distinct"] = distinct
            if not distinct:
                witnesses.append(
                    {"kind": "cyclic_equivalence", "pair_and_shift": list(distinct_witness)}
                )

        if family is not None and family.null_set is not None:
            omega = family.null_set(*args)
            verdicts["spectral_null"] = verify_spectral_null(sset, omega, spectral_tol)
            verdicts["comb_magnitude"] = verify_comb_magnitude(sset, *args, spectral_tol)
            measured["spectral_null_count"] = omega.size

        report = bounds.optimality_report(
            sset.length, sset.size, scan_zone.zx, scan_zone.zy, stats.theta_max,
            family_factor=family.ratio(*args) if family else None,
            zero_tol=tol,
        )
        measured["optimality"] = report.to_dict()

    zcz_width = claims.get("zcz_width") if zcz is None else zcz
    if zcz is not None:
        measured["zcz_width_checked"] = zcz
    if zcz_width is not None:
        verdicts["zcz"] = verify_zcz(sset, zcz_width, tol)
    if "zcz_width" in claims:
        verdicts["tfm_optimal"] = bounds.tfm_optimal(
            sset.length, sset.size, claims["zcz_width"]
        )

    verdicts["claims_hold"] = all(v for v in verdicts.values())
    return {
        "claims": claims,
        "measured": measured,
        "verdicts": verdicts,
        "tolerances": tolerances,
        "witnesses": witnesses,
    }
