"""Whole-set certifications: spectral nulls, cyclic distinctness, certificates.

The spectral checks verify the comb structure of family B (shared null set,
flat magnitude on the common support); the distinctness check proves no set
member is a phase-rotated cyclic shift of another, in exact integer
arithmetic; ``certify`` bundles everything into one JSON-able certificate.
It is the only builder of certificates: claims, closed-form ratio and
null set come from the family table ``constructions.FAMILIES``.
"""

from __future__ import annotations

from math import sqrt
from typing import Optional

import numpy as np

from . import bounds
from .ambiguity import dft, sidelobe_stats, verify_zcz, zero_tolerance
from .constructions import SpectralNullSet, lookup, omega_for_b
from .core import DelayDopplerZone, SequenceSet

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
    total = np.zeros(sset.length)
    for s in sset.sequences:
        total += np.abs(dft(s).values) ** 2
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
    expected = sqrt(k + p_off / n)
    for s in sset.sequences:
        mags = np.abs(dft(s).values[keep])
        if not np.all(np.abs(mags - expected) <= tol):
            return False
    return True


def verify_cyclically_distinct(
    sset: SequenceSet,
) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Whether no member is a constant-phase cyclic shift of another.

    Exact integer arithmetic: for a pair (i, j) and shift tau, equivalence
    means the phase-difference sequence is constant mod D. Returns
    (True, None) or (False, (i, j, tau)) with the first witness, where
    sequences[i](t) = sequences[j](<t+tau>) * w_D^c for some c.
    """
    L, D = sset.length, sset.denom
    phases = np.array([s.phases for s in sset.sequences], dtype=np.int64)
    # shift_index[tau, t] = (t + tau) mod L
    shift_index = (np.arange(L)[None, :] + np.arange(L)[:, None]) % L
    for i in range(sset.size):
        for j in range(i + 1, sset.size):
            diffs = (phases[i][None, :] - phases[j][shift_index]) % D
            constant = np.all(diffs == diffs[:, :1], axis=1)
            if np.any(constant):
                tau = int(np.nonzero(constant)[0][0])
                return False, (i, j, tau)
    return True, None


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
