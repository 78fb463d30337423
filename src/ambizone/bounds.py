"""Theoretical bounds and optimality factors for ambiguity-zone sequence sets.

Pure arithmetic: the lower bound on the peak ambiguity magnitude of a
unimodular set over a delay-Doppler rectangle, the zero-zone area ceiling,
the Tang-Fan-Matsufuji bound for correlation zones, the closed-form
tightness ratios of the three construction families, and the reference
parameter table for the prime-mapping family.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Iterable, Optional

from .constructions import FAMILIES, lookup

__all__ = [
    "laz_lower_bound",
    "rho_laz",
    "zaz_feasible",
    "zaz_ratio",
    "tfm_optimal",
    "closed_form_ratio",
    "OptimalityReport",
    "optimality_report",
    "Table2Row",
    "table2",
]


def laz_lower_bound(L: int, N: int, zx: int, zy: int) -> float:
    """Lower bound on the peak ambiguity magnitude over (-zx, zx) x (-zy, zy).

    Evaluates (L / sqrt(zy)) * sqrt((N*zx*zy/L - 1) / (N*zx - 1)). When the
    radicand is negative (N*zx*zy < L) a zero zone is feasible and the bound
    is reported as 0.
    """
    if min(L, N, zx, zy) < 1:
        raise ValueError("all parameters must be positive integers")
    if N * zx == 1:
        raise ValueError("bound undefined for N*Zx = 1 (zero denominator)")
    radicand_num = N * zx * zy / L - 1.0
    if radicand_num <= 0.0:
        return 0.0
    return (L / sqrt(zy)) * sqrt(radicand_num / (N * zx - 1))


def rho_laz(theta_max: float, L: int, N: int, zx: int, zy: int) -> float:
    """Optimality factor: achieved peak magnitude over its lower bound (1 is optimal)."""
    bound = laz_lower_bound(L, N, zx, zy)
    if bound == 0.0:
        raise ValueError(
            f"lower bound is 0 for (L={L}, N={N}, Zx={zx}, Zy={zy}):"
            " ZAZ regime, use zaz_ratio"
        )
    return theta_max / bound


def zaz_feasible(L: int, N: int, zx: int, zy: int) -> bool:
    """Whether a zero ambiguity zone of this size can exist: N*Zx*Zy <= L."""
    if min(L, N, zx, zy) < 1:
        raise ValueError("all parameters must be positive integers")
    return N * zx * zy <= L


def zaz_ratio(L: int, N: int, zx: int, zy: int) -> float:
    """Zone area relative to the ceiling L/N (1 is optimal)."""
    if min(L, N, zx, zy) < 1:
        raise ValueError("all parameters must be positive integers")
    return zx * zy / (L / N)


def tfm_optimal(L: int, N: int, z: int) -> bool:
    """Equality in the Tang-Fan-Matsufuji bound N*Z <= L for correlation zones."""
    if min(L, N, z) < 1:
        raise ValueError("all parameters must be positive integers")
    return N * z == L


def closed_form_ratio(provenance: dict) -> float:
    """Closed-form tightness ratio of a generated set, from its parameters.

    Family A: (K/N) * floor(N/K)    (zone-area ratio; -> 1 as N mod K -> 0)
    Family B: 1 - P/(N*K + P)       (zone-area ratio; -> 1 as N*K grows)
    Family C: (1 + 1/(p-1)) * sqrt(1 - 1/(p*(p-1)))   (peak-magnitude ratio; -> 1)
    """
    family = lookup(provenance)
    if family is None:
        raise ValueError("no closed-form ratio for an external set")
    return family.ratio(*family.args(provenance))


@dataclass(frozen=True)
class OptimalityReport:
    """Measured peak magnitude versus the theoretical bound for one zone.

    ``factor`` is the peak-over-bound ratio in the LAZ regime and the
    zone-area ratio in the ZAZ regime. ``verdict`` is one of ``optimal``,
    ``asymptotic``, ``suboptimal``, ``zaz-feasible``, ``zaz-infeasible``.
    """

    length: int
    set_size: int
    zx: int
    zy: int
    measured_theta_max: float
    bound_value: float
    factor: float
    verdict: str

    def to_dict(self) -> dict:
        return {
            "L": self.length,
            "N": self.set_size,
            "Zx": self.zx,
            "Zy": self.zy,
            "theta_max": self.measured_theta_max,
            "bound": self.bound_value,
            "factor": self.factor,
            "verdict": self.verdict,
        }


def optimality_report(
    L: int,
    N: int,
    zx: int,
    zy: int,
    theta_max: float,
    family_factor: Optional[float] = None,
    zero_tol: Optional[float] = None,
    factor_tol: float = 1e-6,
) -> OptimalityReport:
    """Classify a measured peak magnitude against the bounds.

    A peak below ``zero_tol`` (default 1e-6 * L) is treated as a zero zone
    and judged by feasibility and area ratio. Otherwise the peak-over-bound
    factor applies: ``optimal`` at 1, ``asymptotic`` when it matches the
    generating family's closed-form ratio (``family_factor``), else
    ``suboptimal``. A nonzero peak whose bound degenerates to 0 is likewise
    reported through the zone-area ratio.
    """
    if zero_tol is None:
        zero_tol = 1e-6 * L
    bound = laz_lower_bound(L, N, zx, zy)
    if theta_max <= zero_tol or bound == 0.0:
        feasible = zaz_feasible(L, N, zx, zy)
        return OptimalityReport(
            L, N, zx, zy, theta_max, bound,
            zaz_ratio(L, N, zx, zy),
            "zaz-feasible" if feasible else "zaz-infeasible",
        )
    factor = theta_max / bound
    if abs(factor - 1.0) <= factor_tol:
        verdict = "optimal"
    elif family_factor is not None and abs(factor - family_factor) <= factor_tol:
        verdict = "asymptotic"
    else:
        verdict = "suboptimal"
    return OptimalityReport(L, N, zx, zy, theta_max, bound, factor, verdict)


@dataclass(frozen=True)
class Table2Row:
    """One reference row for the prime-mapping family: parameters and tightness."""

    p: int
    length: int
    set_size: int
    zone: str
    theta_max: int
    rho: float


def table2(p_list: Iterable[int]) -> list[Table2Row]:
    """Reference parameter rows (L, N, zone, peak, tightness) for odd primes p.

    The zone column uses the printed half-width convention
    ``(p-1,p-1)x(p,p)`` for the open rectangle (-p+1, p-1) x (-p, p).
    """
    family = FAMILIES["c"]
    rows = []
    for p in p_list:
        family.check(p)
        (set_size, length, _), (zx, zy, _) = family.shape(p), family.zone(p)
        zone = f"({zx},{zx})x({zy},{zy})"
        rows.append(Table2Row(p, length, set_size, zone, p, family.ratio(p)))
    return rows
