"""Exact-arithmetic types for unimodular sequences, sets, zones, and surfaces.

A sequence element is stored as an integer phase numerator over a common
root-of-unity order, so equality, cyclic-shift equivalence, and golden-vector
comparisons are exact. Complex values are materialized only at the boundary
where a correlation or transform actually needs them.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from typing import IO, Optional, Union

import numpy as np

__all__ = [
    "PhaseSequence",
    "SequenceSet",
    "DelayDopplerZone",
    "AmbiguitySurface",
    "FrequencyDual",
    "cyclic_shift_ratio",
    "set_to_dict",
    "set_from_dict",
    "save_set",
    "load_set",
]


@dataclass(frozen=True)
class PhaseSequence:
    """A unimodular sequence a(t) = exp(2j*pi * phases[t] / denom).

    Parameters
    ----------
    denom : int
        Root-of-unity order D; every element is a D-th root of unity.
    phases : tuple of int
        Integer phase numerators; normalized into [0, D) on construction.
        Anything ``operator.index`` accepts counts as an integer (numpy
        integers too), except ``bool``; other values raise ValueError.
    """

    denom: int
    phases: tuple[int, ...]

    def __post_init__(self):
        if self.denom < 1:
            raise ValueError(f"root-of-unity order must be positive, got {self.denom}")
        if len(self.phases) == 0:
            raise ValueError("sequence must contain at least one element")
        try:
            ints = list(map(operator.index, self.phases))
        except TypeError as exc:
            raise ValueError(f"phases must be integers: {exc}") from None
        if bool in set(map(type, self.phases)):
            raise ValueError("phases must be integers, not bool")
        object.__setattr__(self, "phases", tuple([p % self.denom for p in ints]))

    @property
    def length(self) -> int:
        return len(self.phases)

    def evaluate(self) -> np.ndarray:
        """The complex elements exp(2j*pi*phases/denom), read-only.

        Computed on first use and kept on the (immutable) sequence.
        """
        values = self.__dict__.get("_values")
        if values is None:
            ph = np.asarray(self.phases, dtype=np.float64)
            values = np.exp(2j * np.pi * ph / self.denom)
            values.flags.writeable = False
            object.__setattr__(self, "_values", values)
        return values

    def cyclic_shift(self, shift: int) -> "PhaseSequence":
        """The sequence t -> a(<t + shift>_L)."""
        shift %= self.length
        return PhaseSequence(self.denom, self.phases[shift:] + self.phases[:shift])

    def rotated(self, c: int) -> "PhaseSequence":
        """Multiply every element by the unit constant w_D^c."""
        return PhaseSequence(self.denom, tuple(p + c for p in self.phases))


def cyclic_shift_ratio(a: PhaseSequence, b: PhaseSequence, tau: int) -> Optional[int]:
    """Constant c such that a(t) = b(<t+tau>_L) * w_D^c for all t, else None.

    The comparison is exact integer arithmetic on the stored phases; a
    constant phase-difference sequence is equivalent to a constant unit
    ratio because both sequences take values in the same root-of-unity
    group. The returned c satisfies 0 <= c < D (c = 0 means the constant 1).
    """
    if a.length != b.length:
        raise ValueError(f"length mismatch: {a.length} != {b.length}")
    if a.denom != b.denom:
        raise ValueError(f"root-of-unity order mismatch: {a.denom} != {b.denom}")
    L, D = a.length, a.denom
    tau %= L
    bp = b.phases
    c = (a.phases[0] - bp[tau]) % D
    for t in range(1, L):
        if (a.phases[t] - bp[(t + tau) % L]) % D != c:
            return None
    return c


@dataclass(frozen=True)
class SequenceSet:
    """N equal-length, equal-order PhaseSequences plus construction metadata.

    ``provenance`` is a JSON-able dict; generated sets carry
    ``{"family": "a"|"b"|"c", ...parameters...}``, externally loaded sets
    use ``{"family": "external"}``.
    """

    sequences: tuple[PhaseSequence, ...]
    provenance: dict = field(default_factory=lambda: {"family": "external"})

    def __post_init__(self):
        object.__setattr__(self, "sequences", tuple(self.sequences))
        if len(self.sequences) < 1:
            raise ValueError("sequence set must contain at least one sequence")
        L = self.sequences[0].length
        D = self.sequences[0].denom
        for k, s in enumerate(self.sequences):
            if s.length != L:
                raise ValueError(f"sequence {k} has length {s.length}, expected {L}")
            if s.denom != D:
                raise ValueError(f"sequence {k} has order {s.denom}, expected {D}")

    @property
    def size(self) -> int:
        return len(self.sequences)

    @property
    def length(self) -> int:
        return self.sequences[0].length

    @property
    def denom(self) -> int:
        return self.sequences[0].denom

    def values_matrix(self) -> np.ndarray:
        """Complex matrix of shape (N, L), one row per sequence."""
        return np.vstack([s.evaluate() for s in self.sequences])

    def duals(self) -> np.ndarray:
        """Unitary DFT of every sequence, shape (N, L), one row per sequence.

        Computed on first use and kept on the (immutable) set, read-only, so
        that the spectral checks of one certificate share it.
        """
        duals = self.__dict__.get("_duals")
        if duals is None:
            duals = np.fft.fft(self.values_matrix(), axis=1) / np.sqrt(self.length)
            duals.flags.writeable = False
            object.__setattr__(self, "_duals", duals)
        return duals


@dataclass(frozen=True)
class DelayDopplerZone:
    """The open rectangle (-zx, zx) x (-zy, zy) of integer (delay, Doppler) pairs."""

    zx: int
    zy: int

    def __post_init__(self):
        if self.zx < 1 or self.zy < 1:
            raise ValueError(f"zone half-widths must be >= 1, got ({self.zx}, {self.zy})")

    def delays(self) -> range:
        return range(-self.zx + 1, self.zx)

    def dopplers(self) -> range:
        return range(-self.zy + 1, self.zy)

    def contains(self, tau: int, v: int) -> bool:
        return abs(tau) < self.zx and abs(v) < self.zy

    def __str__(self) -> str:
        return f"(-{self.zx},{self.zx})x(-{self.zy},{self.zy})"


@dataclass(frozen=True)
class AmbiguitySurface:
    """Complex ambiguity values on an integer (tau, v) grid.

    ``values[i, j]`` is the ambiguity at ``(tau_range[i], v_range[j])``.
    """

    tau_range: range
    v_range: range
    values: np.ndarray
    source: tuple[str, str] = ("a", "b")

    def __post_init__(self):
        expected = (len(self.tau_range), len(self.v_range))
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != grid {expected}")

    def magnitudes(self) -> np.ndarray:
        return np.abs(self.values)

    def value_at(self, tau: int, v: int) -> complex:
        return complex(self.values[self.tau_range.index(tau), self.v_range.index(v)])

    def max_magnitude(self, exclude_origin: bool = False) -> float:
        located = self.argmax(exclude_origin=exclude_origin)
        return 0.0 if located is None else located[2]

    def argmax(self, exclude_origin: bool = False) -> Optional[tuple[int, int, float]]:
        """(tau, v, magnitude) of the largest entry; None if every grid point
        is excluded (a 1x1 grid at the origin with exclude_origin)."""
        mags = self.magnitudes()
        if exclude_origin and 0 in self.tau_range and 0 in self.v_range:
            mags = mags.copy()
            mags[self.tau_range.index(0), self.v_range.index(0)] = -np.inf
        i, j = np.unravel_index(int(np.argmax(mags)), mags.shape)
        if not np.isfinite(mags[i, j]):
            return None
        return self.tau_range[i], self.v_range[j], float(mags[i, j])

    def write_csv(self, f: IO[str]) -> None:
        """Rows ``tau,v,re,im,mag``, row-major in tau."""
        f.write("tau,v,re,im,mag\n")
        for i, tau in enumerate(self.tau_range):
            for j, v in enumerate(self.v_range):
                z = complex(self.values[i, j])
                f.write(f"{tau},{v},{z.real!r},{z.imag!r},{abs(z)!r}\n")


@dataclass(frozen=True)
class FrequencyDual:
    """Unitary DFT of a unimodular sequence (total energy equals the length)."""

    values: np.ndarray

    @property
    def length(self) -> int:
        return len(self.values)

    def magnitudes(self) -> np.ndarray:
        return np.abs(self.values)

    def support(self, tol: float) -> tuple[int, ...]:
        """Indices of bins with magnitude above tol."""
        return tuple(int(i) for i in np.nonzero(np.abs(self.values) > tol)[0])


# ---------------------------------------------------------------------------
# JSON interchange: {"length": L, "denom": D, "provenance": {...},
#                    "sequences": [[int, ...], ...]}
# ---------------------------------------------------------------------------

def set_to_dict(sset: SequenceSet) -> dict:
    return {
        "length": sset.length,
        "denom": sset.denom,
        "provenance": dict(sset.provenance),
        "sequences": [list(s.phases) for s in sset.sequences],
    }


def set_from_dict(data: dict) -> SequenceSet:
    """Parse a set document, raising ValueError on anything malformed,
    including a provenance that ``constructions.check_provenance`` rejects."""
    from .constructions import check_provenance  # deferred: it imports this module

    try:
        length, denom = data["length"], data["denom"]
        rows = [list(row) for row in data["sequences"]]
        provenance = {"family": "external", **(data.get("provenance") or {})}
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed sequence-set document: {exc}") from exc
    for name, value in (("length", length), ("denom", denom)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer, got {value!r}")
    for k, row in enumerate(rows):
        if len(row) != length:
            raise ValueError(f"sequence {k} has {len(row)} phases, header says {length}")
        if not all(type(p) is int for p in row):
            raise ValueError(f"sequence {k} has a phase that is not an integer")
    seqs = [PhaseSequence(denom, tuple(row)) for row in rows]
    check_provenance(provenance, len(seqs), length, denom)
    return SequenceSet(tuple(seqs), provenance)


def save_set(sset: SequenceSet, f: Union[str, IO[str]]) -> None:
    doc = json.dumps(set_to_dict(sset), indent=2)
    if isinstance(f, str):
        with open(f, "w", encoding="utf-8") as fh:
            fh.write(doc + "\n")
    else:
        f.write(doc + "\n")


def load_set(f: Union[str, IO[str]]) -> SequenceSet:
    if isinstance(f, str):
        with open(f, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = json.load(f)
    return set_from_dict(data)
