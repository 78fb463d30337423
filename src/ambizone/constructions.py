"""Generators for the three unimodular sequence families, and their table.

Family A: MN sequences of length M*N^2 built from a non-affine permutation
of Z_N; zero ambiguity over (-floor(N/K), floor(N/K)) x (-K, K).

Family B: N sequences of length N*(K*N+P) with a comb-like spectrum; zero
ambiguity over (-N, N) x (-K, K), enforced by successive frequency nulls.

Family C: p sequences of length p*(p-1) from a shift-injective mapping
Z_{p-1} -> Z_p; ambiguity magnitudes bounded by p near the origin.

``FAMILIES``, at the foot, holds everything a family's parameters imply.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from math import floor, gcd, lcm, sqrt
from typing import Callable, Optional

import numpy as np

from .core import PhaseSequence, SequenceSet

__all__ = [
    "BRUTE_FORCE_CAP",
    "PermutationSigma",
    "MappingPi",
    "power_permutation",
    "find_primitive_element",
    "exp_mapping",
    "validate_mapping",
    "construct_a",
    "construct_b",
    "construct_c",
    "time_index_parts_a",
    "time_index_parts_b",
    "time_index_parts_c",
]

# Brute-force validators are quadratic in the modulus; above this size they
# only run when explicitly forced.
BRUTE_FORCE_CAP = 257


def _is_odd_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _is_primitive(g: int, p: int) -> bool:
    if g % p == 0:
        return False
    return all(pow(g, (p - 1) // q, p) != 1 for q in _prime_factors(p - 1))


def _affine_witness(table: tuple[int, ...], n: int) -> Optional[tuple[int, int]]:
    """(a, b) with table[x] = a*x + b mod n for all x, or None.

    If such (a, b) exists then b = table[0], so one scan per slope suffices.
    """
    b = table[0]
    for a in range(n):
        if all(table[x] == (a * x + b) % n for x in range(n)):
            return a, b
    return None


@dataclass(frozen=True)
class PermutationSigma:
    """A permutation of Z_N that is not an affine map x -> a*x + b.

    Construction uses it to separate sequences; an affine permutation would
    collapse two set members onto cyclic shifts of each other. Non-affinity
    is brute-force checked on construction for n <= BRUTE_FORCE_CAP (pass
    ``check_non_affine`` to force or skip).
    """

    n: int
    table: tuple[int, ...]
    check_non_affine: InitVar[Optional[bool]] = None

    def __post_init__(self, check_non_affine):
        if self.n < 1:
            raise ValueError(f"modulus must be positive, got {self.n}")
        object.__setattr__(self, "table", tuple(int(x) for x in self.table))
        if sorted(self.table) != list(range(self.n)):
            raise ValueError(f"table is not a permutation of Z_{self.n}")
        if check_non_affine is None:
            check_non_affine = self.n <= BRUTE_FORCE_CAP
        if check_non_affine:
            hit = _affine_witness(self.table, self.n)
            if hit is not None:
                raise ValueError(
                    f"permutation is affine: table[x] = {hit[0]}*x + {hit[1]} mod {self.n}"
                )

    def __call__(self, x: int) -> int:
        return self.table[x % self.n]


@dataclass(frozen=True)
class MappingPi:
    """A mapping Z_{p-1} -> Z_p used by the length-p(p-1) family.

    Shape is validated here; the shift-injectivity condition (for every
    shift a != 0 and offset b, pi(<x+a>) = pi(x) + b mod p has at most one
    solution) is checked by :func:`validate_mapping`.
    """

    p: int
    table: tuple[int, ...]

    def __post_init__(self):
        if not _is_odd_prime(self.p):
            raise ValueError(f"{self.p} is not an odd prime")
        object.__setattr__(self, "table", tuple(int(x) for x in self.table))
        if len(self.table) != self.p - 1:
            raise ValueError(f"table must have {self.p - 1} entries, got {len(self.table)}")
        if any(not 0 <= x < self.p for x in self.table):
            raise ValueError(f"table entries must lie in Z_{self.p}")

    def __call__(self, x: int) -> int:
        return self.table[x % (self.p - 1)]


def validate_mapping(
    pi: MappingPi, force: bool = False
) -> tuple[bool, Optional[tuple[int, int]]]:
    """Brute-force the shift-injectivity condition of a MappingPi.

    Returns (True, None) when for every a in Z*_{p-1} and b in Z_p the
    equation pi(<x+a>_{p-1}) = pi(x) + b mod p has at most one solution;
    otherwise (False, (a, b)) with the first offending pair. Equivalent to
    checking that no difference value repeats within any shift a, so the
    scan is quadratic rather than cubic.
    """
    p, m = pi.p, pi.p - 1
    if p > BRUTE_FORCE_CAP and not force:
        raise ValueError(
            f"refusing brute-force validation for p = {p} > {BRUTE_FORCE_CAP}; pass force=True"
        )
    for a in range(1, m):
        seen: dict[int, int] = {}
        for x in range(m):
            b = (pi.table[(x + a) % m] - pi.table[x]) % p
            if b in seen:
                return False, (a, b)
            seen[b] = x
    return True, None


def power_permutation(n: int, a: int) -> PermutationSigma:
    """The permutation x -> x^a mod n for an odd prime n.

    Requires 1 < a < n and gcd(a, n-1) = 1, which makes the map bijective
    on Z_n and never affine; non-affinity is still re-verified.
    """
    if not _is_odd_prime(n):
        raise ValueError(f"{n} is not an odd prime")
    if not 1 < a < n:
        raise ValueError(f"exponent must satisfy 1 < a < {n}, got {a}")
    if gcd(a, n - 1) != 1:
        raise ValueError(f"gcd({a}, {n - 1}) = {gcd(a, n - 1)}, must be 1")
    table = tuple(pow(x, a, n) for x in range(n))
    return PermutationSigma(n, table, check_non_affine=True)


def find_primitive_element(p: int, override: Optional[int] = None) -> int:
    """Smallest generator of the multiplicative group mod p, or a validated override."""
    if not _is_odd_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    if override is not None:
        if not 1 <= override < p:
            raise ValueError(f"override {override} outside [1, {p})")
        if not _is_primitive(override, p):
            raise ValueError(f"{override} is not a primitive element mod {p}")
        return override
    for g in range(2, p):
        if _is_primitive(g, p):
            return g
    raise RuntimeError(f"no primitive element found mod {p}")  # unreachable for prime p


def exp_mapping(p: int, alpha: Optional[int] = None) -> MappingPi:
    """The mapping x -> alpha^x mod p for a primitive element alpha.

    Defaults to the smallest primitive element; pass ``alpha`` to pin a
    specific generator.
    """
    g = find_primitive_element(p, alpha)
    return MappingPi(p, tuple(pow(g, x, p) for x in range(p - 1)))


def time_index_parts_a(t: int, m: int, n: int) -> tuple[int, int, int]:
    """(t2, t1, t0) with t = m*n*t2 + n*t1 + t0, t2 in Z_n, t1 in Z_m, t0 in Z_n."""
    return t // (m * n), (t // n) % m, t % n


def time_index_parts_b(t: int, n: int) -> tuple[int, int]:
    """(t1, t0) with t = n*t1 + t0 and t0 in Z_n."""
    return t // n, t % n


def time_index_parts_c(t: int, p: int) -> tuple[int, int]:
    """(t1, t0) with t = (p-1)*t1 + t0 and t0 in Z_{p-1}."""
    return t // (p - 1), t % (p - 1)


def construct_a(m: int, n: int, k: int, sigma: PermutationSigma) -> SequenceSet:
    """Family A: MN sequences of length M*N^2.

    Element t of sequence number ``N*n1 + n0`` is
    w_N^{K*t2*t0 + n0*sigma(t0)} * w_M^{n1*t1}; phases are stored exactly
    over the common order lcm(N, M).
    """
    FAMILIES["a"].check(m, n, k)
    if sigma.n != n:
        raise ValueError(f"sigma modulus mismatch: permutation over Z_{sigma.n}, N = {n}")

    _, L, D = FAMILIES["a"].shape(m, n, k)
    t = np.arange(L, dtype=np.int64)
    t2 = t // (m * n)
    t1 = (t // n) % m
    t0 = t % n
    sig_t0 = np.asarray(sigma.table, dtype=np.int64)[t0]

    seqs = []
    for idx in range(m * n):
        n1, n0 = divmod(idx, n)
        phases = ((D // n) * (k * t2 * t0 + n0 * sig_t0) + (D // m) * (n1 * t1)) % D
        seqs.append(PhaseSequence(D, tuple(int(x) for x in phases)))
    provenance = {"family": "a", "M": m, "N": n, "K": k, "sigma": list(sigma.table)}
    return SequenceSet(tuple(seqs), provenance)


def construct_b(k: int, n: int, p_off: int, relaxed: bool = False) -> SequenceSet:
    """Family B: N comb-spectrum sequences of length N*(K*N+P).

    Element t of sequence number ``n`` is w_N^{n*t0} * w_{KN+P}^{K*t1*t0},
    stored exactly over the order N*(KN+P). Requires P < K; the coprimality
    gcd(P, N*K) = 1 is enforced unless ``relaxed`` is set.
    """
    FAMILIES["b"].check(k, n, p_off)
    if not relaxed and gcd(p_off, n * k) != 1:
        raise ValueError(
            f"gcd(P, N*K) must be 1, got gcd({p_off}, {n * k}) = {gcd(p_off, n * k)}"
            " (pass relaxed=True to waive)"
        )

    q = k * n + p_off
    _, L, _ = FAMILIES["b"].shape(k, n, p_off)
    t = np.arange(L, dtype=np.int64)
    t1 = t // n
    t0 = t % n
    seqs = []
    for idx in range(n):
        phases = (q * idx * t0 + n * k * t1 * t0) % L
        seqs.append(PhaseSequence(L, tuple(int(x) for x in phases)))
    provenance = {"family": "b", "K": k, "N": n, "P": p_off}
    return SequenceSet(tuple(seqs), provenance)


def construct_c(p: int, pi: MappingPi, validate: Optional[bool] = None) -> SequenceSet:
    """Family C: p sequences of length p*(p-1) over the order-p phase lattice.

    Element t of sequence number ``n`` is w_p^{t1*pi(t0) + n*t0}. The
    mapping's shift-injectivity is verified by default for p <= BRUTE_FORCE_CAP.
    """
    FAMILIES["c"].check(p)
    if pi.p != p:
        raise ValueError(f"mapping modulus mismatch: mapping for p = {pi.p}, requested {p}")
    if validate is None:
        validate = p <= BRUTE_FORCE_CAP
    if validate:
        ok, witness = validate_mapping(pi, force=True)
        if not ok:
            raise ValueError(
                f"mapping fails the shift-injectivity condition at (a, b) = {witness}"
            )

    _, L, _ = FAMILIES["c"].shape(p)
    t = np.arange(L, dtype=np.int64)
    t1 = t // (p - 1)
    t0 = t % (p - 1)
    pi_t0 = np.asarray(pi.table, dtype=np.int64)[t0]
    seqs = []
    for idx in range(p):
        phases = (t1 * pi_t0 + idx * t0) % p
        seqs.append(PhaseSequence(p, tuple(int(x) for x in phases)))
    provenance = {"family": "c", "p": p, "pi": list(pi.table)}
    return SequenceSet(tuple(seqs), provenance)


@dataclass(frozen=True)
class SpectralNullSet:
    """Forbidden frequency indices on which a whole set must carry no energy."""

    length: int
    forbidden: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(sorted(int(i) for i in self.forbidden))
        if len(set(idx)) != len(idx):
            raise ValueError("forbidden indices must be pairwise distinct")
        if idx and (idx[0] < 0 or idx[-1] >= self.length):
            raise ValueError(f"forbidden indices must lie in [0, {self.length})")
        object.__setattr__(self, "forbidden", idx)

    @property
    def size(self) -> int:
        return len(self.forbidden)


def omega_for_b(k: int, n: int, p_off: int) -> SpectralNullSet:
    """Null set of the comb construction with parameters (K, N, P).

    The union {(KN+P)*alpha + K*beta + gamma : alpha, beta in Z_N,
    gamma in Z*_K} with {KN + (KN+P)*alpha + beta : alpha in Z_N,
    beta in Z_P}; its complement is exactly the N^2 bins hit by K*t0
    mod (KN+P). Cardinality N^2*(K-1) + N*P.
    """
    if k < 1 or n < 1 or p_off < 0:
        raise ValueError("K, N must be positive and P nonnegative")
    if p_off >= k:
        raise ValueError(f"P < K required, got P = {p_off}, K = {k}")
    q = k * n + p_off
    length = n * q
    first = {
        q * alpha + k * beta + gamma
        for alpha in range(n)
        for beta in range(n)
        for gamma in range(1, k)
    }
    second = {k * n + q * alpha + beta for alpha in range(n) for beta in range(p_off)}
    forbidden = first | second
    expected = n * n * (k - 1) + n * p_off
    if len(forbidden) != expected or (first & second):
        raise RuntimeError(
            f"null-set branches overlap: |union| = {len(forbidden)}, expected {expected}"
        )
    return SpectralNullSet(length, tuple(sorted(forbidden)))


def _require(*rules: tuple[bool, str]) -> None:
    """Raise ValueError with the message of the first rule that does not hold."""
    for ok, message in rules:
        if not ok:
            raise ValueError(message)


def _gen_a(args) -> SequenceSet:
    exp = args.sigma_exp
    if exp is None:  # the smallest exponent that power_permutation accepts
        exp = next((a for a in range(2, args.N) if gcd(a, args.N - 1) == 1), None)
        _require((exp is not None and _is_odd_prime(args.N), f"N = {args.N}: built-in"
                  " permutations need an odd prime N > 3; pass a custom one to construct_a"))
    return construct_a(args.M, args.N, args.K, power_permutation(args.N, exp))


@dataclass(frozen=True)
class Family:
    """What a family's integer parameters (``params``, in constructor order) imply.
    All callables but ``gen`` (parsed CLI arguments) take the parameter values;
    ``shape`` gives the set's (N, L, D), ``zone`` its claimed (Zx, Zy, theta_max)."""

    params: tuple[str, ...]
    check: Callable[..., None]
    shape: Callable[..., tuple[int, int, int]]
    zone: Callable[..., tuple[int, int, float]]
    ratio: Callable[..., float]
    gen: Callable[..., SequenceSet]
    extra_claims: Callable[..., dict] = lambda *args: {}
    null_set: Optional[Callable[..., SpectralNullSet]] = None

    def args(self, provenance: dict) -> tuple:
        return tuple(provenance.get(key) for key in self.params)

    def claims(self, provenance: dict) -> dict:
        args = self.args(provenance)
        zx, zy, peak = self.zone(*args)
        return {
            "zone": {"zx": zx, "zy": zy},
            "theta_max": peak,
            "rho_laz" if peak else "zaz_ratio": self.ratio(*args),
            "cyclically_distinct": True,
            **self.extra_claims(*args),
        }


FAMILIES = {
    "a": Family(
        params=("M", "N", "K"),
        check=lambda m, n, k: _require(
            (m >= 1 and n >= 1 and k >= 1, "M, N, K must be positive integers"),
            (k < n, f"K < N required, got K = {k}, N = {n}"),
            (gcd(k, n) == 1, f"gcd(K, N) must be 1, got gcd({k}, {n}) = {gcd(k, n)}"),
        ),
        shape=lambda m, n, k: (m * n, m * n * n, lcm(n, m)),
        zone=lambda m, n, k: (n // k, k, 0.0),
        ratio=lambda m, n, k: (k / n) * floor(n / k),
        extra_claims=lambda m, n, k: {"zcz_width": n, "tfm_optimal": True} if k == 1 else {},
        gen=_gen_a,
    ),
    "b": Family(
        params=("K", "N", "P"),
        check=lambda k, n, p_off: _require(
            (k >= 1 and n >= 1 and p_off >= 1, "K, N, P must be positive integers"),
            (p_off < k, f"P < K required, got P = {p_off}, K = {k}"),
        ),
        shape=lambda k, n, p_off: (n, n * (k * n + p_off), n * (k * n + p_off)),
        zone=lambda k, n, p_off: (n, k, 0.0),
        ratio=lambda k, n, p_off: 1.0 - p_off / (n * k + p_off),
        extra_claims=lambda k, n, p_off: {
            "spectral_null_count": n * n * (k - 1) + n * p_off,
            "comb_magnitude": sqrt(k + p_off / n),
        },
        null_set=omega_for_b,
        gen=lambda args: construct_b(args.K, args.N, args.P, relaxed=args.relaxed),
    ),
    "c": Family(
        params=("p",),
        check=lambda p: _require((_is_odd_prime(p), f"{p} is not an odd prime")),
        shape=lambda p: (p, p * (p - 1), p),
        zone=lambda p: (p - 1, p, float(p)),
        ratio=lambda p: (1.0 + 1.0 / (p - 1)) * sqrt(1.0 - 1.0 / (p * (p - 1))),
        gen=lambda args: construct_c(args.p, exp_mapping(args.p, args.alpha)),
    ),
}


def lookup(provenance: dict) -> Optional[Family]:
    """The entry of the family a provenance names; None for an external set."""
    name = provenance.get("family", "external")
    if name != "external" and (not isinstance(name, str) or name not in FAMILIES):
        raise ValueError(f"unknown family {name!r} in provenance")
    return FAMILIES.get(name)


def check_provenance(provenance: dict, size: int, length: int, denom: int) -> None:
    """Raise ValueError unless a known family's integer parameters imply the set's
    (N, L, D), checked first so that no huge p reaches a primality test, and meet
    the constructor's precondition. Sigma, pi and gcd(P, N*K) are left to certify."""
    family = lookup(provenance)
    if family is None:
        return
    named = dict(zip(family.params, family.args(provenance)))
    _require((all(type(v) is int for v in named.values()), f"parameters {named} must be integers"))
    implied, actual = family.shape(*named.values()), (size, length, denom)
    _require((implied == actual, f"parameters {named} imply (N, L, D) = {implied}, not {actual}"))
    family.check(*named.values())
