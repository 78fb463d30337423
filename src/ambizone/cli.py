"""Command-line front end: generate, analyze, verify, and export sequence sets.

Exit codes: 0 on success (all claims hold), 1 when a verified claim fails,
2 on usage errors, malformed input and invalid parameters, including a
provenance that the family table (``constructions.FAMILIES``) rejects at
load. An input of ``-`` reads stdin. The environment variable ``ZAZ_TOL``
overrides the default zero tolerance for ``verify``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

from . import analysis, bounds
from .ambiguity import af_surface, dft
from .constructions import FAMILIES, _is_odd_prime, lookup
from .core import DelayDopplerZone, load_set, save_set


@contextmanager
def _open_out(path):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as f:
            yield f


def _load(path):
    return load_set(sys.stdin if path == "-" else path)


def _env_tol(args_tol):
    if args_tol is not None:
        return args_tol
    raw = os.environ.get("ZAZ_TOL")
    return float(raw) if raw else None


def cmd_gen(args) -> int:
    sset = FAMILIES[args.family].gen(args)
    with _open_out(args.output) as f:
        save_set(sset, f)
    return 0


def cmd_af(args) -> int:
    sset = _load(args.input)
    n = args.seq
    n2 = args.seq2 if args.seq2 is not None else n
    if not (0 <= n < sset.size and 0 <= n2 < sset.size):
        raise ValueError(f"sequence index out of range [0, {sset.size})")
    surf = af_surface(
        sset.sequences[n],
        sset.sequences[n2],
        tuple(args.tau_range),
        tuple(args.v_range),
        source=(f"s{n}", f"s{n2}"),
    )
    with _open_out(args.output) as f:
        surf.write_csv(f)
    return 0


def cmd_verify(args) -> int:
    sset = _load(args.input)
    zone = DelayDopplerZone(*args.zone) if args.zone else None
    cert = analysis.certify(sset, zone=zone, tol=_env_tol(args.tol), zcz=args.zcz)
    with _open_out(args.output) as f:
        json.dump(cert, f, indent=2)
        f.write("\n")
    return 0 if cert["verdicts"]["claims_hold"] else 1


def cmd_spectrum(args) -> int:
    sset = _load(args.input)
    family = lookup(sset.provenance)
    omega = None
    if family is not None and family.null_set is not None:
        omega = set(family.null_set(*family.args(sset.provenance)).forbidden)
    with _open_out(args.output) as f:
        f.write("seq,i,mag" + (",in_omega\n" if omega is not None else "\n"))
        for n, s in enumerate(sset.sequences):
            mags = dft(s).magnitudes()
            for i in range(sset.length):
                row = f"{n},{i},{float(mags[i])!r}"
                if omega is not None:
                    row += f",{1 if i in omega else 0}"
                f.write(row + "\n")
    return 0


def _bounds_text(report: bounds.OptimalityReport) -> str:
    lines = [
        f"L={report.length} N={report.set_size} "
        f"Zx={report.zx} Zy={report.zy}",
        f"theta_max      {report.measured_theta_max:.6f}",
        f"lower bound    {report.bound_value:.6f}",
    ]
    if report.verdict in ("zaz-feasible", "zaz-infeasible"):
        n_zxzy = report.set_size * report.zx * report.zy
        if report.verdict == "zaz-infeasible":
            lines.append(
                f"ZAZ infeasible: NZxZy={n_zxzy} > L={report.length}"
            )
        else:
            lines.append(f"ZAZ feasible: NZxZy={n_zxzy} <= L={report.length}")
        lines.append(f"ZAZ_ratio      {report.factor:.6f}")
    else:
        lines.append(f"rho_LAZ        {report.factor:.6f}")
    lines.append(f"verdict        {report.verdict}")
    return "\n".join(lines)


def cmd_bounds(args) -> int:
    if args.table2 is not None:
        primes = [p for p in range(3, args.table2 + 1) if _is_odd_prime(p)]
        rows = bounds.table2(primes)
        with _open_out(args.output) as f:
            f.write("p,L,N,zone,theta_max,rho_laz\n")
            for r in rows:
                f.write(f"{r.p},{r.length},{r.set_size},\"{r.zone}\",{r.theta_max},{r.rho:.6f}\n")
        return 0

    if args.input is not None:
        sset = _load(args.input)
        family = lookup(sset.provenance)
        if family is None:
            raise ValueError("input file has no construction provenance; use explicit flags")
        params = family.args(sset.provenance)
        report = bounds.optimality_report(
            sset.length, sset.size, *family.zone(*params), family_factor=family.ratio(*params),
        )
    else:
        required = (args.L, args.N, args.Zx, args.Zy)
        if any(x is None for x in required):
            raise ValueError("--L, --N, --Zx, --Zy are all required without an input file")
        theta = args.theta if args.theta is not None else 0.0
        report = bounds.optimality_report(args.L, args.N, args.Zx, args.Zy, theta)

    with _open_out(args.output) as f:
        if args.format == "json":
            json.dump(report.to_dict(), f, indent=2)
            f.write("\n")
        else:
            f.write(_bounds_text(report) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ambizone",
        description="Construct and certify unimodular sequence sets with "
        "zero/low delay-Doppler ambiguity zones.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a sequence set as JSON")
    gsub = p_gen.add_subparsers(dest="family", required=True)
    pa = gsub.add_parser("a", help="permutation family: MN sequences of length M*N^2")
    pa.add_argument("--M", type=int, required=True)
    pa.add_argument("--N", type=int, required=True)
    pa.add_argument("--K", type=int, required=True)
    pa.add_argument("--sigma-exp", type=int, default=None,
                    help="power-map exponent for the permutation (default: smallest valid)")
    pb = gsub.add_parser("b", help="comb-spectrum family: N sequences of length N*(K*N+P)")
    pb.add_argument("--K", type=int, required=True)
    pb.add_argument("--N", type=int, required=True)
    pb.add_argument("--P", type=int, required=True)
    pb.add_argument("--relaxed", action="store_true",
                    help="waive the gcd(P, N*K) = 1 requirement")
    pc = gsub.add_parser("c", help="prime-mapping family: p sequences of length p*(p-1)")
    pc.add_argument("--p", type=int, required=True)
    pc.add_argument("--alpha", type=int, default=None,
                    help="primitive element to use (default: smallest)")
    for sp in (pa, pb, pc):
        sp.add_argument("-o", "--output", default="-")
        sp.set_defaults(func=cmd_gen)

    p_af = sub.add_parser("af", help="export an ambiguity surface as CSV")
    p_af.add_argument("input")
    p_af.add_argument("--seq", type=int, required=True)
    p_af.add_argument("--seq2", type=int, default=None,
                      help="second sequence index (omit for an auto surface)")
    p_af.add_argument("--tau-range", type=int, nargs=2, required=True, metavar=("LO", "HI"))
    p_af.add_argument("--v-range", type=int, nargs=2, required=True, metavar=("LO", "HI"))
    p_af.add_argument("-o", "--output", default="-")
    p_af.set_defaults(func=cmd_af)

    p_ver = sub.add_parser("verify", help="certify a set against its claims")
    p_ver.add_argument("input")
    p_ver.add_argument("--zone", type=int, nargs=2, default=None, metavar=("ZX", "ZY"))
    p_ver.add_argument("--zcz", type=int, default=None,
                       help="additionally check a zero correlation zone of this width")
    p_ver.add_argument("--tol", type=float, default=None,
                       help="zero tolerance (default 1e-6*L; env ZAZ_TOL overrides)")
    p_ver.add_argument("-o", "--output", default="-")
    p_ver.set_defaults(func=cmd_verify)

    p_sp = sub.add_parser("spectrum", help="export per-sequence dual magnitudes as CSV")
    p_sp.add_argument("input")
    p_sp.add_argument("-o", "--output", default="-")
    p_sp.set_defaults(func=cmd_spectrum)

    p_b = sub.add_parser("bounds", help="bound/optimality report or reference table")
    p_b.add_argument("input", nargs="?", default=None)
    p_b.add_argument("--table2", type=int, default=None, metavar="PMAX",
                     help="emit the reference rows for odd primes 3..PMAX as CSV")
    p_b.add_argument("--L", type=int, default=None)
    p_b.add_argument("--N", type=int, default=None)
    p_b.add_argument("--Zx", type=int, default=None)
    p_b.add_argument("--Zy", type=int, default=None)
    p_b.add_argument("--theta", type=float, default=None)
    p_b.add_argument("--format", choices=("text", "json"), default="text")
    p_b.add_argument("-o", "--output", default="-")
    p_b.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
