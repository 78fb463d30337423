"""Each correctness check passes on a correct output and fails on a wrong one.

The wrong outputs come from sets with one phase moved by one step, so they
show that a check notices the smallest change a set can have. Run with

    python -m pytest bench/test_checks.py
"""

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ambizone  # noqa: E402
from ambizone import cli  # noqa: E402
from ambizone.core import PhaseSequence, SequenceSet  # noqa: E402

import checks  # noqa: E402
from workloads import zone_points  # noqa: E402


def mutated(sset: SequenceSet, n: int = 1, t: int = 3) -> SequenceSet:
    """The set with phase t of sequence n moved by one step."""
    seqs = list(sset.sequences)
    phases = list(seqs[n].phases)
    phases[t] += 1
    seqs[n] = PhaseSequence(seqs[n].denom, tuple(phases))
    return SequenceSet(tuple(seqs), dict(sset.provenance))


ZAZ_CASES = {
    "a": ({"family": "a", "M": 1, "N": 7, "K": 2},
          lambda: ambizone.construct_a(1, 7, 2, ambizone.power_permutation(7, 5)), (3, 2)),
    "b": ({"family": "b", "K": 4, "N": 5, "P": 1}, lambda: ambizone.construct_b(4, 5, 1), (5, 4)),
}


@pytest.fixture(scope="module", params=sorted(ZAZ_CASES))
def zaz(request):
    params, build, zone = ZAZ_CASES[request.param]
    sset = build()
    bad = mutated(sset)
    return params, sset, zone, ambizone.certify(sset), bad, ambizone.certify(bad)


def zaz_checks(params, sset, zone, cert):
    phases, denom = checks.phase_matrix(sset)
    points = zone_points(random.Random(0), sset.size, *zone)
    found = {
        "claims_hold": lambda: checks.check_claims_hold(cert),
        "theta_zero": lambda: checks.check_theta_zero(cert, sset.length),
        "zero_points": lambda: checks.check_zero_points(phases, denom, points),
        "zaz_ratio": lambda: checks.check_zaz_ratio(cert, params, sset.length, sset.size),
    }
    if params["family"] == "b":
        k, n, p_off = params["K"], params["N"], params["P"]
        found["spectral_nulls"] = lambda: checks.check_spectral_nulls(
            phases, denom, k, n, p_off, cert)
        found["comb_magnitude"] = lambda: checks.check_comb_magnitude(phases, denom, k, n, p_off)
    return found


def test_zaz_checks_pass_on_correct_sets(zaz):
    params, sset, zone, cert, _, _ = zaz
    for check in zaz_checks(params, sset, zone, cert).values():
        check()


def test_each_zaz_check_fails_on_one_changed_phase(zaz):
    params, _, zone, _, bad, bad_cert = zaz
    for name, check in zaz_checks(params, bad, zone, bad_cert).items():
        with pytest.raises(checks.CheckError):
            check()
        print(f"{params['family']}: {name} fails as it should")


@pytest.fixture(scope="module")
def sweep():
    p = 7
    sset = ambizone.construct_c(p, ambizone.exp_mapping(p, 3))
    zones = [ambizone.DelayDopplerZone(zx, p) for zx in (2, 4, 6)]
    return p, sset, zones, mutated(sset)


def test_sweep_checks_pass_on_correct_scans(sweep):
    p, sset, zones, _ = sweep
    stats = [ambizone.sidelobe_stats(sset, z) for z in zones]
    phases, denom = checks.phase_matrix(sset)
    for s in stats:
        checks.check_argmax(phases, denom, s)
    checks.check_claimed_theta(stats[-1], p, sset.length)
    checks.check_nested(list(zip(zones, stats)), sset.length)


def test_argmax_check_fails_when_the_scan_saw_a_changed_phase(sweep):
    p, sset, zones, bad = sweep
    with pytest.raises(checks.CheckError):
        checks.check_argmax(*checks.phase_matrix(sset), ambizone.sidelobe_stats(bad, zones[-1]))


def test_claimed_theta_check_fails_on_one_changed_phase(sweep):
    p, sset, zones, bad = sweep
    with pytest.raises(checks.CheckError):
        checks.check_claimed_theta(ambizone.sidelobe_stats(bad, zones[-1]), p, sset.length)


def test_nesting_check_fails_when_one_scan_saw_a_changed_phase(sweep):
    p, sset, zones, bad = sweep
    stats = [ambizone.sidelobe_stats(bad, zones[0])]
    stats += [ambizone.sidelobe_stats(sset, z) for z in zones[1:]]
    with pytest.raises(checks.CheckError):
        checks.check_nested(list(zip(zones, stats)), sset.length)


@pytest.fixture()
def files(tmp_path):
    """Generated b and c files, their phases as built here, and one-phase-changed copies."""
    out = {}
    for fam, argv, sset in (
        ("b", ["gen", "b", "--K", "2", "--N", "7", "--P", "1"], ambizone.construct_b(2, 7, 1)),
        ("c", ["gen", "c", "--p", "11", "--alpha", "7"],
         ambizone.construct_c(11, ambizone.exp_mapping(11, 7))),
    ):
        good, bad = str(tmp_path / f"{fam}.json"), str(tmp_path / f"{fam}.bad.json")
        assert cli.main(argv + ["-o", good]) == 0
        with open(good) as fh:
            doc = json.load(fh)
        doc["sequences"][1][3] = (doc["sequences"][1][3] + 1) % doc["denom"]
        with open(bad, "w") as fh:
            json.dump(doc, fh)
        out[fam] = (good, bad, *checks.phase_matrix(sset))
    return out


def read(path):
    with open(path) as fh:
        return fh.read()


def test_set_document_check(files):
    good, bad, phases, denom = files["b"]
    checks.check_set_document(json.loads(read(good)), phases, denom)
    with pytest.raises(checks.CheckError):
        checks.check_set_document(json.loads(read(bad)), phases, denom)


@pytest.mark.parametrize("fam", ["b", "c"])
def test_verify_certificate_check(files, tmp_path, fam):
    good, bad, _, _ = files[fam]
    cert = str(tmp_path / "cert.json")
    assert cli.main(["verify", good, "-o", cert]) == 0
    checks.check_claims_hold(json.loads(read(cert)))
    assert cli.main(["verify", bad, "-o", cert]) == 1
    with pytest.raises(checks.CheckError):
        checks.check_claims_hold(json.loads(read(cert)))


def test_spectrum_check(files, tmp_path):
    good, bad, phases, denom = files["b"]
    out = str(tmp_path / "spectrum.csv")
    assert cli.main(["spectrum", good, "-o", out]) == 0
    checks.check_spectrum_csv(read(out), phases, denom)
    assert cli.main(["spectrum", bad, "-o", out]) == 0
    with pytest.raises(checks.CheckError):
        checks.check_spectrum_csv(read(out), phases, denom)


def test_af_check(files, tmp_path):
    good, bad, phases, denom = files["c"]
    out = str(tmp_path / "af.csv")
    window = ["--tau-range", "-3", "3", "--v-range", "-3", "3"]
    taus = vs = range(-3, 4)
    assert cli.main(["af", good, "--seq", "1", "--seq2", "4", *window, "-o", out]) == 0
    checks.check_af_csv(read(out), phases, denom, 1, 4, taus, vs)
    assert cli.main(["af", bad, "--seq", "1", "--seq2", "4", *window, "-o", out]) == 0
    with pytest.raises(checks.CheckError):
        checks.check_af_csv(read(out), phases, denom, 1, 4, taus, vs)


def test_bounds_check(files, tmp_path):
    """The bounds report depends on the parameters only, so the wrong output
    here is the report for another prime."""
    good = files["c"][0]
    out = str(tmp_path / "bounds.json")
    assert cli.main(["bounds", good, "--format", "json", "-o", out]) == 0
    checks.check_bounds_report(json.loads(read(out)), 11)
    with pytest.raises(checks.CheckError):
        checks.check_bounds_report(json.loads(read(out)), 13)
