import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ambizone import construct_a, construct_b, construct_c, exp_mapping, load_set
from ambizone import power_permutation, set_to_dict
from ambizone.cli import main
from golden import GOLDEN_P5_ALPHA3, REFERENCE_RHO_ROWS

SRC = str(Path(__file__).resolve().parents[1] / "src")
READERS = ("verify", "bounds", "spectrum")


def run(argv):
    return main(argv)


class TestGen:
    def test_gen_c_golden_vectors(self, tmp_path):
        out = str(tmp_path / "set.json")
        assert run(["gen", "c", "--p", "5", "--alpha", "3", "-o", out]) == 0
        sset = load_set(out)
        assert sset.denom == 5
        for n in range(5):
            assert sset.sequences[n].phases == GOLDEN_P5_ALPHA3[n]

    def test_gen_a_writes_provenance(self, tmp_path):
        out = str(tmp_path / "a.json")
        assert run(["gen", "a", "--M", "1", "--N", "13", "--K", "3", "--sigma-exp", "5", "-o", out]) == 0
        sset = load_set(out)
        assert sset.provenance["family"] == "a"
        assert sset.size == 13 and sset.length == 169

    def test_gen_a_default_exponent(self, tmp_path):
        out = str(tmp_path / "a5.json")
        assert run(["gen", "a", "--M", "1", "--N", "5", "--K", "2", "-o", out]) == 0
        assert load_set(out).size == 5

    def test_gen_b_parameter_violation_exits_2(self, tmp_path, capsys):
        rc = run(["gen", "b", "--K", "2", "--N", "3", "--P", "2", "-o", str(tmp_path / "x.json")])
        assert rc == 2
        assert "P < K" in capsys.readouterr().err

    def test_gen_a_gcd_violation_exits_2(self, tmp_path, capsys):
        rc = run(["gen", "a", "--M", "1", "--N", "4", "--K", "2", "-o", str(tmp_path / "x.json")])
        assert rc == 2

    def test_gen_b_relaxed_flag(self, tmp_path):
        base = ["gen", "b", "--K", "3", "--N", "2", "--P", "2"]
        assert run(base + ["-o", str(tmp_path / "x.json")]) == 2
        assert run(base + ["--relaxed", "-o", str(tmp_path / "y.json")]) == 0

    def test_gen_deterministic(self, tmp_path):
        a, b = str(tmp_path / "1.json"), str(tmp_path / "2.json")
        run(["gen", "b", "--K", "4", "--N", "5", "--P", "1", "-o", a])
        run(["gen", "b", "--K", "4", "--N", "5", "--P", "1", "-o", b])
        assert open(a).read() == open(b).read()


@pytest.fixture()
def set_files(tmp_path):
    paths = {}
    for name, argv in {
        "a": ["gen", "a", "--M", "1", "--N", "13", "--K", "3", "--sigma-exp", "5"],
        "b": ["gen", "b", "--K", "4", "--N", "5", "--P", "1"],
        "c": ["gen", "c", "--p", "5", "--alpha", "3"],
    }.items():
        path = str(tmp_path / f"{name}.json")
        assert run(argv + ["-o", path]) == 0
        paths[name] = path
    return paths


class TestAf:
    def test_auto_surface_csv(self, set_files, tmp_path):
        out = str(tmp_path / "af.csv")
        rc = run(["af", set_files["c"], "--seq", "0",
                  "--tau-range", "-3", "3", "--v-range", "-4", "4", "-o", out])
        assert rc == 0
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "tau,v,re,im,mag"
        assert len(lines) == 1 + 7 * 9
        # Row-major in tau: first data row is the (-3, -4) corner.
        assert lines[1].startswith("-3,-4,")
        origin = [ln for ln in lines[1:] if ln.startswith("0,0,")]
        assert len(origin) == 1
        assert float(origin[0].split(",")[4]) == pytest.approx(20.0)

    def test_cross_surface_zero_zone(self, set_files, tmp_path):
        out = str(tmp_path / "cross.csv")
        rc = run(["af", set_files["b"], "--seq", "0", "--seq2", "1",
                  "--tau-range", "-4", "4", "--v-range", "-3", "3", "-o", out])
        assert rc == 0
        rows = open(out).read().strip().splitlines()[1:]
        assert all(float(r.split(",")[4]) < 1e-6 * 105 for r in rows)

    def test_zero_size_range_exits_2(self, set_files, capsys):
        rc = run(["af", set_files["c"], "--seq", "0",
                  "--tau-range", "3", "-3", "--v-range", "0", "0"])
        assert rc == 2

    def test_bad_index_exits_2(self, set_files):
        rc = run(["af", set_files["c"], "--seq", "9",
                  "--tau-range", "0", "1", "--v-range", "0", "1"])
        assert rc == 2


class TestVerify:
    def test_generated_sets_verify_clean(self, set_files, tmp_path, capsys):
        for name in ("a", "b", "c"):
            rc = run(["verify", set_files[name], "-o", str(tmp_path / f"{name}-cert.json")])
            assert rc == 0, name
            cert = json.load(open(tmp_path / f"{name}-cert.json"))
            assert cert["verdicts"]["claims_hold"]

    def test_tampered_file_exits_1_with_witness(self, set_files, tmp_path):
        doc = json.load(open(set_files["a"]))
        doc["sequences"][0][17] = (doc["sequences"][0][17] + 1) % doc["denom"]
        bad = str(tmp_path / "bad.json")
        json.dump(doc, open(bad, "w"))
        cert_path = str(tmp_path / "cert.json")
        rc = run(["verify", bad, "-o", cert_path])
        assert rc == 1
        cert = json.load(open(cert_path))
        assert not cert["verdicts"]["claims_hold"]
        assert any(w["kind"] == "ambiguity_peak" for w in cert["witnesses"])

    def test_external_without_zone_exits_2(self, tmp_path, capsys):
        doc = {"length": 4, "denom": 4, "sequences": [[0, 1, 2, 3]]}
        path = str(tmp_path / "ext.json")
        json.dump(doc, open(path, "w"))
        assert run(["verify", path]) == 2
        assert "zone" in capsys.readouterr().err

    def test_external_with_zone_measures(self, tmp_path, capsys):
        doc = {"length": 4, "denom": 4, "sequences": [[0, 1, 2, 3]]}
        path = str(tmp_path / "ext.json")
        json.dump(doc, open(path, "w"))
        rc = run(["verify", path, "--zone", "2", "2"])
        assert rc == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["claims"] == {}

    def test_zcz_flag(self, set_files, capsys):
        assert run(["verify", set_files["b"], "--zcz", "5"]) == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["verdicts"]["zcz"]

    def test_tolerance_env_override(self, set_files, tmp_path, monkeypatch):
        doc = json.load(open(set_files["a"]))
        doc["sequences"][0][17] = (doc["sequences"][0][17] + 1) % doc["denom"]
        bad = str(tmp_path / "bad.json")
        json.dump(doc, open(bad, "w"))
        monkeypatch.setenv("ZAZ_TOL", "1e9")
        rc = run(["verify", bad, "-o", str(tmp_path / "cert.json")])
        assert rc == 0  # absurd tolerance waives the failure


class TestSpectrum:
    def test_comb_set_has_omega_column(self, set_files, tmp_path):
        out = str(tmp_path / "spectrum.csv")
        assert run(["spectrum", set_files["b"], "-o", out]) == 0
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "seq,i,mag,in_omega"
        assert len(lines) == 1 + 5 * 105
        nulled = [ln for ln in lines[1:] if ln.endswith(",1")]
        assert len(nulled) == 5 * 80
        assert all(float(ln.split(",")[2]) < 1e-9 for ln in nulled)

    def test_family_a_plain_columns(self, set_files, tmp_path):
        out = str(tmp_path / "spectrum.csv")
        assert run(["spectrum", set_files["a"], "-o", out]) == 0
        assert open(out).readline().strip() == "seq,i,mag"


class TestBounds:
    def test_table_reproduction(self, tmp_path):
        out = str(tmp_path / "t2.csv")
        assert run(["bounds", "--table2", "41", "-o", out]) == 0
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "p,L,N,zone,theta_max,rho_laz"
        assert len(lines) == 1 + len(REFERENCE_RHO_ROWS)
        for line, (p, rho) in zip(lines[1:], REFERENCE_RHO_ROWS):
            cells = line.split(",")
            assert int(cells[0]) == p
            assert float(cells[-1]) == pytest.approx(rho, abs=1e-6)

    def test_explicit_flags_laz(self, capsys):
        rc = run(["bounds", "--L", "20", "--N", "5", "--Zx", "4", "--Zy", "5", "--theta", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1.218349" in out

    def test_explicit_flags_infeasible(self, capsys):
        rc = run(["bounds", "--L", "10", "--N", "2", "--Zx", "3", "--Zy", "2"])
        assert rc == 0
        assert "ZAZ infeasible: NZxZy=12 > L=10" in capsys.readouterr().out

    def test_from_input_file(self, set_files, capsys):
        assert run(["bounds", set_files["c"], "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["factor"] == pytest.approx(1.218349, abs=1e-6)
        assert report["verdict"] == "asymptotic"

    def test_incoherent_flags_exit_2(self, capsys):
        assert run(["bounds", "--L", "10", "--N", "2"]) == 2


class TestRoundTrip:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "a", "--M", "2", "--N", "5", "--K", "2", "--sigma-exp", "3"],
            ["gen", "a", "--M", "1", "--N", "7", "--K", "3"],
            ["gen", "b", "--K", "3", "--N", "2", "--P", "1"],
            ["gen", "c", "--p", "7"],
            ["gen", "c", "--p", "11"],
        ],
    )
    def test_gen_then_verify_holds(self, tmp_path, argv):
        path = str(tmp_path / "set.json")
        assert run(argv + ["-o", path]) == 0
        assert run(["verify", path, "-o", str(tmp_path / "cert.json")]) == 0

    def test_p3_family_fails_distinctness_honestly(self, tmp_path):
        # With only two mapping-domain points the p=3 instance admits a
        # cyclically equivalent pair (s_0 and s_1 at shift 4, constant w_3),
        # so its distinctness claim is genuinely false and verify reports it.
        path = str(tmp_path / "p3.json")
        cert_path = str(tmp_path / "cert.json")
        assert run(["gen", "c", "--p", "3", "-o", path]) == 0
        assert run(["verify", path, "-o", cert_path]) == 1
        cert = json.load(open(cert_path))
        assert cert["verdicts"]["zone_claim"]  # the peak claim still holds
        assert not cert["verdicts"]["cyclically_distinct"]
        assert cert["witnesses"][0]["pair_and_shift"] == [0, 1, 4]


class TestStdinInput:
    def test_gen_piped_into_verify(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
        cli = [sys.executable, "-m", "ambizone.cli"]
        gen = subprocess.Popen(cli + ["gen", "b", "--K", "2", "--N", "7", "--P", "1"],
                               stdout=subprocess.PIPE, env=env)
        verify = subprocess.run(cli + ["verify", "-"], stdin=gen.stdout,
                                capture_output=True, env=env, timeout=120)
        gen.stdout.close()
        assert gen.wait(timeout=120) == 0
        assert verify.returncode == 0, verify.stderr
        assert json.loads(verify.stdout)["verdicts"]["claims_hold"]

    def test_dash_reads_stdin_for_af_spectrum_bounds(self, set_files, monkeypatch, capsys):
        doc = open(set_files["c"]).read()
        for argv in (["af", "-", "--seq", "0", "--tau-range", "0", "1", "--v-range", "0", "1"],
                     ["spectrum", "-"], ["bounds", "-", "--format", "json"]):
            monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
            capsys.readouterr()
            assert run(argv) == 0, argv
        assert json.loads(capsys.readouterr().out)["verdict"] == "asymptotic"


def _edited(src, tmp_path, edit):
    doc = json.load(open(src))
    edit(doc)
    path = str(tmp_path / "edited.json")
    json.dump(doc, open(path, "w"))
    return path


class TestProvenanceValidatedAtLoad:
    def test_family_b_without_k_exits_2(self, set_files, tmp_path, capsys):
        path = _edited(set_files["b"], tmp_path, lambda d: d["provenance"].pop("K"))
        for cmd in READERS:
            assert run([cmd, path]) == 2, cmd
            assert "'K'" in capsys.readouterr().err

    def test_non_prime_p_exits_2(self, set_files, tmp_path, capsys):
        path = _edited(set_files["b"], tmp_path,
                       lambda d: d.update(provenance={"family": "c", "p": 4}))
        for cmd in READERS:
            assert run([cmd, path]) == 2, cmd
        # Shaped like a p = 4 set, so only the primality check can reject it.
        fake = str(tmp_path / "p4.json")
        json.dump({"length": 12, "denom": 4, "provenance": {"family": "c", "p": 4},
                   "sequences": [[(n * t) % 4 for t in range(12)] for n in range(4)]},
                  open(fake, "w"))
        capsys.readouterr()
        for cmd in READERS:
            assert run([cmd, fake]) == 2, cmd
            assert "not an odd prime" in capsys.readouterr().err

    def test_string_parameter_exits_2(self, set_files, tmp_path):
        path = _edited(set_files["b"], tmp_path, lambda d: d["provenance"].update(K="4"))
        for cmd in READERS:
            assert run([cmd, path]) == 2, cmd

    def test_unknown_family_exits_2(self, set_files, tmp_path, capsys):
        path = _edited(set_files["b"], tmp_path, lambda d: d["provenance"].update(family="d"))
        for cmd in READERS:
            assert run([cmd, path]) == 2, cmd
            assert "unknown family" in capsys.readouterr().err

    def test_malformed_document_exits_2(self, set_files, tmp_path):
        for edit in (lambda d: d.update(provenance=[1, 2]),
                     lambda d: d["sequences"].__setitem__(0, 5)):
            path = _edited(set_files["b"], tmp_path, edit)
            for cmd in READERS:
                assert run([cmd, path]) == 2, cmd

    def test_non_integer_phase_exits_2(self, set_files, tmp_path, capsys):
        def truncatable(doc):
            doc["sequences"][0][0] += 0.5

        path = _edited(set_files["b"], tmp_path, truncatable)
        assert run(["verify", path]) == 2
        assert "not an integer" in capsys.readouterr().err

    def test_relaxed_comb_set_loads_and_fails_honestly(self, tmp_path):
        # Load does not enforce gcd(P, N*K) = 1; the certificate finds the
        # cyclically equivalent pair that the waived condition lets through.
        path, cert_path = str(tmp_path / "relaxed.json"), str(tmp_path / "cert.json")
        assert run(["gen", "b", "--K", "3", "--N", "2", "--P", "2", "--relaxed", "-o", path]) == 0
        assert run(["verify", path, "-o", cert_path]) == 1
        cert = json.load(open(cert_path))
        assert cert["witnesses"] == [{"kind": "cyclic_equivalence", "pair_and_shift": [0, 1, 8]}]


_BASES = [set_to_dict(s) for s in (
    construct_a(1, 5, 2, power_permutation(5, 3)),
    construct_b(2, 3, 1),
    construct_c(5, exp_mapping(5, 2)),
)]
_ANY = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 40), st.integers(min_value=10**12),
    st.floats(), st.text(max_size=4), st.lists(st.integers(-2, 5), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
_MUTATION = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(["length", "denom", "sequences", "provenance"])),
    st.tuples(st.just("drop_param"), st.sampled_from(["family", "M", "N", "K", "P", "p"])),
    st.tuples(st.just("retype"), st.sampled_from(["length", "denom", "sequences", "provenance"]),
              _ANY),
    st.tuples(st.just("param"), st.sampled_from(["family", "M", "N", "K", "P", "p"]), _ANY),
    st.tuples(st.just("family"), st.text(max_size=3)),
    st.tuples(st.just("non_prime_p"), st.sampled_from([1, 4, 9, 15, 21, 25])),
    st.tuples(st.just("row"), st.integers(0, 2), _ANY),
)


def _mutate(doc, mutation):
    kind, *rest = mutation
    prov = doc.get("provenance")
    if kind == "drop":
        doc.pop(rest[0], None)
    elif kind == "drop_param" and isinstance(prov, dict):
        prov.pop(rest[0], None)
    elif kind == "retype":
        doc[rest[0]] = rest[1]
    elif kind == "param" and isinstance(prov, dict):
        prov[rest[0]] = rest[1]
    elif kind == "family":
        doc["provenance"] = dict(prov) if isinstance(prov, dict) else {}
        doc["provenance"]["family"] = rest[0]
    elif kind == "non_prime_p":
        doc["provenance"] = {"family": "c", "p": rest[0]}
    elif kind == "row" and isinstance(doc.get("sequences"), list) and doc["sequences"]:
        doc["sequences"][rest[0] % len(doc["sequences"])] = rest[1]


class TestFuzzedDocuments:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(base=st.sampled_from(range(len(_BASES))),
           mutations=st.lists(_MUTATION, min_size=1, max_size=3))
    def test_readers_exit_0_1_or_2(self, base, mutations, capsys):
        doc = json.loads(json.dumps(_BASES[base]))
        for mutation in mutations:
            _mutate(doc, mutation)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "set.json")
            with open(path, "w") as f:
                json.dump(doc, f)
            for cmd in READERS:
                assert main([cmd, path]) in (0, 1, 2), (cmd, doc)
        capsys.readouterr()
