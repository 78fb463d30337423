import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ambizone import (
    DelayDopplerZone,
    PhaseSequence,
    SequenceSet,
    certify,
    construct_a,
    construct_b,
    construct_c,
    cyclic_shift_ratio,
    dft,
    exp_mapping,
    omega_for_b,
    power_permutation,
    spectral_tolerance,
    verify_comb_magnitude,
    verify_cyclically_distinct,
    verify_spectral_null,
)
from ambizone.analysis import SpectralNullSet


class TestOmegaForB:
    def test_comb_parameters(self):
        omega = omega_for_b(4, 5, 1)
        assert omega.length == 105
        assert omega.size == 80  # N^2*(K-1) + N*P
        # Second branch: 20 + 21*alpha.
        for alpha in range(5):
            assert 20 + 21 * alpha in omega.forbidden
        # First branch spot check: 21*2 + 4*3 + 1 = 55.
        assert 55 in omega.forbidden
        assert 0 not in omega.forbidden

    def test_k1_is_empty(self):
        omega = omega_for_b(1, 4, 0)
        assert omega.size == 0

    def test_small_explicit_enumeration(self):
        # K=2, N=2, P=1: {5a + 2b + 1} U {4 + 5a} over a,b in Z_2.
        omega = omega_for_b(2, 2, 1)
        assert omega.forbidden == (1, 3, 4, 6, 8, 9)

    def test_small_enumeration_matches_duals(self):
        omega = omega_for_b(2, 2, 1)
        sset = construct_b(2, 2, 1)
        for s in sset.sequences:
            mags = dft(s).magnitudes()
            assert np.all(mags[list(omega.forbidden)] < 1e-9)
            keep = [i for i in range(10) if i not in omega.forbidden]
            assert np.all(mags[keep] > 1e-9)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            omega_for_b(2, 2, 2)

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            SpectralNullSet(10, (1, 1, 2))


class TestVerifySpectralNull:
    def test_comb_set_passes(self, comb_set):
        omega = omega_for_b(4, 5, 1)
        assert verify_spectral_null(comb_set, omega, tol=1e-9)

    def test_all_ones_set_with_nondc_null(self):
        sset = SequenceSet((PhaseSequence(1, (0,) * 8),))
        assert verify_spectral_null(sset, SpectralNullSet(8, (1,)))
        assert not verify_spectral_null(sset, SpectralNullSet(8, (0,)))

    def test_adding_dc_bin_fails(self, comb_set):
        omega = omega_for_b(4, 5, 1)
        widened = SpectralNullSet(105, omega.forbidden + (0,))
        assert not verify_spectral_null(comb_set, widened, tol=1e-9)

    def test_length_mismatch_raises(self, comb_set):
        with pytest.raises(ValueError):
            verify_spectral_null(comb_set, SpectralNullSet(10, (1,)))

    def test_empty_null_set_vacuous(self, comb_set):
        assert verify_spectral_null(comb_set, SpectralNullSet(105, ()))


class TestVerifyCombMagnitude:
    def test_comb_set_passes(self, comb_set):
        assert verify_comb_magnitude(comb_set, 4, 5, 1, tol=1e-9)

    def test_support_cardinality_is_n_squared(self, comb_set):
        # Each dual occupies exactly the N^2 = 25 bins outside the null set,
        # consistent with Parseval: 25 * (K + P/N) = 25 * 4.2 = 105 = L.
        for s in comb_set.sequences:
            support = dft(s).support(1e-9)
            assert len(support) == 25
        assert 25 * (4 + 1 / 5) == pytest.approx(105.0)

    def test_supports_shift_disjoint_for_small_doppler(self, comb_set):
        # The common support never meets its own translate by 0 < |v| < K,
        # which is what forces zero ambiguity at small nonzero Dopplers.
        supports = [set(dft(s).support(1e-9)) for s in comb_set.sequences]
        for sup in supports:
            assert sup == supports[0]
        base = supports[0]
        for v in (1, 2, 3):
            assert not base & {(i - v) % 105 for i in base}
            assert not base & {(i + v) % 105 for i in base}

    def test_tampered_sequence_fails(self, comb_set):
        phases = list(comb_set.sequences[0].phases)
        phases[3] = (phases[3] + 1) % 105
        seqs = (PhaseSequence(105, tuple(phases)),) + comb_set.sequences[1:]
        tampered = SequenceSet(seqs, dict(comb_set.provenance))
        assert not verify_comb_magnitude(tampered, 4, 5, 1, tol=1e-9)

    def test_wrong_provenance_raises(self, family_a_set):
        with pytest.raises(ValueError, match="family"):
            verify_comb_magnitude(family_a_set, 4, 5, 1)


class TestVerifyCyclicallyDistinct:
    def test_family_a(self, family_a_set):
        ok, witness = verify_cyclically_distinct(family_a_set)
        assert ok and witness is None

    def test_comb_set(self, comb_set):
        assert verify_cyclically_distinct(comb_set)[0]

    def test_prime_mapping_set(self, laz_p5_set):
        assert verify_cyclically_distinct(laz_p5_set)[0]

    def test_planted_duplicate_with_witness(self, laz_p5_set):
        seqs = list(laz_p5_set.sequences)
        seqs[2] = seqs[0].cyclic_shift(7)
        mutated = SequenceSet(tuple(seqs), {"family": "external"})
        ok, witness = verify_cyclically_distinct(mutated)
        assert not ok
        assert witness == (0, 2, 13)
        i, j, tau = witness
        # The witness genuinely exhibits the equivalence.
        assert cyclic_shift_ratio(mutated.sequences[i], mutated.sequences[j], tau) is not None

    def test_rotated_duplicate_detected(self, laz_p5_set):
        seqs = list(laz_p5_set.sequences)
        seqs[4] = seqs[1].cyclic_shift(3).rotated(2)
        ok, witness = verify_cyclically_distinct(SequenceSet(tuple(seqs)))
        assert not ok
        assert witness[0] == 1 and witness[1] == 4

    def test_invariant_under_global_rotation(self, laz_p5_set):
        rotated = SequenceSet(
            tuple(s.rotated(3) for s in laz_p5_set.sequences), {"family": "external"}
        )
        assert verify_cyclically_distinct(rotated)[0]

    def test_p3_prime_mapping_set_is_not_distinct(self):
        # Genuine boundary case: with a two-point mapping domain the
        # exponential mapping is affine, and s_0 equals s_1 shifted by 4
        # times the constant w_3 (phase differences all equal 1 mod 3).
        from ambizone import construct_c, exp_mapping

        sset = construct_c(3, exp_mapping(3))
        ok, witness = verify_cyclically_distinct(sset)
        assert not ok
        assert witness == (0, 1, 4)


def distinct_by_brute_force(sset):
    """First (i, j, tau) in lexicographic order with a constant phase ratio."""
    seqs = sset.sequences
    for i in range(sset.size):
        for j in range(i + 1, sset.size):
            for tau in range(sset.length):
                if cyclic_shift_ratio(seqs[i], seqs[j], tau) is not None:
                    return False, (i, j, tau)
    return True, None


@st.composite
def sets_with_planted_copies(draw):
    """Small sets whose rows are random, periodic, linear (constant or nearly
    constant difference sequence) or shifted and rotated copies of earlier rows."""
    length, denom = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    phase = st.integers(0, denom - 1)
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["random", "periodic", "linear", "copy", "copy"]))
        if kind == "copy" and rows:
            row = draw(st.sampled_from(rows))
            row = row.cyclic_shift(draw(st.integers(0, length - 1))).rotated(draw(phase))
        elif kind == "periodic":
            periods = [p for p in range(1, length) if length % p == 0] or [1]
            period = draw(st.sampled_from(periods))
            base = draw(st.lists(phase, min_size=period, max_size=period))
            row = PhaseSequence(denom, tuple(base[t % period] for t in range(length)))
        elif kind == "linear":
            start, step = draw(phase), draw(phase)
            row = PhaseSequence(denom, tuple(start + step * t for t in range(length)))
        else:
            row = PhaseSequence(denom, tuple(draw(st.lists(phase, min_size=length,
                                                           max_size=length))))
        rows.append(row)
    return SequenceSet(tuple(rows))


@pytest.fixture(scope="module")
def laz_p61_set():
    """61 sequences of length 3660 from the exponential mapping for p = 61."""
    return construct_c(61, exp_mapping(61))


class TestDistinctnessAgainstBruteForce:
    @settings(max_examples=400, deadline=None)
    @given(sset=sets_with_planted_copies())
    def test_verdict_and_witness_match(self, sset):
        assert verify_cyclically_distinct(sset) == distinct_by_brute_force(sset)

    @settings(max_examples=200, deadline=None)
    @given(period=st.integers(2, 4), repeats=st.integers(2, 3), denom=st.integers(2, 5),
           data=st.data())
    def test_periodic_copies_match(self, period, repeats, denom, data):
        # Shifts of a periodic row match at several tau; only the smallest
        # is the witness.
        phase = st.integers(0, denom - 1)
        base = data.draw(st.lists(phase, min_size=period, max_size=period))
        row = PhaseSequence(denom, tuple(base * repeats))
        copies = data.draw(st.lists(st.tuples(st.integers(0, period * repeats - 1), phase),
                                    min_size=1, max_size=3))
        sset = SequenceSet((row,) + tuple(row.cyclic_shift(s).rotated(c) for s, c in copies))
        assert verify_cyclically_distinct(sset) == distinct_by_brute_force(sset)

    def test_length_one_and_order_one(self):
        # Every length-1 sequence, and every sequence over D = 1, is a
        # constant multiple of any other of its length.
        one = SequenceSet((PhaseSequence(5, (3,)), PhaseSequence(5, (1,))))
        assert verify_cyclically_distinct(one) == (False, (0, 1, 0))
        trivial = SequenceSet((PhaseSequence(1, (0,) * 6),) * 2)
        assert verify_cyclically_distinct(trivial) == (False, (0, 1, 0))

    def test_periodic_difference_takes_smallest_shift(self):
        # Period 3: shifts 1, 4 and 7 all match; the witness names 1. The
        # least rotation of a's difference sequence starts at offset 2, of
        # b's at 0, so the offsets are reduced modulo the period, not L.
        a = PhaseSequence(5, (1, 3, 0) * 3)
        b = a.cyclic_shift(-7).rotated(4)
        ok, witness = verify_cyclically_distinct(SequenceSet((a, b)))
        assert (ok, witness) == (False, (0, 1, 1))
        assert cyclic_shift_ratio(a, b, 1) == 1

    def test_large_family_a_is_distinct(self):
        sset = construct_a(2, 31, 3, power_permutation(31, 7))
        assert (sset.size, sset.length) == (62, 1922)
        assert verify_cyclically_distinct(sset) == (True, None)

    def test_large_family_c_is_distinct(self, laz_p61_set):
        assert verify_cyclically_distinct(laz_p61_set) == (True, None)

    def test_large_family_c_planted_copy(self, laz_p61_set):
        seqs = list(laz_p61_set.sequences)
        seqs[40] = seqs[3].cyclic_shift(1000).rotated(2)
        ok, witness = verify_cyclically_distinct(SequenceSet(tuple(seqs)))
        assert not ok and witness[:2] == (3, 40)
        tau = next(t for t in range(len(seqs[3].phases))
                   if cyclic_shift_ratio(seqs[3], seqs[40], t) is not None)
        assert witness[2] == tau == 3660 - 1000


class TestCertify:
    def test_family_a_certificate(self, family_a_set):
        cert = certify(family_a_set)
        assert cert["verdicts"]["claims_hold"]
        assert cert["verdicts"]["zone_claim"]
        assert cert["verdicts"]["cyclically_distinct"]
        assert cert["claims"]["zone"] == {"zx": 4, "zy": 3}
        assert cert["claims"]["zaz_ratio"] == pytest.approx(0.923077, abs=1e-6)
        assert cert["measured"]["theta_max"] <= cert["tolerances"]["ambiguity_zero"]
        assert cert["measured"]["optimality"]["verdict"] == "zaz-feasible"

    def test_family_a_k1_adds_zcz_verdicts(self):
        from ambizone import construct_a, power_permutation

        sset = construct_a(1, 5, 1, power_permutation(5, 3))
        cert = certify(sset)
        assert cert["verdicts"]["zcz"]
        assert cert["verdicts"]["tfm_optimal"]
        assert cert["verdicts"]["claims_hold"]

    def test_comb_certificate(self, comb_set):
        cert = certify(comb_set)
        assert cert["verdicts"]["claims_hold"]
        assert cert["verdicts"]["spectral_null"]
        assert cert["verdicts"]["comb_magnitude"]
        assert cert["claims"]["zone"] == {"zx": 5, "zy": 4}
        assert cert["measured"]["spectral_null_count"] == 80

    def test_prime_mapping_certificate(self, laz_p5_set):
        cert = certify(laz_p5_set)
        assert cert["verdicts"]["claims_hold"]
        assert cert["claims"]["theta_max"] == 5.0
        assert cert["claims"]["rho_laz"] == pytest.approx(1.218349, abs=1e-6)
        assert cert["measured"]["theta_max"] == pytest.approx(5.0, abs=2e-5)
        assert cert["measured"]["optimality"]["verdict"] == "asymptotic"

    def test_tampered_set_fails_with_witness(self, family_a_set):
        phases = list(family_a_set.sequences[0].phases)
        phases[17] = (phases[17] + 1) % 13
        seqs = (PhaseSequence(13, tuple(phases)),) + family_a_set.sequences[1:]
        tampered = SequenceSet(seqs, dict(family_a_set.provenance))
        cert = certify(tampered)
        assert not cert["verdicts"]["zone_claim"]
        assert not cert["verdicts"]["claims_hold"]
        peaks = [w for w in cert["witnesses"] if w["kind"] == "ambiguity_peak"]
        assert peaks and peaks[0]["magnitude"] > cert["tolerances"]["ambiguity_zero"]

    def test_external_set_needs_zone(self):
        sset = SequenceSet((PhaseSequence(4, (0, 1, 2, 3)),))
        with pytest.raises(ValueError, match="zone"):
            certify(sset)
        cert = certify(sset, zone=DelayDopplerZone(2, 2))
        assert cert["claims"] == {}
        assert cert["verdicts"]["claims_hold"]  # vacuous
        assert "theta_max" in cert["measured"]

    def test_explicit_zone_differs_from_claimed(self, laz_p5_set):
        # Scanning a non-claimed zone yields measurements without a zone verdict.
        cert = certify(laz_p5_set, zone=DelayDopplerZone(2, 2))
        assert "zone_claim" not in cert["verdicts"]
        assert cert["verdicts"]["cyclically_distinct"]
