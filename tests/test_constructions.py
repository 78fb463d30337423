import pytest

from ambizone import (
    DelayDopplerZone,
    MappingPi,
    PermutationSigma,
    af,
    cf,
    construct_a,
    construct_b,
    construct_c,
    exp_mapping,
    find_primitive_element,
    power_permutation,
    sidelobe_stats,
    validate_mapping,
    zero_tolerance,
)
from ambizone.constructions import (
    time_index_parts_a,
    time_index_parts_b,
    time_index_parts_c,
)
from golden import GOLDEN_P5_ALPHA3


class TestIndexDecompositions:
    @pytest.mark.parametrize("m,n", [(1, 5), (2, 5), (3, 7), (4, 13)])
    def test_family_a_round_trip(self, m, n):
        for t in range(m * n * n):
            t2, t1, t0 = time_index_parts_a(t, m, n)
            assert 0 <= t2 < n and 0 <= t1 < m and 0 <= t0 < n
            assert m * n * t2 + n * t1 + t0 == t

    @pytest.mark.parametrize("k,n,p", [(4, 5, 1), (3, 2, 1), (5, 3, 2)])
    def test_family_b_round_trip(self, k, n, p):
        for t in range(n * (k * n + p)):
            t1, t0 = time_index_parts_b(t, n)
            assert 0 <= t0 < n
            assert n * t1 + t0 == t

    @pytest.mark.parametrize("p", [3, 5, 7, 13])
    def test_family_c_round_trip(self, p):
        for t in range(p * (p - 1)):
            t1, t0 = time_index_parts_c(t, p)
            assert 0 <= t1 < p and 0 <= t0 < p - 1
            assert (p - 1) * t1 + t0 == t


class TestPowerPermutation:
    def test_mod13_exponent5(self):
        sigma = power_permutation(13, 5)
        assert sigma.table == tuple(pow(x, 5, 13) for x in range(13))

    def test_mod5_exponent3(self):
        assert power_permutation(5, 3).table == (0, 1, 3, 2, 4)

    def test_gcd_violation(self):
        with pytest.raises(ValueError, match="must be 1"):
            power_permutation(7, 2)

    def test_composite_modulus(self):
        with pytest.raises(ValueError, match="odd prime"):
            power_permutation(9, 2)

    def test_exponent_out_of_range(self):
        with pytest.raises(ValueError):
            power_permutation(5, 1)
        with pytest.raises(ValueError):
            power_permutation(5, 5)


class TestPermutationSigma:
    def test_rejects_affine_table(self):
        # x -> 2x + 1 mod 5 is a permutation but affine.
        with pytest.raises(ValueError, match="affine"):
            PermutationSigma(5, tuple((2 * x + 1) % 5 for x in range(5)))

    def test_rejects_identity(self):
        with pytest.raises(ValueError, match="affine"):
            PermutationSigma(5, (0, 1, 2, 3, 4))

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            PermutationSigma(4, (0, 0, 1, 2))

    def test_skip_check_allows_affine(self):
        sigma = PermutationSigma(5, (0, 1, 2, 3, 4), check_non_affine=False)
        assert sigma(6) == 1

    def test_callable(self):
        sigma = power_permutation(5, 3)
        assert sigma(2) == 3


class TestPrimitiveElements:
    def test_smallest_mod_13(self):
        assert find_primitive_element(13) == 2

    def test_smallest_mod_7(self):
        assert find_primitive_element(7) == 3

    def test_override_accepted(self):
        assert find_primitive_element(5, override=3) == 3

    def test_override_rejected(self):
        # 4 has order 2 mod 5.
        with pytest.raises(ValueError, match="not a primitive element"):
            find_primitive_element(5, override=4)

    def test_non_prime(self):
        with pytest.raises(ValueError, match="odd prime"):
            find_primitive_element(4)


class TestExpMapping:
    def test_p5_default_generator(self):
        pi = exp_mapping(5)
        assert pi.table == (1, 2, 4, 3)

    def test_p5_with_override(self):
        assert exp_mapping(5, alpha=3).table == (1, 3, 4, 2)

    def test_p3(self):
        assert exp_mapping(3).table == (1, 2)

    def test_p7(self):
        assert exp_mapping(7).table == (1, 3, 2, 6, 4, 5)

    def test_gen_c_validates_the_mapping_once(self, monkeypatch):
        from ambizone import constructions

        calls = []

        def counting(pi, force=False):
            calls.append(pi.p)
            return validate_mapping(pi, force)

        monkeypatch.setattr(constructions, "validate_mapping", counting)
        construct_c(11, exp_mapping(11))
        assert calls == [11]


class TestValidateMapping:
    def test_exponential_mapping_passes(self):
        ok, witness = validate_mapping(exp_mapping(7))
        assert ok and witness is None

    def test_constant_mapping_fails(self):
        pi = MappingPi(5, (1, 1, 1, 1))
        ok, witness = validate_mapping(pi)
        assert not ok
        assert witness == (1, 0)

    def test_affine_in_argument_fails(self):
        pi = MappingPi(5, (0, 1, 2, 3))
        ok, witness = validate_mapping(pi)
        assert not ok
        a, b = witness
        # The witness pair really does admit two solutions.
        m, p = 4, 5
        solutions = [
            x for x in range(m) if (pi.table[(x + a) % m] - pi.table[x]) % p == b
        ]
        assert len(solutions) >= 2

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MappingPi(5, (1, 2, 3))
        with pytest.raises(ValueError):
            MappingPi(5, (1, 2, 3, 7))
        with pytest.raises(ValueError):
            MappingPi(4, (1, 2, 3))


class TestConstructA:
    def test_shape_and_order(self, family_a_set):
        assert family_a_set.size == 13
        assert family_a_set.length == 169
        assert family_a_set.denom == 13
        assert family_a_set.provenance["family"] == "a"

    def test_elements_match_formula(self, family_a_set):
        sigma = power_permutation(13, 5)
        for n in (0, 5, 12):
            seq = family_a_set.sequences[n]
            for t in (0, 1, 25, 100, 168):
                t2, t1, t0 = time_index_parts_a(t, 1, 13)
                expected = (3 * t2 * t0 + n * sigma(t0)) % 13
                assert seq.phases[t] == expected

    def test_multichannel_denominator(self):
        sset = construct_a(2, 5, 1, power_permutation(5, 3))
        assert sset.size == 10
        assert sset.length == 50
        assert sset.denom == 10  # lcm(5, 2)

    def test_multichannel_elements(self):
        sigma = power_permutation(5, 3)
        sset = construct_a(2, 5, 2, sigma)
        n1, n0 = 1, 3
        seq = sset.sequences[5 * n1 + n0]
        for t in (0, 7, 23, 49):
            t2, t1, t0 = time_index_parts_a(t, 2, 5)
            expected = (2 * (2 * t2 * t0 + n0 * sigma(t0)) + 5 * (n1 * t1)) % 10
            assert seq.phases[t] == expected

    def test_gcd_violation(self):
        with pytest.raises(ValueError, match="gcd"):
            construct_a(1, 4, 2, PermutationSigma(4, (0, 2, 1, 3)))

    def test_k_not_less_than_n(self):
        with pytest.raises(ValueError, match="K < N"):
            construct_a(1, 5, 5, power_permutation(5, 3))

    def test_sigma_modulus_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            construct_a(1, 7, 3, power_permutation(5, 3))

    def test_zero_zone_small_parameters(self):
        sset = construct_a(1, 5, 3, power_permutation(5, 3))
        zone = DelayDopplerZone(5 // 3, 3)
        stats = sidelobe_stats(sset, zone)
        assert stats.theta_max <= zero_tolerance(25)

    @pytest.mark.parametrize("m,n,k,a", [(1, 5, 2, 3), (2, 5, 3, 3), (1, 7, 3, 5)])
    def test_zero_zone_parameter_sweep(self, m, n, k, a):
        sset = construct_a(m, n, k, power_permutation(n, a))
        stats = sidelobe_stats(sset, DelayDopplerZone(n // k, k))
        assert stats.theta_max <= zero_tolerance(sset.length)


class TestConstructB:
    def test_shape_and_order(self, comb_set):
        assert comb_set.size == 5
        assert comb_set.length == 105
        assert comb_set.denom == 105
        assert comb_set.provenance == {"family": "b", "K": 4, "N": 5, "P": 1}

    def test_elements_match_formula(self, comb_set):
        for n in (0, 2, 4):
            seq = comb_set.sequences[n]
            for t in (0, 1, 52, 104):
                t1, t0 = time_index_parts_b(t, 5)
                assert seq.phases[t] == (21 * n * t0 + 20 * t1 * t0) % 105

    def test_p_not_less_than_k(self):
        with pytest.raises(ValueError, match="P < K"):
            construct_b(2, 3, 2)

    def test_gcd_enforced_and_relaxable(self):
        # P = 2, N*K = 6 shares a factor.
        with pytest.raises(ValueError, match="gcd"):
            construct_b(3, 2, 2)
        sset = construct_b(3, 2, 2, relaxed=True)
        assert sset.length == 2 * (3 * 2 + 2)

    def test_zero_zone_small_parameters(self):
        sset = construct_b(3, 2, 1)
        assert sset.size == 2 and sset.length == 14
        stats = sidelobe_stats(sset, DelayDopplerZone(2, 3))
        assert stats.theta_max <= zero_tolerance(14)


class TestConstructC:
    def test_golden_vectors(self, laz_p5_set):
        assert laz_p5_set.size == 5
        assert laz_p5_set.length == 20
        assert laz_p5_set.denom == 5
        for n in range(5):
            assert laz_p5_set.sequences[n].phases == GOLDEN_P5_ALPHA3[n]

    def test_p3_peak_over_zone(self):
        sset = construct_c(3, exp_mapping(3))
        assert sset.size == 3 and sset.length == 6
        stats = sidelobe_stats(sset, DelayDopplerZone(2, 3))
        assert stats.theta_max == pytest.approx(3.0, abs=zero_tolerance(6))

    def test_not_prime(self):
        with pytest.raises(ValueError, match="odd prime"):
            construct_c(4, exp_mapping(5))

    def test_mapping_modulus_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            construct_c(7, exp_mapping(5))

    def test_invalid_mapping_rejected_with_witness(self):
        with pytest.raises(ValueError, match=r"\(a, b\)"):
            construct_c(5, MappingPi(5, (1, 1, 1, 1)))

    def test_nonzero_magnitudes_are_exactly_p_in_extended_zones(self):
        p = 5
        sset = construct_c(p, exp_mapping(p, alpha=3))
        L = p * (p - 1)
        s0 = sset.sequences[0]
        # Delay-limited strip, all Dopplers; and Doppler-limited strip, all delays.
        points = [(tau, v) for tau in range(-p + 2, p - 1) for v in range(-L + 1, L)]
        points += [(tau, v) for tau in range(-L + 1, L) for v in range(-p + 1, p)]
        for tau, v in points[:: 7]:  # decimated sweep keeps runtime low
            if (tau, v) == (0, 0):
                continue
            mag = abs(af(s0, s0, tau, v))
            assert mag <= p + 1e-9
            assert min(mag, abs(mag - p)) < 1e-9


class TestCrossFamilyProperties:
    def test_m1_autocorrelation_ideal(self):
        for n, k, a in ((5, 2, 3), (7, 3, 5)):
            sset = construct_a(1, n, k, power_permutation(n, a))
            tol = zero_tolerance(n * n)
            for s in sset.sequences:
                for tau in range(1, n * n):
                    assert abs(cf(s, s, tau)) <= tol

    def test_peak_is_length_everywhere(self, family_a_set, comb_set, laz_p5_set):
        for sset in (family_a_set, comb_set, laz_p5_set):
            for s in sset.sequences[:2]:
                assert af(s, s, 0, 0) == pytest.approx(sset.length)
