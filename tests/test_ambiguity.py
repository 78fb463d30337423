import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ambizone import (
    DelayDopplerZone,
    PhaseSequence,
    SequenceSet,
    af,
    af_surface,
    af_via_frequency,
    cf,
    construct_a,
    construct_c,
    dft,
    exp_mapping,
    power_permutation,
    sidelobe_stats,
    verify_zcz,
    zero_tolerance,
)


def af_slow(a, b, tau, v):
    """Independent scalar oracle for the defining ambiguity sum."""
    L, D = a.length, a.denom
    total = 0j
    for t in range(L):
        ang = (
            2 * math.pi * a.phases[t] / D
            - 2 * math.pi * b.phases[(t + tau) % L] / D
            + 2 * math.pi * v * t / L
        )
        total += cmath.exp(1j * ang)
    return total


@st.composite
def pairs_with_grid_point(draw, max_len=16, max_denom=12):
    denom = draw(st.integers(1, max_denom))
    length = draw(st.integers(1, max_len))
    ints = st.integers(0, denom - 1)
    a = PhaseSequence(denom, tuple(draw(st.lists(ints, min_size=length, max_size=length))))
    b = PhaseSequence(denom, tuple(draw(st.lists(ints, min_size=length, max_size=length))))
    tau = draw(st.integers(-length + 1, length - 1))
    v = draw(st.integers(-length + 1, length - 1))
    return a, b, tau, v


@st.composite
def pairs_with_grid(draw, max_len=16, max_denom=12):
    """Two sequences and an inclusive (tau, v) grid: random, one row, one
    column or the full (-L+1, L-1) square."""
    denom = draw(st.integers(1, max_denom))
    length = draw(st.integers(1, max_len))
    ints = st.integers(0, denom - 1)
    a = PhaseSequence(denom, tuple(draw(st.lists(ints, min_size=length, max_size=length))))
    b = PhaseSequence(denom, tuple(draw(st.lists(ints, min_size=length, max_size=length))))
    lag = st.integers(-length + 1, length - 1)

    def span():
        return tuple(sorted((draw(lag), draw(lag))))

    def point():
        x = draw(lag)
        return x, x

    full = (-length + 1, length - 1)
    shape = draw(st.sampled_from(["random", "row", "column", "full"]))
    taus, vs = {
        "random": lambda: (span(), span()),
        "row": lambda: (point(), span()),
        "column": lambda: (span(), point()),
        "full": lambda: (full, full),
    }[shape]()
    return a, b, taus, vs


def assert_surface_matches_oracle(a, b, taus, vs, method):
    surf = af_surface(a, b, taus, vs, method=method)
    assert surf.values.shape == (taus[1] - taus[0] + 1, vs[1] - vs[0] + 1)
    for i, tau in enumerate(range(taus[0], taus[1] + 1)):
        for j, v in enumerate(range(vs[0], vs[1] + 1)):
            assert abs(surf.values[i, j] - af_slow(a, b, tau, v)) <= 1e-9 * a.length


class TestAf:
    def test_origin_value_is_energy(self):
        seq = PhaseSequence(7, (0, 3, 5, 1, 6))
        assert af(seq, seq, 0, 0) == pytest.approx(5.0)

    @given(pairs_with_grid_point())
    def test_matches_scalar_oracle(self, case):
        a, b, tau, v = case
        assert af(a, b, tau, v) == pytest.approx(af_slow(a, b, tau, v), abs=1e-9 * a.length)

    @given(pairs_with_grid_point())
    def test_magnitude_bounded_by_length(self, case):
        a, b, tau, v = case
        assert abs(af(a, b, tau, v)) <= a.length + 1e-9

    @given(pairs_with_grid_point())
    def test_swap_symmetry(self, case):
        # AF_{a,b}(tau, v) = w_L^{-v tau} * conj(AF_{b,a}(-tau, -v))
        a, b, tau, v = case
        L = a.length
        lhs = af(a, b, tau, v)
        rhs = cmath.exp(-2j * math.pi * v * tau / L) * af(b, a, -tau, -v).conjugate()
        assert lhs == pytest.approx(rhs, abs=1e-9 * L)

    def test_zero_inside_zone_for_family_a(self, family_a_set):
        s0 = family_a_set.sequences[0]
        tol = zero_tolerance(169)
        for tau in range(-3, 4):
            for v in range(-2, 3):
                if (tau, v) == (0, 0):
                    continue
                assert abs(af(s0, s0, tau, v)) <= tol

    def test_values_cluster_at_zero_or_p_for_prime_mapping(self, laz_p5_set):
        s0 = laz_p5_set.sequences[0]
        for tau in range(-3, 4):
            for v in range(-4, 5):
                if (tau, v) == (0, 0):
                    continue
                mag = abs(af(s0, s0, tau, v))
                assert min(abs(mag - 0.0), abs(mag - 5.0)) < 1e-9
                assert mag <= 5.0 + 1e-9

    def test_out_of_range_raises(self):
        seq = PhaseSequence(4, (0, 1, 2, 3))
        with pytest.raises(ValueError):
            af(seq, seq, 4, 0)
        with pytest.raises(ValueError):
            af(seq, seq, 0, -4)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            af(PhaseSequence(4, (0, 1)), PhaseSequence(4, (0, 1, 2)), 0, 0)


class TestCf:
    def test_equals_af_at_zero_doppler(self):
        a = PhaseSequence(8, (0, 3, 7, 2, 5))
        b = PhaseSequence(8, (1, 1, 4, 6, 0))
        for tau in range(-4, 5):
            assert cf(a, b, tau) == af(a, b, tau, 0)

    def test_peak(self):
        seq = PhaseSequence(9, (0, 4, 8, 1))
        assert cf(seq, seq, 0) == pytest.approx(4.0)

    def test_ideal_autocorrelation_family_a_m1(self, family_a_set):
        tol = zero_tolerance(169)
        s = family_a_set.sequences[4]
        for tau in range(1, 169):
            assert abs(cf(s, s, tau)) <= tol


class TestDft:
    def test_all_ones_is_dc_impulse(self):
        seq = PhaseSequence(1, (0,) * 9)
        dual = dft(seq).values
        assert dual[0] == pytest.approx(3.0)
        assert np.all(np.abs(dual[1:]) < 1e-12)

    def test_single_tone_length_4(self):
        # (1, i, -1, -i) concentrates in bin 1 with value 2.
        seq = PhaseSequence(4, (0, 1, 2, 3))
        dual = dft(seq).values
        assert dual[1] == pytest.approx(2.0)
        mags = np.abs(dual)
        assert mags[0] < 1e-12 and mags[2] < 1e-12 and mags[3] < 1e-12

    def test_comb_set_bin_magnitudes(self, comb_set):
        # Off the shared null set every bin has magnitude sqrt(K + P/N).
        expected = math.sqrt(4 + 1 / 5)
        assert expected == pytest.approx(2.049390, abs=1e-6)
        mags = dft(comb_set.sequences[0]).magnitudes()
        nonzero = mags[mags > 1e-9]
        assert np.all(np.abs(nonzero - expected) < 1e-9)

    @given(st.integers(1, 12), st.integers(1, 32), st.data())
    @settings(max_examples=60)
    def test_parseval(self, denom, length, data):
        phases = data.draw(
            st.lists(st.integers(0, denom - 1), min_size=length, max_size=length)
        )
        seq = PhaseSequence(denom, tuple(phases))
        energy = float(np.sum(np.abs(dft(seq).values) ** 2))
        assert abs(energy - length) <= 1e-9 * length


class TestAfViaFrequency:
    def test_origin(self):
        seq = PhaseSequence(6, (0, 2, 4, 1, 3))
        assert af_via_frequency(seq, seq, 0, 0) == pytest.approx(5.0)

    @given(pairs_with_grid_point())
    @settings(max_examples=60)
    def test_matches_direct(self, case):
        a, b, tau, v = case
        assert af_via_frequency(a, b, tau, v) == pytest.approx(
            af(a, b, tau, v), abs=1e-6 * a.length
        )

    def test_zero_for_small_doppler_on_comb_set(self, comb_set):
        # Shifting the dual by 0 < |v| < K moves it off its own support.
        s0, s1 = comb_set.sequences[0], comb_set.sequences[1]
        for v in (-3, -2, -1, 1, 2, 3):
            for tau in (-7, -1, 0, 2, 11):
                assert abs(af_via_frequency(s0, s1, tau, v)) < 1e-9 * 105
                assert abs(af_via_frequency(s0, s0, tau, v)) < 1e-9 * 105

    def test_matches_direct_at_length_512(self):
        rng = np.random.default_rng(512)
        a = PhaseSequence(509, tuple(int(x) for x in rng.integers(0, 509, size=512)))
        b = PhaseSequence(509, tuple(int(x) for x in rng.integers(0, 509, size=512)))
        for _ in range(200):
            tau = int(rng.integers(-511, 512))
            v = int(rng.integers(-511, 512))
            assert af_via_frequency(a, b, tau, v) == pytest.approx(
                af(a, b, tau, v), abs=1e-6 * 512
            )


class TestAfSurface:
    def test_full_grid_matches_point_calls(self, laz_p5_set):
        s0, s1 = laz_p5_set.sequences[0], laz_p5_set.sequences[1]
        surf = af_surface(s0, s1, (-5, 5), (-6, 6))
        for tau in range(-5, 6):
            for v in range(-6, 7):
                assert surf.value_at(tau, v) == pytest.approx(af(s0, s1, tau, v), abs=1e-9)

    def test_fft_method_matches_direct(self, laz_p5_set):
        s0, s1 = laz_p5_set.sequences[0], laz_p5_set.sequences[1]
        direct = af_surface(s0, s1, (-19, 19), (-19, 19), method="direct")
        fast = af_surface(s0, s1, (-19, 19), (-19, 19), method="fft")
        assert np.max(np.abs(direct.values - fast.values)) < 1e-6 * 20

    def test_family_a_auto_surface_zero_zone(self, family_a_set):
        s0 = family_a_set.sequences[0]
        surf = af_surface(s0, s0, (-3, 3), (-2, 2))
        mags = surf.magnitudes()
        assert surf.value_at(0, 0) == pytest.approx(169.0)
        mags[surf.tau_range.index(0), surf.v_range.index(0)] = 0.0
        assert np.max(mags) <= zero_tolerance(169)

    def test_comb_cross_surface_all_zero(self, comb_set):
        s0, s1 = comb_set.sequences[0], comb_set.sequences[1]
        surf = af_surface(s0, s1, (-4, 4), (-3, 3))
        assert np.max(surf.magnitudes()) <= zero_tolerance(105)

    @pytest.mark.parametrize("method", ["direct", "fft"])
    @settings(max_examples=60, deadline=None)
    @given(case=pairs_with_grid())
    def test_matches_slow_oracle_on_every_grid_point(self, method, case):
        assert_surface_matches_oracle(*case, method)

    @pytest.mark.parametrize("method", ["direct", "fft"])
    @pytest.mark.parametrize(
        "a, b",
        [
            (PhaseSequence(3, (2,)), PhaseSequence(3, (1,))),  # L = 1
            (PhaseSequence(1, (0,) * 6), PhaseSequence(1, (0,) * 6)),  # D = 1
        ],
    )
    def test_matches_slow_oracle_on_degenerate_sets(self, method, a, b):
        full = (-a.length + 1, a.length - 1)
        assert_surface_matches_oracle(a, b, full, full, method)

    @pytest.mark.parametrize("method", ["direct", "fft"])
    def test_matches_slow_oracle_across_row_blocks(self, method):
        # 2L-1 = 199 delays against one Doppler bin, and the transpose, are
        # longer than one block of rows in either branch.
        rng = np.random.default_rng(7)
        a = PhaseSequence(11, tuple(rng.integers(0, 11, 100)))
        b = PhaseSequence(11, tuple(rng.integers(0, 11, 100)))
        assert_surface_matches_oracle(a, b, (-99, 99), (3, 3), method)
        assert_surface_matches_oracle(a, b, (-2, -2), (-99, 99), method)

    def test_single_point_grid(self):
        seq = PhaseSequence(5, (0, 1, 2, 3, 4))
        surf = af_surface(seq, seq, (0, 0), (0, 0))
        assert surf.values.shape == (1, 1)
        assert surf.value_at(0, 0) == pytest.approx(5.0)

    def test_invalid_ranges_raise(self):
        seq = PhaseSequence(5, (0, 1, 2, 3))
        with pytest.raises(ValueError):
            af_surface(seq, seq, (2, 1), (0, 0))
        with pytest.raises(ValueError):
            af_surface(seq, seq, (0, 0), (-4, 0))
        with pytest.raises(ValueError):
            af_surface(seq, seq, (0, 4), (0, 0))

    def test_unknown_method_raises(self):
        seq = PhaseSequence(5, (0, 1, 2, 3))
        with pytest.raises(ValueError):
            af_surface(seq, seq, (0, 0), (0, 0), method="magic")


class TestSidelobeStats:
    def test_family_a_zero_zone(self, family_a_set):
        stats = sidelobe_stats(family_a_set, DelayDopplerZone(4, 3))
        assert stats.theta_max <= zero_tolerance(169)

    def test_prime_mapping_peak(self, laz_p5_set):
        stats = sidelobe_stats(laz_p5_set, DelayDopplerZone(4, 5))
        assert stats.theta_max == pytest.approx(5.0, abs=zero_tolerance(20))
        assert stats.theta_max == max(stats.theta_auto, stats.theta_cross)

    def test_fft_method_agrees(self, laz_p5_set):
        zone = DelayDopplerZone(4, 5)
        direct = sidelobe_stats(laz_p5_set, zone, method="direct")
        fast = sidelobe_stats(laz_p5_set, zone, method="fft")
        assert direct.theta_auto == pytest.approx(fast.theta_auto, abs=1e-9)
        assert direct.theta_cross == pytest.approx(fast.theta_cross, abs=1e-9)

    def test_half_plane_scan_covers_negative_delays(self, laz_p5_set):
        # Exhaustive full-rectangle maxima must agree with the scan.
        zone = DelayDopplerZone(4, 5)
        stats = sidelobe_stats(laz_p5_set, zone)
        full_auto = 0.0
        full_cross = 0.0
        for n, s in enumerate(laz_p5_set.sequences):
            for n2, s2 in enumerate(laz_p5_set.sequences):
                for tau in zone.delays():
                    for v in zone.dopplers():
                        mag = abs(af(s, s2, tau, v))
                        if n == n2 and (tau, v) != (0, 0):
                            full_auto = max(full_auto, mag)
                        elif n != n2:
                            full_cross = max(full_cross, mag)
        assert stats.theta_auto == pytest.approx(full_auto, abs=1e-9)
        assert stats.theta_cross == pytest.approx(full_cross, abs=1e-9)

    def test_argmax_reproduces_theta_on_family_c_claimed_zone(self):
        sset = construct_c(7, exp_mapping(7))
        stats = sidelobe_stats(sset, DelayDopplerZone(6, 7))
        assert stats.theta_max == pytest.approx(7.0, abs=zero_tolerance(sset.length))
        self.assert_argmax_reproduces_theta(sset, stats)

    def test_argmax_reproduces_theta_on_random_set(self):
        # Family C ties its maxima at many points; here they are unique.
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 5, size=(4, 13))
        sset = SequenceSet(tuple(PhaseSequence(5, tuple(r)) for r in rows))
        self.assert_argmax_reproduces_theta(sset, sidelobe_stats(sset, DelayDopplerZone(5, 4)))

    @staticmethod
    def assert_argmax_reproduces_theta(sset, stats):
        L = sset.length
        n, tau, v = stats.argmax_auto
        s = sset.sequences
        assert abs(abs(af(s[n], s[n], tau, v)) - stats.theta_auto) <= 1e-9 * L
        n, n2, tau, v = stats.argmax_cross
        assert abs(abs(af(s[n], s[n2], tau, v)) - stats.theta_cross) <= 1e-9 * L

    def test_degenerate_zone_single_sequence(self):
        sset = SequenceSet((PhaseSequence(1, (0, 0, 0, 0)),))
        stats = sidelobe_stats(sset, DelayDopplerZone(1, 1))
        assert stats.theta_auto == 0.0
        assert stats.theta_cross == 0.0
        assert stats.argmax_auto is None

    def test_zone_too_large_raises(self, laz_p5_set):
        with pytest.raises(ValueError):
            sidelobe_stats(laz_p5_set, DelayDopplerZone(21, 5))


class TestVerifyZcz:
    def test_family_a_k1_is_zcz(self):
        sset = construct_a(2, 5, 1, power_permutation(5, 3))
        assert verify_zcz(sset, 5)

    def test_comb_set_zcz_width_5(self, comb_set):
        assert verify_zcz(comb_set, 5)

    def test_duplicated_sequence_fails(self):
        seq = PhaseSequence(4, (0, 1, 2, 3, 0, 2))
        sset = SequenceSet((seq, seq))
        assert not verify_zcz(sset, 1)

    def test_width_out_of_range_raises(self, comb_set):
        with pytest.raises(ValueError):
            verify_zcz(comb_set, 0)
        with pytest.raises(ValueError):
            verify_zcz(comb_set, 106)

    def test_agrees_with_scalar_cf_loop(self):
        def zcz_by_cf(sset, z, tol):
            L = sset.length
            for n, s in enumerate(sset.sequences):
                for n2, s2 in enumerate(sset.sequences):
                    for tau in range(-z + 1, z):
                        value = abs(cf(s, s2, tau))
                        peak = n == n2 and tau == 0
                        if (abs(value - L) if peak else value) > tol:
                            return False
            return True

        sset = construct_a(1, 5, 1, power_permutation(5, 3))
        phases = list(sset.sequences[2].phases)
        phases[7] += 1
        moved = SequenceSet(
            sset.sequences[:2] + (PhaseSequence(sset.denom, tuple(phases)),) + sset.sequences[3:]
        )
        tol = zero_tolerance(sset.length)
        for s in (sset, moved):
            verdicts = [verify_zcz(s, z) for z in range(1, s.length + 1)]
            assert verdicts == [zcz_by_cf(s, z, tol) for z in range(1, s.length + 1)]
        assert verify_zcz(sset, 5) and not verify_zcz(sset, 6)
        assert not verify_zcz(moved, 1)
