import io
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ambizone import (
    AmbiguitySurface,
    DelayDopplerZone,
    FrequencyDual,
    PhaseSequence,
    SequenceSet,
    cyclic_shift_ratio,
    load_set,
    save_set,
    set_from_dict,
    set_to_dict,
)
from golden import GOLDEN_P5_ALPHA3


@st.composite
def phase_sequences(draw, max_len=24, max_denom=16):
    denom = draw(st.integers(1, max_denom))
    length = draw(st.integers(1, max_len))
    phases = draw(st.lists(st.integers(0, denom - 1), min_size=length, max_size=length))
    return PhaseSequence(denom, tuple(phases))


@st.composite
def phase_sequence_pairs(draw, max_len=20, max_denom=12):
    denom = draw(st.integers(1, max_denom))
    length = draw(st.integers(1, max_len))
    ints = st.integers(0, denom - 1)
    a = draw(st.lists(ints, min_size=length, max_size=length))
    b = draw(st.lists(ints, min_size=length, max_size=length))
    return PhaseSequence(denom, tuple(a)), PhaseSequence(denom, tuple(b))


class TestPhaseSequence:
    def test_evaluate_all_zero_phases(self):
        seq = PhaseSequence(4, (0, 0, 0, 0))
        assert np.allclose(seq.evaluate(), np.ones(4))

    def test_evaluate_fourth_roots(self):
        seq = PhaseSequence(4, (0, 1, 2, 3))
        assert np.allclose(seq.evaluate(), [1, 1j, -1, -1j], atol=1e-12)

    def test_evaluate_round_trips_golden_phases(self):
        seq = PhaseSequence(5, GOLDEN_P5_ALPHA3[0])
        angles = np.angle(seq.evaluate()) / (2 * np.pi / 5)
        recovered = np.rint(angles).astype(int) % 5
        assert tuple(recovered) == GOLDEN_P5_ALPHA3[0]

    @given(phase_sequences())
    def test_evaluate_is_unimodular(self, seq):
        assert np.all(np.abs(np.abs(seq.evaluate()) - 1.0) < 1e-12)

    def test_evaluate_is_memoized_read_only(self):
        seq = PhaseSequence(7, (0, 3, 5, 1, 6))
        twin = PhaseSequence(7, (0, 3, 5, 1, 6))
        before = hash(seq)
        values = seq.evaluate()
        assert seq.evaluate() is values
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 0
        assert seq == twin and hash(seq) == hash(twin) == before
        assert np.array_equal(twin.evaluate(), values)
        assert repr(seq) == repr(twin)

    def test_phases_normalized_into_range(self):
        seq = PhaseSequence(5, (-1, 7, 5))
        assert seq.phases == (4, 2, 0)

    def test_accepts_numpy_integer_phases(self):
        seq = PhaseSequence(5, (np.int64(7), np.uint8(3), np.int32(-1)))
        assert seq.phases == (2, 3, 4)
        assert all(type(p) is int for p in seq.phases)

    @pytest.mark.parametrize(
        "phases",
        [
            (0.9, 2.7, True),
            (0, 2.0, 1),
            (0, np.float64(2), 1),
            (0, True, 1),
            (0, np.bool_(True), 1),
            ("0", 1),
            (0, None),
            (0, 1 + 0j),
        ],
    )
    def test_rejects_non_integer_phases(self, phases):
        with pytest.raises(ValueError, match="integers"):
            PhaseSequence(5, phases)

    def test_rejects_nonpositive_denom(self):
        with pytest.raises(ValueError):
            PhaseSequence(0, (0,))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PhaseSequence(4, ())

    def test_cyclic_shift(self):
        seq = PhaseSequence(7, (0, 1, 2, 3))
        assert seq.cyclic_shift(1).phases == (1, 2, 3, 0)
        assert seq.cyclic_shift(-1).phases == (3, 0, 1, 2)
        assert seq.cyclic_shift(4) == seq

    def test_rotated(self):
        seq = PhaseSequence(5, (0, 1, 4))
        assert seq.rotated(2).phases == (2, 3, 1)


class TestCyclicShiftRatio:
    def test_identity_gives_unit_constant(self):
        seq = PhaseSequence(6, (0, 2, 1, 5))
        assert cyclic_shift_ratio(seq, seq, 0) == 0

    def test_constructed_shift(self):
        seq = PhaseSequence(9, (0, 3, 1, 7, 2, 8))
        assert cyclic_shift_ratio(seq.cyclic_shift(3), seq, 3) == 0

    def test_constructed_shift_with_rotation(self):
        seq = PhaseSequence(9, (0, 3, 1, 7, 2, 8))
        assert cyclic_shift_ratio(seq.cyclic_shift(2).rotated(5), seq, 2) == 5

    def test_golden_pair_not_equivalent_at_any_shift(self, laz_p5_set):
        s0, s1 = laz_p5_set.sequences[0], laz_p5_set.sequences[1]
        for tau in range(20):
            assert cyclic_shift_ratio(s0, s1, tau) is None

    def test_agrees_with_complex_ratio_oracle(self, laz_p5_set):
        # Independent check: constant complex ratio a(t)/b(<t+tau>).
        s0, s1 = laz_p5_set.sequences[0], laz_p5_set.sequences[1]
        a, b = s0.evaluate(), s1.evaluate()
        for tau in range(20):
            ratios = a / np.roll(b, -tau)
            constant = np.all(np.abs(ratios - ratios[0]) < 1e-9)
            assert constant == (cyclic_shift_ratio(s0, s1, tau) is not None)

    @given(phase_sequences(), st.integers(-30, 30), st.integers(0, 15))
    def test_shift_of_self_always_matches(self, seq, tau, c):
        shifted = seq.cyclic_shift(tau).rotated(c)
        assert cyclic_shift_ratio(shifted, seq, tau) == c % seq.denom

    @given(phase_sequence_pairs(), st.integers(-30, 30))
    def test_symmetric_under_inverse_shift(self, pair, tau):
        a, b = pair
        forward = cyclic_shift_ratio(a, b, tau)
        backward = cyclic_shift_ratio(b, a, -tau)
        assert (forward is None) == (backward is None)
        if forward is not None:
            assert (forward + backward) % a.denom == 0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            cyclic_shift_ratio(PhaseSequence(4, (0, 1)), PhaseSequence(4, (0, 1, 2)), 0)

    def test_denom_mismatch_raises(self):
        with pytest.raises(ValueError):
            cyclic_shift_ratio(PhaseSequence(4, (0, 1)), PhaseSequence(5, (0, 1)), 0)


class TestSequenceSet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SequenceSet(())

    def test_rejects_mixed_lengths(self):
        with pytest.raises(ValueError):
            SequenceSet((PhaseSequence(4, (0, 1)), PhaseSequence(4, (0, 1, 2))))

    def test_rejects_mixed_denoms(self):
        with pytest.raises(ValueError):
            SequenceSet((PhaseSequence(4, (0, 1)), PhaseSequence(8, (0, 1))))

    def test_properties(self, family_a_set):
        assert family_a_set.size == 13
        assert family_a_set.length == 169
        assert family_a_set.denom == 13

    def test_values_matrix_shape(self, laz_p5_set):
        mat = laz_p5_set.values_matrix()
        assert mat.shape == (5, 20)
        assert np.all(np.abs(np.abs(mat) - 1) < 1e-12)


class TestJsonInterchange:
    def test_round_trip_exact(self, laz_p5_set):
        doc = set_to_dict(laz_p5_set)
        assert doc["length"] == 20 and doc["denom"] == 5
        assert doc["sequences"][0] == list(GOLDEN_P5_ALPHA3[0])
        again = set_from_dict(json.loads(json.dumps(doc)))
        assert again.sequences == laz_p5_set.sequences
        assert again.provenance == laz_p5_set.provenance

    def test_save_load_file(self, tmp_path, comb_set):
        path = str(tmp_path / "set.json")
        save_set(comb_set, path)
        again = load_set(path)
        assert again.sequences == comb_set.sequences
        assert again.provenance == comb_set.provenance

    def test_missing_provenance_becomes_external(self):
        sset = set_from_dict({"length": 2, "denom": 4, "sequences": [[0, 1]]})
        assert sset.provenance["family"] == "external"

    def test_malformed_document_raises(self):
        with pytest.raises(ValueError):
            set_from_dict({"denom": 4, "sequences": [[0, 1]]})
        with pytest.raises(ValueError):
            set_from_dict({"length": 3, "denom": 4, "sequences": [[0, 1]]})
        with pytest.raises(ValueError):
            set_from_dict({"length": 2, "denom": 4, "sequences": [[0, 1]], "provenance": [1, 2]})
        with pytest.raises(ValueError):
            set_from_dict({"length": 2, "denom": 4, "sequences": [5]})
        with pytest.raises(ValueError):
            set_from_dict({"length": 2, "denom": 4, "sequences": 7})
        with pytest.raises(ValueError):
            set_from_dict({"length": 2, "denom": 4, "sequences": [[0, None]]})
        # Non-integer phases and header values are refused, not truncated.
        with pytest.raises(ValueError, match="not an integer"):
            set_from_dict({"length": 4, "denom": 5, "sequences": ["0123", [0.9, 1.5, 2.7, 3.2]]})
        with pytest.raises(ValueError, match="not an integer"):
            set_from_dict({"length": 2, "denom": 4, "sequences": [[0, 1], [0.9, 1.5]]})
        with pytest.raises(ValueError, match="not an integer"):
            set_from_dict({"length": 2, "denom": 4, "sequences": [[0, True]]})
        for bad in (True, "12", 12.7):
            for header in ("length", "denom"):
                doc = {"length": 2, "denom": 12, "sequences": [[0, 1]], header: bad}
                with pytest.raises(ValueError, match=f"{header} must be an integer"):
                    set_from_dict(doc)


class TestDelayDopplerZone:
    def test_ranges(self):
        zone = DelayDopplerZone(4, 3)
        assert list(zone.delays()) == [-3, -2, -1, 0, 1, 2, 3]
        assert list(zone.dopplers()) == [-2, -1, 0, 1, 2]

    def test_contains(self):
        zone = DelayDopplerZone(4, 3)
        assert zone.contains(3, -2)
        assert not zone.contains(4, 0)
        assert not zone.contains(0, 3)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            DelayDopplerZone(0, 3)

    def test_str(self):
        assert str(DelayDopplerZone(4, 3)) == "(-4,4)x(-3,3)"


class TestAmbiguitySurface:
    def _surface(self):
        values = np.array([[1.0 + 0j, 2.0], [0.5, 3.0]])
        return AmbiguitySurface(range(0, 2), range(-1, 1), values)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            AmbiguitySurface(range(0, 2), range(0, 2), np.zeros((2, 3), dtype=complex))

    def test_value_at(self):
        surf = self._surface()
        assert surf.value_at(1, 0) == 3.0

    def test_argmax_and_origin_exclusion(self):
        surf = self._surface()
        assert surf.argmax() == (1, 0, 3.0)
        # origin here is (tau=0, v=0) -> entry 2.0; excluding it keeps 3.0
        assert surf.max_magnitude(exclude_origin=True) == 3.0

    def test_single_cell_origin_excluded_is_empty(self):
        surf = AmbiguitySurface(range(0, 1), range(0, 1), np.array([[5.0 + 0j]]))
        assert surf.argmax(exclude_origin=True) is None
        assert surf.max_magnitude(exclude_origin=True) == 0.0

    def test_write_csv_row_major(self):
        surf = self._surface()
        out = io.StringIO()
        surf.write_csv(out)
        lines = out.getvalue().strip().splitlines()
        assert lines[0] == "tau,v,re,im,mag"
        assert lines[1].startswith("0,-1,1.0,0.0,")
        assert lines[2].startswith("0,0,2.0,0.0,")
        assert lines[3].startswith("1,-1,0.5,0.0,")
        assert len(lines) == 5


class TestFrequencyDual:
    def test_support(self):
        dual = FrequencyDual(np.array([0.0 + 0j, 2.0, 1e-12, 0.3]))
        assert dual.support(1e-9) == (1, 3)
        assert dual.length == 4
