"""Bit-plane packing, gated XNOR dot products, and the operation cost model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gxnor.kernel
from gxnor.kernel import (
    WORD_BITS,
    Architecture,
    OpReport,
    count_ops,
    gated_xnor_dot,
    pack_ternary,
    pack_ternary_matrix,
    packed_dense_forward,
    unpack_ternary,
)

ternary_vec = st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=200)


def sum_of_weights_planes(v):
    """Reference packer: each word is the sum of its set lanes' powers of two."""
    v = np.asarray(v)
    *lead, length = v.shape
    words = (length + WORD_BITS - 1) // WORD_BITS
    bits = np.zeros((*lead, words, WORD_BITS), dtype=np.uint64)
    lanes = bits.reshape(*lead, words * WORD_BITS)[..., :length]
    weights = np.uint64(1) << np.arange(WORD_BITS, dtype=np.uint64)
    lanes[...] = v != 0
    mask = (bits * weights).sum(axis=-1, dtype=np.uint64)
    lanes[...] = v == 1
    sign = (bits * weights).sum(axis=-1, dtype=np.uint64)
    return mask, sign


class TestPacking:
    def test_documented_example(self):
        p = pack_ternary([-1, 0, 1])
        assert p.mask[0] == 0b101  # lanes 0 and 2 are non-zero
        assert p.sign[0] == 0b100  # only lane 2 is +1
        assert unpack_ternary(p).tolist() == [-1, 0, 1]

    def test_all_zero(self):
        p = pack_ternary(np.zeros(70))
        assert not p.mask.any() and not p.sign.any()

    def test_sign_subset_of_mask(self):
        rng = np.random.default_rng(0)
        p = pack_ternary_matrix(rng.integers(-1, 2, (100, 130)))
        assert not np.any(p.sign & ~p.mask)

    @given(v=ternary_vec)
    def test_round_trip(self, v):
        assert unpack_ternary(pack_ternary(v)).tolist() == v

    def test_bulk_round_trip(self):
        rng = np.random.default_rng(1)
        rows = rng.integers(-1, 2, (10**5, 64))
        assert np.array_equal(unpack_ternary(pack_ternary_matrix(rows)), rows)

    @pytest.mark.parametrize("rows,lanes", [(1, 1), (3, 63), (5, 64), (7, 65), (300, 200),
                                            (2, 800), (0, 70)])
    def test_planes_equal_sum_of_weights_packer(self, rows, lanes):
        # Bit for bit, padding bits included, in native-endian uint64 words.
        v = np.random.default_rng(rows * 1000 + lanes).integers(-1, 2, (rows, lanes))
        for packed, ref in [(pack_ternary_matrix(v), sum_of_weights_planes(v)),
                            *[(pack_ternary(row), sum_of_weights_planes(row)) for row in v[:3]]]:
            for plane, expect in zip((packed.mask, packed.sign), ref):
                assert plane.dtype == np.dtype(np.uint64) and plane.dtype.isnative
                assert plane.shape == expect.shape
                assert np.array_equal(plane, expect)

    def test_rejects_non_ternary(self):
        with pytest.raises(ValueError):
            pack_ternary([0, 2, 1])
        with pytest.raises(ValueError):
            pack_ternary([0.5])
        with pytest.raises(ValueError):
            pack_ternary(np.zeros((2, 2)))


class TestGatedXnorDot:
    def test_self_dot_counts_nonzeros(self):
        result, report = gated_xnor_dot(pack_ternary([1, 1, -1]), pack_ternary([1, 1, -1]))
        assert result == 3 and report.xnor_ops == 3

    def test_single_open_gate(self):
        result, report = gated_xnor_dot(pack_ternary([1, 0, -1]), pack_ternary([0, 1, -1]))
        assert result == 1
        assert report.xnor_ops == 1
        assert report.resting_fraction == pytest.approx(2 / 3)

    def test_gate_count_drops_to_dual_nonzero_lanes(self):
        # 21 lanes: 9 with both operands non-zero, the rest one-sided or idle.
        a = np.zeros(21, dtype=int)
        b = np.zeros(21, dtype=int)
        a[:9], b[:9] = 1, -1
        a[9:15] = 1
        b[15:18] = -1
        _, report = gated_xnor_dot(pack_ternary(a), pack_ternary(b))
        assert report.xnor_ops == 9

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            gated_xnor_dot(pack_ternary([1, 0]), pack_ternary([1, 0, 1]))

    @given(pair=st.lists(st.tuples(st.sampled_from([-1, 0, 1]),
                                   st.sampled_from([-1, 0, 1])),
                         min_size=1, max_size=150))
    def test_equals_naive_dot(self, pair):
        a = [p[0] for p in pair]
        b = [p[1] for p in pair]
        result, report = gated_xnor_dot(pack_ternary(a), pack_ternary(b))
        assert result == int(np.dot(a, b))
        open_gates = sum(1 for x, y in pair if x != 0 and y != 0)
        assert report.xnor_ops == open_gates
        assert report.xnor_ops + round(report.resting_fraction * len(pair)) == len(pair)

    def test_exhaustive_length_three(self):
        vals = np.array(np.meshgrid(*[[-1, 0, 1]] * 3)).reshape(3, -1).T
        for a in vals:
            pa = pack_ternary(a)
            for b in vals:
                result, _ = gated_xnor_dot(pa, pack_ternary(b))
                assert result == int(a @ b)


class TestPackedDenseForward:
    def test_matches_naive_matmul(self):
        rng = np.random.default_rng(2)
        x = rng.integers(-1, 2, (731, 96))
        w = rng.integers(-1, 2, (17, 96))
        scores, report = packed_dense_forward(pack_ternary_matrix(x), pack_ternary_matrix(w))
        assert np.array_equal(scores, x @ w.T)
        open_lanes = int(((x != 0)[:, None, :] & (w != 0)[None, :, :]).sum())
        assert report.xnor_ops == open_lanes

    @settings(max_examples=40, deadline=None)
    @given(lanes=st.sampled_from([1, 63, 64, 65, 200, 800]),
           rows=st.sampled_from([0, 1, 127, 128, 129, 259]),
           out=st.integers(min_value=1, max_value=12),
           zero=st.sampled_from([0.0, 1 / 3, 0.9, 1.0]),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_equals_matmul_across_words_and_chunks(self, lanes, rows, out, zero, seed):
        rng = np.random.default_rng(seed)
        draw = lambda shape: np.where(rng.random(shape) < zero, 0,
                                      rng.choice([-1, 1], size=shape))
        x, w = draw((rows, lanes)), draw((out, lanes))
        scores, report = packed_dense_forward(pack_ternary_matrix(x), pack_ternary_matrix(w))
        assert scores.dtype == np.int64
        assert np.array_equal(scores, x @ w.T)
        assert report.xnor_ops == int(((x != 0).astype(int) @ (w != 0).astype(int).T).sum())

    @pytest.mark.parametrize("out", [1, 10, 200])
    def test_block_size_changes_neither_scores_nor_report(self, out, monkeypatch):
        # The default takes 10-wide and 1-wide layers' rows in one block and a
        # 200-wide layer's in blocks of 128; any block size gives the same result.
        rng = np.random.default_rng(out)
        x = pack_ternary_matrix(rng.integers(-1, 2, (300, 130)))
        w = pack_ternary_matrix(rng.integers(-1, 2, (out, 130)))
        scores, report = packed_dense_forward(x, w)
        for rows in (1, 7, 128, 300):
            monkeypatch.setattr(gxnor.kernel, "DENSE_BLOCK", rows * out)
            other_scores, other_report = packed_dense_forward(x, w)
            assert np.array_equal(other_scores, scores) and other_scores.dtype == scores.dtype
            assert other_report == report

    def test_identity_weights(self):
        eye = np.eye(8, dtype=int)
        scores, _ = packed_dense_forward(pack_ternary_matrix(eye), pack_ternary_matrix(eye))
        assert np.array_equal(scores, eye)

    def test_zero_weights_rest_fully(self):
        x = np.ones((5, 8), dtype=int)
        w = np.zeros((3, 8), dtype=int)
        scores, report = packed_dense_forward(pack_ternary_matrix(x), pack_ternary_matrix(w))
        assert not scores.any()
        assert report.resting_fraction == 1.0

    def test_fan_in_mismatch(self):
        with pytest.raises(ValueError):
            packed_dense_forward(pack_ternary_matrix(np.zeros((2, 8))),
                                 pack_ternary_matrix(np.zeros((2, 9))))


class TestCostModel:
    M = 123

    def test_full_precision_row(self):
        rep = count_ops(Architecture.FULL_PRECISION, self.M)
        assert (rep.multiplications, rep.accumulations) == (self.M, self.M)
        assert (rep.xnor_ops, rep.bitcount_ops) == (0, 0)
        assert rep.resting_percent() == "0.0%"

    def test_binary_weight_row(self):
        rep = count_ops(Architecture.BWN, self.M)
        assert (rep.multiplications, rep.accumulations) == (0, self.M)
        assert rep.resting_percent() == "0.0%"

    def test_ternary_weight_row(self):
        rep = count_ops(Architecture.TWN, self.M)
        assert rep.multiplications == 0
        assert rep.accumulations == (1 - 1 / 3) * self.M
        assert rep.resting_percent() == "33.3%"

    def test_binary_net_row(self):
        rep = count_ops(Architecture.BNN, self.M)
        assert (rep.xnor_ops, rep.bitcount_ops) == (self.M, 1)
        assert rep.resting_percent() == "0.0%"

    def test_gated_row(self):
        rep = count_ops(Architecture.GXNOR, self.M)
        assert rep.xnor_ops == (1 - 1 / 3) * (1 - 1 / 3) * self.M
        assert rep.resting_fraction == pytest.approx(5 / 9, abs=1e-15)
        assert rep.resting_percent() == "55.6%"

    def test_degenerate_all_zero_weights(self):
        rep = count_ops(Architecture.GXNOR, self.M, w_zero=1.0)
        assert rep.xnor_ops == 0 and rep.bitcount_ops == 0
        assert rep.resting_fraction == 1.0

    def test_no_zero_states_never_rest(self):
        rep = count_ops(Architecture.GXNOR, self.M, w_zero=0.0, a_zero=0.0)
        assert rep.resting_fraction == 0.0
        assert rep.xnor_ops == self.M

    def test_rejects_zero_fraction_outside_unit_interval(self):
        for zero in (-0.5, 1.5, float("nan")):
            with pytest.raises(ValueError, match="weight zero fraction"):
                count_ops(Architecture.TWN, self.M, w_zero=zero)
            with pytest.raises(ValueError, match="activation zero fraction"):
                count_ops(Architecture.TWN, self.M, a_zero=zero)
        count_ops(Architecture.TWN, self.M, w_zero=0.0, a_zero=1.0)

    def test_rejects_bad_fan_in(self):
        with pytest.raises(ValueError):
            count_ops(Architecture.GXNOR, 0)

    def test_measured_resting_matches_model(self):
        rng = np.random.default_rng(3)
        rows = 20000
        a = rng.integers(-1, 2, (rows, 64))
        b = rng.integers(-1, 2, (rows, 64))
        pa, pb = pack_ternary_matrix(a), pack_ternary_matrix(b)
        open_lanes = int(np.bitwise_count(pa.mask & pb.mask).sum())
        resting = 1 - open_lanes / (rows * 64)
        assert abs(resting - 5 / 9) < 0.01
