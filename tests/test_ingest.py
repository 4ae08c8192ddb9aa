import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinbeam import ClickStream, group_histogram
from oracles import (DegenerateStreamError, averaged_correlation,
                     conditioned_sequences, group_sums, idler_bits,
                     signal_bits, stream_of, window_correlation)
from twinbeam import models
from twinbeam.errors import DataError, UsageError


def stream_from_pairs(pairs):
    codes = np.array([s | (i << 1) for s, i in pairs], dtype=np.uint8)
    return stream_of(codes)


class TestGrouping:
    def test_disjoint_hand_count(self):
        stream = stream_from_pairs([(1, 1), (0, 0), (1, 0)])
        h = group_histogram(stream, 3, "disjoint")
        assert h.n_groups == 1
        assert h.counts[2, 1] == 1
        assert h.counts.sum() == 1

    def test_sliding_hand_count(self):
        stream = stream_from_pairs([(1, 1), (0, 0), (1, 0)])
        h = group_histogram(stream, 2, "sliding")
        assert h.n_groups == 2
        assert h.counts[1, 1] == 1
        assert h.counts[1, 0] == 1

    def test_too_short_stream(self):
        stream = stream_from_pairs([(1, 0)])
        with pytest.raises(DataError, match="cannot form groups"):
            group_histogram(stream, 5, "disjoint")

    @pytest.mark.parametrize("n, mode, message", [
        (0, "disjoint", "group size must be >= 1"),
        (-1, "sliding", "group size must be >= 1"),
        (2.5, "sliding", "group size must be an integer, got 2.5"),
        (3, "tumbling", "unknown grouping mode 'tumbling'")],
        ids=["n-0", "n--1", "n-2.5", "mode-tumbling"])
    def test_bad_arguments_refused_before_a_chunk_is_read(self, n, mode,
                                                          message):
        def unread():
            raise AssertionError("the stream was read")

        stream = ClickStream(100, unread, {})
        with pytest.raises(UsageError, match=message):
            group_histogram(stream, n, mode)

    def test_disjoint_concatenation_property(self):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 4, 600).astype(np.uint8)
        b = rng.integers(0, 4, 900).astype(np.uint8)
        ha = group_histogram(stream_of(a), 3, "disjoint").counts
        hb = group_histogram(stream_of(b), 3, "disjoint").counts
        hj = group_histogram(stream_of(np.concatenate([a, b])), 3,
                             "disjoint").counts
        assert np.array_equal(hj, ha + hb)

    @settings(max_examples=150, deadline=None, database=None)
    @given(codes=st.lists(st.integers(0, 3), min_size=1, max_size=120),
           n=st.integers(1, 12), mode=st.sampled_from(["sliding", "disjoint"]),
           chunk=st.integers(1, 40))
    def test_chunked_histogram_equals_naive_group_sums(self, codes, n, mode,
                                                       chunk):
        # chunks of 1..40 windows: their ends fall inside groups, and
        # chunks shorter than a group carry their windows on
        stream = stream_of(codes, chunk=chunk)
        if len(codes) < n:
            with pytest.raises(DataError, match="cannot form groups"):
                group_histogram(stream, n, mode)
            return
        h = group_histogram(stream, n, mode)
        starts = range(0, len(codes) - n + 1, n if mode == "disjoint" else 1)
        naive = np.zeros((n + 1, n + 1), dtype=np.int64)
        for g in starts:
            group = codes[g:g + n]
            naive[sum(c & 1 for c in group), sum(c >> 1 for c in group)] += 1
        assert h.n_groups == len(starts)
        assert np.array_equal(h.counts, naive)

    @settings(max_examples=150, deadline=None, database=None)
    @given(codes=st.lists(st.integers(0, 3), min_size=1, max_size=300),
           cuts=st.lists(st.integers(0, 300), max_size=12),
           n=st.integers(1, 12), mode=st.sampled_from(["sliding", "disjoint"]))
    def test_irregular_chunks_equal_the_whole_array(self, codes, cuts, n,
                                                    mode):
        # chunks of any sizes in one stream, empty ones and ones shorter
        # than a group among them
        codes = np.array(codes, dtype=np.uint8)
        chunks = np.split(codes, sorted(c % (len(codes) + 1) for c in cuts))
        stream = ClickStream(len(codes), lambda: iter(chunks), {})
        if len(codes) < n:
            with pytest.raises(DataError, match="cannot form groups"):
                group_histogram(stream, n, mode)
            return
        h = group_histogram(stream, n, mode)
        s, i = (group_sums(bits, n, mode) for bits in (codes & 1, codes >> 1))
        whole = np.bincount(s * (n + 1) + i, minlength=(n + 1) ** 2)
        assert h.n_groups == len(s)
        assert np.array_equal(h.counts, whole.reshape(n + 1, n + 1))

    @pytest.mark.parametrize("mode", ["sliding", "disjoint"])
    @pytest.mark.parametrize("n", [10, 11, 180, 181])
    def test_narrow_running_sums_are_exact_at_the_dtype_edges(self, n, mode):
        # n (n + 2) is 120 and 32760 at n = 10 and 180, the most that int8
        # and int16 hold; n = 11 and 181 need the next width.  The running
        # sums wrap, the group sums must not: a run of code 3, whose groups
        # sum to n (n + 2), straddles the first chunk's end, so that the
        # group across it is summed from carried windows
        chunk = 997
        codes = np.random.default_rng(n).integers(0, 4, 3 * chunk).astype(
            np.uint8)
        codes[chunk - 2 * n:chunk + 2 * n] = 3
        h = group_histogram(stream_of(codes, chunk=chunk), n, mode)
        s, i = (group_sums(bits, n, mode) for bits in (codes & 1, codes >> 1))
        whole = np.bincount(s * (n + 1) + i, minlength=(n + 1) ** 2)
        assert np.array_equal(h.counts, whole.reshape(n + 1, n + 1))
        assert h.counts[n, n] > 0

    def test_sliding_and_disjoint_means_agree(self, stream_1m):
        n = 20
        gs = group_sums(idler_bits(stream_1m), n, "sliding")
        gd = group_sums(idler_bits(stream_1m), n, "disjoint")
        se = gd.std() / np.sqrt(len(gd))
        assert abs(gs.mean() - gd.mean()) < 4 * se

    def test_marginal_counts_commute_with_single_arm_grouping(self, stream_1m):
        h = group_histogram(stream_1m, 10, "disjoint")
        gs = group_sums(signal_bits(stream_1m), 10, "disjoint")
        direct = np.bincount(gs, minlength=11)
        assert np.array_equal(h.counts.sum(axis=1), direct)


class TestConditionedSequences:
    def test_hand_trace(self):
        stream = stream_from_pairs([(1, 1), (0, 1), (1, 0)])
        seqs = conditioned_sequences(stream)
        assert np.array_equal(seqs["reference_i"], [1, 1, 0])
        assert np.array_equal(seqs["conditioned_i"], [1, 0])
        assert np.array_equal(seqs["conditioned_s"], [1, 0])

    def test_silent_signal_arm_yields_empty_conditioned(self):
        stream = stream_from_pairs([(0, 1), (0, 0), (0, 1)])
        seqs = conditioned_sequences(stream)
        assert len(seqs["conditioned_i"]) == 0

    def test_conditioned_rate_is_boosted(self, stream_1m, nominal):
        params, spec_s, spec_i = nominal
        p_s, p_i, p11 = models.window_click_probs(params, spec_s, spec_i)
        seqs = conditioned_sequences(stream_1m)
        observed = seqs["conditioned_i"].mean()
        assert observed == pytest.approx(p11 / p_s, abs=0.01)
        # roughly an order of magnitude above the unconditioned rate
        assert observed > 5 * seqs["reference_i"].mean()


class TestWindowCorrelation:
    def test_zero_shift_bernoulli_closed_form(self):
        rng = np.random.default_rng(10)
        p = 0.07
        bits = (rng.random(400_000) < p).astype(np.uint8)
        k = window_correlation(stream_of(bits), "s", 10)
        p_hat = bits.mean()
        assert k[0] == pytest.approx((1 - p_hat) / p_hat, rel=1e-9)

    def test_independent_stream_uncorrelated(self):
        rng = np.random.default_rng(11)
        n = 400_000
        p = 0.05
        bits = (rng.random(n) < p).astype(np.uint8)
        k = window_correlation(stream_of(bits), "s", 40)
        # iid null spread: std(K) ~ (1 - p) / (p sqrt(n))
        sigma = (1 - p) / (p * np.sqrt(n))
        assert np.all(np.abs(k[1:]) < 5 * sigma)

    def test_block_drift_shows_positive_plateau(self, nominal):
        from twinbeam import PumpCorrelation, sample_stream
        params, spec_s, spec_i = nominal
        k_true = 0.02
        stream = sample_stream(params, spec_s, spec_i,
                               PumpCorrelation(k_true, 5_000), 4_000_000, seed=31)
        k = window_correlation(stream, "i", 300)
        kbar = averaged_correlation(k, 24)
        # analytic click-level plateau: two windows sharing a pump factor
        pair = models.compound_click_moments(params, spec_s, spec_i, 2, 2, k_true)
        plateau = 2 * pair[0, 2] / pair[0, 1] ** 2 - 1
        observed = kbar[50:250].mean()
        assert observed == pytest.approx(plateau, rel=0.25)
        assert np.all(kbar[25:250] > 0)

    def test_degenerate_stream_raises(self):
        with pytest.raises(DegenerateStreamError):
            window_correlation(stream_of(np.zeros(100, dtype=np.uint8)), "s", 5)


class TestAveragedCorrelation:
    def test_constant_preserved(self):
        out = averaged_correlation(np.full(50, 0.3), 24)
        np.testing.assert_allclose(out, 0.3, atol=1e-15)

    def test_window_wider_than_input_keeps_its_length(self):
        k = np.array([0.5, 2.0, -1.0, 4.0])
        out = averaged_correlation(k, 5)
        np.testing.assert_allclose(out, np.full(4, k.mean()), rtol=1e-15)

    def test_zero_window_is_identity(self):
        data = np.arange(10.0)
        assert np.array_equal(averaged_correlation(data, 0), data)

    def test_white_noise_variance_reduction(self):
        rng = np.random.default_rng(12)
        noise = rng.standard_normal(20_000)
        smoothed = averaged_correlation(noise, 24)
        interior = smoothed[24:-24]
        ratio = noise.var() / interior.var()
        assert ratio == pytest.approx(49, rel=0.1)
