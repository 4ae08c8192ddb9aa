import dataclasses
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad_vec
from scipy.special import comb, gammaln, ndtr

from oracles import (SupportViolationError, ZeroProbabilityConditionError,
                     _build_extended, _log_factorials, binomial_pmf_extended,
                     click_factorials_extended,
                     compound_click_dist, compound_click_moments_by_table,
                     compound_photocounts, compound_photon_dist,
                     conditional_photon_dist, forward_photocounts,
                     gauss_hermite, genuine_click_dist,
                     genuine_click_moments_extended, marginal,
                     two_stage_matrix, window_click_dist, window_forward_dist)
from twinbeam import (DetectorSpec, TwbParams, detection, detection_matrix,
                      joint_twb)
from twinbeam.cli import DEFAULT_GROUPS, MAX_TABLE_CELLS
from twinbeam.detection import (SUPPORT_TAIL, _binomial_pmf, column_sum_error,
                                default_n_max)
from twinbeam.errors import DataError, NumericError, UsageError
from twinbeam.moments import moments
from twinbeam import models


class TestDetectionMatrix:
    def test_perfect_single_pixel(self):
        t = detection_matrix(DetectorSpec(1.0, 0.0, 1), 5)
        assert t.entries[0, 0] == 1.0
        assert np.array_equal(t.entries[1, 1:], np.ones(5))

    def test_single_pixel_closed_form(self):
        # T(0, n) = (1 - dark)(1 - eta)^n
        t = detection_matrix(DetectorSpec(0.330, 3.8e-3, 1), 6)
        n = np.arange(7)
        np.testing.assert_allclose(t.entries[0], (1 - 3.8e-3) * 0.670 ** n,
                                   rtol=1e-14)
        assert t.entries[0, 1] == pytest.approx(0.667454, abs=1e-12)

    def test_dark_only_columns_are_binomial(self):
        spec = DetectorSpec(0.5, 0.07, 10)
        t = detection_matrix(spec, 4)
        c = np.arange(11)
        expected = comb(10, c) * 0.07 ** c * 0.93 ** (10 - c)
        np.testing.assert_allclose(t.entries[:, 0], expected, rtol=1e-12)

    def test_dark_only_column_against_monte_carlo(self):
        spec = DetectorSpec(0.5, 0.07, 10)
        t = detection_matrix(spec, 0)
        rng = np.random.default_rng(99)
        clicks = rng.binomial(10, 0.07, size=1_000_000)
        freq = np.bincount(clicks, minlength=11) / 1_000_000
        sigma = np.sqrt(t.entries[:, 0] * (1 - t.entries[:, 0]) / 1_000_000)
        assert np.all(np.abs(freq - t.entries[:, 0]) < 4 * sigma + 1e-6)

    @pytest.mark.parametrize("pixels", [1, 3, 10])
    def test_stable_path_matches_extended_precision(self, pixels):
        spec = DetectorSpec(0.282, 2.8e-3, pixels)
        fast = detection_matrix(spec, 25)
        slow = _build_extended(spec, 25, 320)
        np.testing.assert_allclose(fast.entries, slow, atol=5e-14)

    def test_photon_column_against_monte_carlo(self):
        # 3 photons on 4 pixels: thin each photon, drop it on a pixel,
        # add dark counts, tally distinct clicking pixels
        spec = DetectorSpec(0.6, 0.05, 4)
        t = detection_matrix(spec, 3)
        rng = np.random.default_rng(42)
        trials = 400_000
        detected = rng.random((trials, 3)) < spec.eta
        pixel = rng.integers(0, 4, size=(trials, 3))
        dark = rng.random((trials, 4)) < spec.dark
        clicks = np.zeros(trials, dtype=int)
        lit = np.zeros((trials, 4), dtype=bool)
        for j in range(3):
            rows = detected[:, j]
            lit[np.nonzero(rows)[0], pixel[rows, j]] = True
        clicks = (lit | dark).sum(axis=1)
        freq = np.bincount(clicks, minlength=5) / trials
        sigma = np.sqrt(t.entries[:, 3] * (1 - t.entries[:, 3]) / trials)
        assert np.all(np.abs(freq - t.entries[:, 3]) < 4 * sigma + 1e-6)

    def test_low_precision_bits_fail_validation(self, monkeypatch):
        # the alternating sum at 16 bits cancels to garbage, with column sums
        # off by about 1e24; the column-sum check must refuse whatever the
        # chain yields, and nothing is cached
        monkeypatch.setattr(detection, "_cache", {})
        monkeypatch.setattr(
            detection, "_columns",
            lambda spec, n_max: iter(_build_extended(spec, n_max, 16).T))
        with pytest.raises(NumericError, match="column sums off by"):
            detection_matrix(DetectorSpec(0.7, 1e-3, 64), 40)
        assert detection._cache == {}

    def test_corrupted_chain_fails_validation(self, monkeypatch):
        # the 16-bit alternating sum as the chain's columns, with column
        # sums off by up to 43: the whole matrix's check refuses it
        monkeypatch.setattr(detection, "_cache", {})
        monkeypatch.setattr(
            detection, "_columns",
            lambda spec, n_max: iter(_build_extended(spec, n_max, 16).T))
        with pytest.raises(NumericError, match="column sums"):
            detection_matrix(DetectorSpec(0.7, 1e-3, 16), 10)
        assert detection._cache == {}

    @pytest.mark.parametrize("pixels", [1, 10, 100])
    @pytest.mark.parametrize("eta", [0.282, 1.0])
    @pytest.mark.parametrize("dark", [0.0, 3.8e-3])
    def test_column_stochastic(self, pixels, eta, dark):
        t = detection_matrix(DetectorSpec(eta, dark, pixels), 50)
        assert column_sum_error(t.entries) < 1e-10
        assert t.entries.min() >= 0.0

    def test_column_sum_error_is_the_largest_deviation(self):
        # column sums 1.0, 0.75 and 1.5: the last is furthest from one
        t = np.array([[0.5, 0.25, 1.0], [0.5, 0.5, 0.5]])
        assert column_sum_error(t) == 0.5
        assert column_sum_error(np.eye(3)) == 0.0

    @settings(max_examples=100, deadline=None, database=None)
    @given(eta=st.floats(0.0, 1.0, exclude_min=True),
           dark=st.floats(0.0, 0.5),
           pixels=st.integers(1, 1000),
           n_max=st.integers(0, 300))
    def test_chain_matches_the_two_stage_build(self, eta, dark, pixels, n_max):
        # dark clicks as the chain's starting state against dark clicks
        # mixed in after the photons: the same matrix
        spec = DetectorSpec(eta, dark, pixels)
        entries = detection_matrix(spec, n_max).entries
        assert entries.shape == (pixels + 1, n_max + 1)
        assert entries.flags.c_contiguous
        np.testing.assert_allclose(entries, two_stage_matrix(spec, n_max),
                                   rtol=0, atol=1e-12)
        # each photon step rounds each column sum by a fraction of an ulp:
        # over 5,200 random specs of this range the worst was 0.31 of this
        # bound (5.5 ulp at n_max 2, 57 ulp at n_max 230)
        assert column_sum_error(entries) <= (n_max + 16) * np.finfo(float).eps
        assert entries.min() >= 0.0

    def test_entries_immutable_and_cached(self):
        spec = DetectorSpec(0.4, 0.0, 2)
        a = detection_matrix(spec, 10)
        b = detection_matrix(spec, 10)
        assert a is b
        with pytest.raises(ValueError):
            a.entries[0, 0] = 0.5

    def test_cache_evicts_the_least_recently_used(self, monkeypatch):
        # matrices of 4 x 11 float64 cells, and room for two of them
        monkeypatch.setattr(detection, "_cache", {})
        monkeypatch.setattr(detection, "CACHE_BYTES", 2 * 4 * 11 * 8)
        specs = [DetectorSpec(eta, 0.0, 3) for eta in (0.4, 0.5, 0.6)]
        a, b = (detection_matrix(spec, 10) for spec in specs[:2])
        assert detection_matrix(specs[0], 10) is a      # now the most recent
        detection_matrix(specs[2], 10)                  # evicts b
        assert list(detection._cache) == [(specs[0], 10), (specs[2], 10)]
        assert detection_matrix(specs[0], 10) is a
        assert detection_matrix(specs[1], 10) is not b
        # a matrix above the whole budget is kept alone
        big = detection_matrix(specs[0], 100)
        assert list(detection._cache.values()) == [big]


class TestClickFactorials:
    @settings(max_examples=60, deadline=None, database=None)
    @given(eta=st.one_of(st.just(1.0), st.floats(1e-30, 1.0)),
           dark=st.one_of(st.just(0.0), st.floats(1e-4, 0.5)),
           pixels=st.integers(1, 1000), n_max=st.integers(0, 300),
           order=st.integers(0, 5))
    @example(eta=1.0, dark=0.0, pixels=1000, n_max=64, order=5)
    @example(eta=0.282, dark=2.8e-3, pixels=1000, n_max=200, order=5)
    @example(eta=0.5, dark=0.1, pixels=10, n_max=0, order=3)
    def test_factorials_match_the_extended_chain(self, eta, dark, pixels,
                                                 n_max, order):
        # the long-double chain projected onto the falling factorials; eta
        # from 1e-30, where a dark-free order-5 moment is still a normal
        # double; rows past the pixel count are exact zeros on both sides
        spec = DetectorSpec(eta, dark, pixels)
        got = detection.click_factorials(spec, n_max, order)
        assert got.shape == (order + 1, n_max + 1)
        assert np.all(got[pixels + 1:] == 0.0)
        np.testing.assert_allclose(
            got, click_factorials_extended(spec, n_max, order).astype(float),
            rtol=1e-13, atol=0)

    def test_negative_support_rejected(self):
        # no column fits 1e15 pixels: the matrix must check the support
        # before it allocates, and the recurrence holds order + 1 numbers
        spec = DetectorSpec(0.5, 0.0, 10**15)
        with pytest.raises(UsageError, match="n_max must be >= 0"):
            detection.click_factorials(spec, -1, 2)
        with pytest.raises(UsageError, match="n_max must be >= 0"):
            detection_matrix(spec, -1)
        with pytest.raises(UsageError, match="order must be >= 0"):
            detection.click_factorials(spec, 2, -1)
        assert detection.click_factorials(spec, 2, 2).shape == (3, 3)


class TestForward:
    def test_vacuum_maps_to_no_clicks(self):
        vac = np.array([[1.0]])
        f = forward_photocounts(vac, DetectorSpec(0.5, 0.0, 1),
                                DetectorSpec(0.9, 0.0, 1))
        np.testing.assert_array_equal(f, [[1.0, 0.0], [0.0, 0.0]])

    def test_lossless_single_pair(self):
        pair = np.zeros((2, 2))
        pair[1, 1] = 1.0
        f = forward_photocounts(pair,
                                DetectorSpec(1.0, 0.0, 1),
                                DetectorSpec(1.0, 0.0, 1))
        assert f[1, 1] == 1.0

    def test_matrix_route_matches_generating_function(self, nominal):
        params, spec_s, spec_i = nominal
        via_matrix = window_forward_dist(params, spec_s, spec_i)
        via_pgf = window_click_dist(params, spec_s, spec_i)
        np.testing.assert_allclose(via_matrix, via_pgf, atol=1e-13)
        assert via_matrix.sum() == pytest.approx(1.0, abs=1e-10)

    def test_pileup_lowers_fano(self):
        # single on/off pixel: photocount Fano <= photon Fano
        p = joint_twb(TwbParams(2, 2, 2, 0.4, 0.05, 0.05))
        f = forward_photocounts(p, DetectorSpec(0.6, 0.0, 1),
                                DetectorSpec(0.6, 0.0, 1))
        assert marginal(f, "s").fano() <= marginal(p, "s").fano()


def test_log_factorials_match_gammaln():
    k = np.arange(20_001)
    np.testing.assert_allclose(_log_factorials(20_000), gammaln(k + 1.0),
                               rtol=1e-13, atol=0)


class TestBinomialPmf:
    """The ``Binomial(N, dark)`` start of every detection matrix column."""

    # far cells underflow in rows 2, 3, 4 and 6: 786, 598, 6032 and 603
    @pytest.mark.parametrize("n, p", [
        (100, 2.8e-3), (1000, 2.8e-3), (1000, 0.0312), (7004, 0.0312),
        (1000, 0.5), (1000, 0.97)])
    def test_matches_160_bit_oracle(self, n, p):
        exact = binomial_pmf_extended(n, p)
        with mpmath.workprec(160):
            assert abs(mpmath.fsum(exact) - 1) < 1e-40   # the oracle's own sum
        ref = np.array([float(c) for c in exact])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pmf = _binomial_pmf(n, p)
        held = ref > 1e-300
        np.testing.assert_allclose(pmf[held], ref[held], rtol=1e-13, atol=0)
        assert not pmf[ref == 0].any()        # no double holds these cells
        assert math.fsum(pmf) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 1000])
    def test_point_masses(self, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            at_zero, at_one = _binomial_pmf(n, 0.0), _binomial_pmf(n, 1.0)
        assert at_zero[0] == 1.0 and not at_zero[1:].any()
        assert at_one[n] == 1.0 and not at_one[:n].any()

    @pytest.mark.parametrize("dark", [0.0, 1e-310])
    def test_tiny_dark_raises_no_warning(self, dark):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pmf = _binomial_pmf(1000, dark)
            t = detection_matrix(DetectorSpec(0.41, dark, 1000), 3)
        assert pmf[0] == 1.0 and pmf[1] == pytest.approx(1000 * dark)
        assert column_sum_error(t.entries) <= 1e-15

    def test_detection_matrix_column_sums_at_n_1000(self):
        t = detection_matrix(DetectorSpec(0.282, 2.8e-3, 1000), 890)
        assert column_sum_error(t.entries) <= 1e-14


class TestCompound:
    def test_no_clicks_stays_point_mass(self):
        fw = np.array([[1.0, 0], [0, 0]])
        out = compound_photocounts(fw, 1000)
        assert out[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_window_is_identity(self, nominal):
        fw = window_click_dist(*nominal)
        out = compound_photocounts(fw, 1)
        np.testing.assert_allclose(out, fw, atol=1e-14)

    def test_three_windows_against_enumeration(self, nominal):
        fw = window_click_dist(*nominal)
        out = compound_photocounts(fw, 3)
        brute = np.zeros((4, 4))
        for (a, b), pa in np.ndenumerate(fw):
            for (c, d), pb in np.ndenumerate(fw):
                for (e, f), pc in np.ndenumerate(fw):
                    brute[a + c + e, b + d + f] += pa * pb * pc
        np.testing.assert_allclose(out, brute, atol=1e-15)

    def test_mean_scales_exactly(self, nominal):
        fw = window_click_dist(*nominal)
        p_s = fw[1].sum()
        for n in (10, 100, 1000):
            out = compound_photocounts(fw, n)
            mean = np.arange(n + 1) @ out.sum(axis=1)
            assert mean == pytest.approx(n * p_s, rel=1e-12)

    def test_support_violation_rejected(self):
        bad = np.diag([0.5, 0.3, 0.2])
        with pytest.raises(SupportViolationError):
            compound_photocounts(bad, 5)

    def test_large_group_matches_convolution_ladder(self, nominal):
        # independent route: repeated-squaring FFT convolution of the window
        # table; agrees with the multinomial evaluation over the bulk
        from scipy.signal import fftconvolve
        fw = window_click_dist(*nominal)
        n = 257
        out = compound_photocounts(fw, n)
        ladder, power, k = None, fw, n
        while k:
            if k & 1:
                ladder = power if ladder is None else fftconvolve(ladder, power)
            k >>= 1
            if k:
                power = fftconvolve(power, power)
        assert np.abs(out - ladder).max() < 1e-12


class TestCompoundClickMoments:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 1000])
    def test_matches_moments_of_the_compound_table(self, nominal, n):
        closed = models.compound_click_moments(*nominal, n, 5)
        table = moments(compound_click_dist(*nominal, n), 5)
        a, b = np.indices(closed.shape)
        structural = np.maximum(a, b) > n      # more clicks than windows
        assert np.all(closed[structural] == 0.0)
        np.testing.assert_allclose(closed[~structural], table[~structural],
                                   rtol=1e-9, atol=0)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_pump_average_matches_table_quadrature(self, nominal, n):
        k = 5e-3
        closed = models.compound_click_moments(*nominal, n, 4, k)
        oracle = compound_click_moments_by_table(*nominal, n, 4, k)
        a, b = np.indices(closed.shape)
        structural = np.maximum(a, b) > n
        assert np.all(closed[structural] == 0.0)
        np.testing.assert_allclose(closed[~structural], oracle[~structural],
                                   rtol=1e-9, atol=0)

    @pytest.mark.parametrize("k", [0.000965, 0.01, 0.05, 0.1, 0.111])
    def test_pump_average_is_as_accurate_as_gauss_hermite(self, nominal, k):
        # the reference integrates the clamp exactly: below g = -1/sqrt(k)
        # the pump factor is 0 and the integrand a constant.  Both rules are
        # exact to rounding at k <= 0.01; past it the kink at the clamp sets
        # their errors, and a 441-node grid already loses to Gauss-Hermite
        # at k = 0.1
        params, spec_s, spec_i = nominal
        n, order = 1000, 2

        def at(factor):
            scaled = dataclasses.replace(params, b_p=params.b_p * factor)
            return models.compound_click_moments(scaled, spec_s, spec_i, n,
                                                 order)

        root = math.sqrt(k)
        edge = -1.0 / root
        above, _ = quad_vec(lambda g: at(1.0 + root * g) * math.exp(
            -0.5 * g * g) / math.sqrt(2.0 * math.pi), edge, math.inf,
            epsabs=0.0, epsrel=1e-14)
        exact = ndtr(edge) * at(0.0) + above
        x, w = gauss_hermite()
        rules = {"grid": models.compound_click_moments(*nominal, n, order, k),
                 "gauss-hermite": sum(wj * at(max(0.0, 1.0 + root * xj))
                                      for xj, wj in zip(x, w))}
        error = {name: np.abs(table / exact - 1.0).max()
                 for name, table in rules.items()}
        assert error["grid"] <= max(error["gauss-hermite"],
                                    16 * np.finfo(float).eps), error

    @pytest.mark.parametrize("n, k, message", [
        (0, 0.0, "group size must be"), (3, -1e-3, "k must be finite"),
        (3, 0.2, "drift factor at zero")], ids=["0-0.0", "3--0.001", "3-0.2"])
    def test_invalid_arguments_rejected(self, nominal, n, k, message):
        with pytest.raises(UsageError, match=message):
            models.compound_click_moments(*nominal, n, 2, k)


def chain_column(spec, n):
    """Column ``n`` of the occupancy chain: the dark-click binomial, then the
    one-photon step raised to the power ``n``."""
    N = spec.pixels
    fresh = spec.eta * (N - np.arange(N + 1.0)) / N
    step = np.diag(1.0 - fresh) + np.diag(fresh[:-1], -1)
    c = np.arange(N + 1)
    start = comb(N, c) * spec.dark ** c * (1 - spec.dark) ** (N - c)
    return np.linalg.matrix_power(step, n) @ start


class TestDefaultNMax:
    #: the CLI's cap, the side of the largest table it may hold
    LIMIT = math.isqrt(MAX_TABLE_CELLS)

    @pytest.mark.parametrize("pixels", [10, 100, 1000])
    @pytest.mark.parametrize("eta", [0.282, 0.33, 0.9])
    def test_photons_beyond_support_leave_more_clicks(self, pixels, eta):
        # column n_max + 1 puts at most SUPPORT_TAIL on the rows <= c and
        # column n_max more, for twelve click counts c from 0 to pixels - 1;
        # a support capped at LIMIT leaves column LIMIT uncovered
        spec = DetectorSpec(eta, 0.0, pixels)
        cs = np.unique(np.linspace(0, pixels - 1, 12).astype(int))
        supports = {int(c): default_n_max(spec, c, self.LIMIT) for c in cs}
        checks = {}
        for c, n_max in supports.items():
            checks.setdefault(n_max, []).append((c, False))
            if n_max < self.LIMIT:
                checks.setdefault(n_max + 1, []).append((c, True))
        # occupancy law of the clicks, one photon at a time: a photon
        # marks a fresh pixel with probability eta (pixels - j) / pixels
        fresh = eta * (pixels - np.arange(pixels + 1)) / pixels
        column = np.zeros(pixels + 1)
        column[0] = 1.0
        for n in range(max(checks) + 1):
            if n:
                marked = column[:-1] * fresh[:-1]
                column *= 1 - fresh
                column[1:] += marked
            for c, covered in checks.get(n, ()):
                assert (column[:c + 1].sum() <= SUPPORT_TAIL) == covered, (c, n)
        if pixels <= 100:      # the same column as the matrix EM iterates on
            n = max(checks)
            np.testing.assert_allclose(
                column, detection_matrix(spec, n).entries[:, n], atol=1e-13)

    def test_support_stops_at_the_limit(self):
        # the walk ends at n_limit: below the support it returns n_limit,
        # at or above it the support itself
        spec = DetectorSpec(0.282, 2.8e-3, 100)
        n_max = default_n_max(spec, 14, self.LIMIT)
        assert 0 < n_max < self.LIMIT
        assert default_n_max(spec, 14, n_max - 1) == n_max - 1
        assert default_n_max(spec, 14, n_max) == n_max
        assert default_n_max(spec, 14, n_max + 1) == n_max
        assert default_n_max(spec, 14, 0) == 0

    @settings(max_examples=100, deadline=None, database=None)
    @given(eta=st.floats(0.01, 1.0), dark=st.floats(0.0, 0.5),
           pixels=st.integers(1, 200), data=st.data())
    def test_tail_property_for_random_detectors(self, eta, dark, pixels,
                                                data):
        # column n_max + 1 of the chain puts at most SUPPORT_TAIL on the
        # rows <= c_max, and column n_max more unless the support is {0};
        # a support capped at n_limit leaves column n_limit uncovered.
        # The two chains round differently, hence the 1e-12 relative slack
        spec = DetectorSpec(eta, dark, pixels)
        c_max = data.draw(st.integers(0, pixels - 1), label="c_max")
        n_limit = 2000
        n_max = default_n_max(spec, c_max, n_limit)
        assert 0 <= n_max <= n_limit
        low, high = SUPPORT_TAIL * (1 - 1e-12), SUPPORT_TAIL * (1 + 1e-12)
        mass = chain_column(spec, n_max)[:c_max + 1].sum()
        if n_max == n_limit:
            assert mass > low
            return
        assert chain_column(spec, n_max + 1)[:c_max + 1].sum() <= high
        assert mass > low or n_max == 0

    def test_dark_counts_alone_past_the_clicks_leave_no_photons(self):
        # 1000 pixels with dark 0.1 click about 100 times with no photon:
        # 50 clicks or fewer are already beyond SUPPORT_TAIL at n = 0
        spec = DetectorSpec(0.282, 0.1, 1000)
        assert chain_column(spec, 0)[:51].sum() <= SUPPORT_TAIL
        assert default_n_max(spec, 50, self.LIMIT) == 0

    @pytest.mark.parametrize("pixels", [1, 10, 100])
    def test_saturated_data_ask_for_a_support(self, pixels):
        # an all-clicked group is ever likelier as n grows: nothing bounds it
        for c_max in (pixels, pixels + 1):
            with pytest.raises(DataError, match="--n-max"):
                default_n_max(DetectorSpec(0.282, 0.0, pixels), c_max,
                              self.LIMIT)

    def test_support_grows_with_clicks_and_shrinks_with_efficiency(self):
        spec = DetectorSpec(0.282, 0.0, 100)
        sizes = [default_n_max(spec, c, self.LIMIT) for c in range(100)]
        assert sizes == sorted(sizes)
        assert default_n_max(DetectorSpec(0.9, 0.0, 100), 14, self.LIMIT) < \
            default_n_max(spec, 14, self.LIMIT)
        # dark counts add clicks, so they too shrink the support
        assert default_n_max(DetectorSpec(0.282, 0.05, 100), 14, self.LIMIT) \
            < default_n_max(spec, 14, self.LIMIT)


class TestConditional:
    def test_heralded_windows_carry_at_least_one_photon(self):
        # noiseless pairs, perfect conditioning detector, all windows click
        p = joint_twb(TwbParams(2, 1, 1, 0.3, 0.0, 0.0))
        n = 4
        cond = conditional_photon_dist(p, DetectorSpec(1.0, 0.0, 1), n, n)
        assert cond.mean() >= n
        assert cond.probs[:n].sum() == pytest.approx(0.0, abs=1e-15)

    def test_no_click_condition_suppresses_mean(self, nominal):
        params, spec_s, _ = nominal
        j = joint_twb(params)
        cond = conditional_photon_dist(j, spec_s, 0, 1)
        assert cond.mean() < marginal(j, "i").mean()

    def test_two_window_enumeration(self, nominal):
        params, spec_s, _ = nominal
        j = joint_twb(params)
        t = detection_matrix(spec_s, j.shape[0] - 1)
        w = [t.entries[c] @ j for c in (0, 1)]
        # patterns (1,0) and (0,1) contribute symmetrically
        brute = np.convolve(w[1], w[0]) + np.convolve(w[0], w[1])
        brute /= brute.sum()
        cond = conditional_photon_dist(j, spec_s, 1, 2)
        np.testing.assert_allclose(cond.probs, brute, atol=1e-14)

    def test_total_probability_recovers_marginal(self, nominal):
        params, spec_s, _ = nominal
        j = joint_twb(params)
        t = detection_matrix(spec_s, j.shape[0] - 1)
        w0 = t.entries[0] @ j
        s0 = w0.sum()
        n = 4
        mix = None
        for c in range(n + 1):
            cond = conditional_photon_dist(j, spec_s, c, n)
            weight = comb(n, c) * (1 - s0) ** c * s0 ** (n - c)
            contribution = weight * cond.probs
            if mix is None:
                mix = np.zeros(4 * j.shape[1])
            mix[:len(contribution)] += contribution
        idler = marginal(compound_photon_dist(params, n), "i")
        np.testing.assert_allclose(mix[:len(idler.probs)], idler.probs,
                                   atol=1e-10)

    def test_zero_probability_condition(self):
        vac = np.array([[1.0]])
        with pytest.raises(ZeroProbabilityConditionError):
            conditional_photon_dist(vac, DetectorSpec(0.5, 0.0, 1), 800, 800)

    @pytest.mark.parametrize("c_s,n", [(50_000, 100_000), (10, 10 ** 12)])
    def test_huge_group_is_zero_probability_not_overflow(self, nominal, c_s, n):
        # the plain product C(n, c_s) s1^c_s s0^(n - c_s) over- or underflows
        params, spec_s, _ = nominal
        with pytest.raises(ZeroProbabilityConditionError):
            conditional_photon_dist(joint_twb(params), spec_s, c_s, n)


#: Beams of at most ~20 photons per window; a parameter is 0 or at least
#: 1e-4, so no moment is subnormal and relative error means something.
small_or_zero = st.one_of(st.just(0.0), st.floats(1e-4, 0.05))
beams = st.builds(TwbParams, *[st.floats(0.5, 20.0)] * 3,
                  small_or_zero, small_or_zero, small_or_zero)
detectors = st.builds(DetectorSpec, st.floats(0.05, 1.0),
                      st.one_of(st.just(0.0), st.floats(1e-4, 0.3)))


class TestGenuineModel:
    def test_single_pixel_equals_compound_window(self, nominal):
        params, spec_s, spec_i = nominal
        g = genuine_click_dist(params, spec_s, spec_i, 1)
        fw = window_click_dist(params, spec_s, spec_i)
        np.testing.assert_allclose(g, fw, atol=1e-12)
        np.testing.assert_allclose(
            models.genuine_click_moments(params, spec_s, spec_i, 1, 5),
            models.compound_click_moments(params, spec_s, spec_i, 1, 5),
            rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", DEFAULT_GROUPS)
    def test_moments_match_the_click_table_on_the_ladder(self, nominal, n):
        # each arm's click table in long double, projected onto the falling
        # factorials; a double-precision table carries 5e-13 at n = 1000
        got = models.genuine_click_moments(*nominal, n, 5)
        assert got.shape == (6, 6)
        want = genuine_click_moments_extended(*nominal, n, 5)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    @settings(max_examples=30, deadline=None, database=None)
    @given(params=beams, spec_s=detectors, spec_i=detectors,
           n=st.integers(1, 300), order=st.integers(1, 5))
    def test_moments_match_the_click_table_on_random_beams(
            self, params, spec_s, spec_i, n, order):
        got = models.genuine_click_moments(params, spec_s, spec_i, n, order)
        want = genuine_click_moments_extended(params, spec_s, spec_i, n,
                                              order)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_orders_above_the_pixel_count_are_exact_zeros(self, nominal, n):
        raw = models.genuine_click_moments(*nominal, n, 5)
        assert np.all(raw[n + 1:] == 0.0) and np.all(raw[:, n + 1:] == 0.0)
        assert np.all(raw[:n + 1, :n + 1] > 0.0)

    def test_one_window_equals_the_compound_model(self):
        # the photon tables' truncation (at most 1e-12 per component) is
        # all that separates the two single-window models
        rng = np.random.default_rng(10)
        for _ in range(100):
            params = TwbParams(*rng.uniform(0.5, 20.0, 3),
                               *rng.uniform(0.0, [0.5, 0.1, 0.1]))
            spec_s, spec_i = (DetectorSpec(rng.uniform(0.05, 1.0),
                                           rng.uniform(0.0, 0.3))
                              for _ in range(2))
            np.testing.assert_allclose(
                models.genuine_click_moments(params, spec_s, spec_i, 1, 5),
                models.compound_click_moments(params, spec_s, spec_i, 1,
                                              5), rtol=0, atol=2e-12)

    def test_moments_need_no_click_table(self, nominal, monkeypatch):
        # one arm's (n + 1) x (n_max + 1) detection matrix alone would take
        # (n + 1) * (n_max + 1) * 8 bytes; the recurrence keeps order + 1
        # numbers per photon number
        n = 1000
        n_max = min(joint_twb(nominal[0].scaled(n)).shape) - 1
        monkeypatch.setattr(detection, "_cache", {})
        tracemalloc.start()
        try:
            models.genuine_click_moments(*nominal, n, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (n + 1) * (n_max + 1) * 8
        assert detection._cache == {}

    def test_moments_run_no_occupancy_chain(self, nominal, monkeypatch):
        def chain(spec, n_max):
            raise AssertionError("the occupancy chain ran")

        monkeypatch.setattr(detection, "_columns", chain)
        raw = models.genuine_click_moments(*nominal, 1000, 5)
        assert raw.shape == (6, 6) and np.isfinite(raw).all()

    @pytest.mark.parametrize("n", [10_000, 20_000])
    def test_past_the_largest_feasible_n_raises(self, nominal, n):
        # the paired component's p(0) = exp(-0.1013 n) underflowed past
        # n = 7351, and the moments came out NaN
        with pytest.raises(NumericError,
                           match="largest feasible n is 7004"):
            models.genuine_click_moments(*nominal, n, 2)

    def test_the_largest_feasible_n_is_evaluated(self, nominal):
        raw = models.genuine_click_moments(*nominal, 7004, 2)
        assert np.isfinite(raw).all() and raw[0, 0] == pytest.approx(1.0)

    def test_pileup_fano_below_one(self, nominal):
        params, spec_s, spec_i = nominal
        g = genuine_click_dist(params, spec_s, spec_i, 10)
        assert marginal(g, "i").fano() < 1.0

    def test_weaker_pileup_than_compound_at_n100(self, nominal):
        params, spec_s, spec_i = nominal
        g = genuine_click_dist(params, spec_s, spec_i, 100)
        c = compound_click_dist(params, spec_s, spec_i, 100)
        assert marginal(g, "i").fano() >= marginal(c, "i").fano()

    def test_factorization_gap_is_small_but_real(self, nominal):
        # at ~0.1 photons per pixel the many-pixel matrix nearly factorizes
        # into independent single-pixel detections; the residual gap is a
        # measured quantity, not an assumed bound
        params, spec_s, spec_i = nominal
        n = 10
        g = genuine_click_dist(params, spec_s, spec_i, n)
        c = compound_click_dist(params, spec_s, spec_i, n)
        gap = 0.5 * np.abs(g - c[:n + 1, :n + 1]).sum()
        assert 0 < gap < 5e-3
