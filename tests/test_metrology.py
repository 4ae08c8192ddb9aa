import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (compound_click_dist, conditional_photon_dist,
                     extended_window_cells, in_memory_precision_improvement,
                     normalized, relative_error, stream_of)
from twinbeam import (ClickStream, DetectorSpec, PumpCorrelation, TwbParams,
                      effective_efficiency, fano_nrp_cov, group_histogram,
                      joint_twb, moments, optimal_postselection,
                      precision_improvement, sample_stream)
from twinbeam import models
from twinbeam import io as tbio
from twinbeam.cli import main
from twinbeam.errors import DataError, TwinbeamError, UsageError
from twinbeam.metrology import _postselect


def grouped_clicks(params, spec_s, spec_i, n, k=0.0):
    """Factorial moments of ``n`` grouped clicks from the closed-form model."""
    return models.compound_click_moments(params, spec_s, spec_i, n, 2, k)


def histogram_moments(h):
    """Factorial moments of a measured histogram, as ``analyze`` takes them."""
    return moments(normalized(h), 2)


class TestEffectiveEfficiencyModel:
    def test_poisson_noiseless_limit_recovers_eta(self):
        # vanishing per-mode and per-window means: Poissonian pairs, no
        # noise, no pile-up
        params = TwbParams(10, 1, 1, 1e-8, 0.0, 0.0)
        det = DetectorSpec(0.4, 0.0, 1)
        assert effective_efficiency(grouped_clicks(params, det, det, 10)) == \
            pytest.approx(0.4, rel=1e-6)

    def test_many_faint_modes_keep_the_poisson_limit(self):
        # 1e7 modes of 1e-12 pairs each: (1 + b u)^-m must not be taken of a
        # rounded 1 + b u, which put it 2.2e-4 below 0.4
        params = TwbParams(1e7, 1, 1, 1e-12, 0.0, 0.0)
        det = DetectorSpec(0.4, 0.0, 1)
        assert effective_efficiency(grouped_clicks(params, det, det, 10)) == \
            pytest.approx(0.4, rel=1e-5)

    def test_noise_lowers_and_bunching_raises(self, nominal):
        params, spec_s, spec_i = nominal
        base = effective_efficiency(grouped_clicks(*nominal, 10), "s")
        # pair-number fluctuations beyond Poissonian raise the value above
        # that of Poissonian pairs (many modes) of the same mean
        mean = params.m_p * params.b_p
        bunched = TwbParams(1, 1, 1, mean, 0.0, 0.0)
        poissonian = TwbParams(1e6, 1, 1, mean / 1e6, 0.0, 0.0)
        assert effective_efficiency(grouped_clicks(bunched, spec_s, spec_i, 10)) > \
            effective_efficiency(grouped_clicks(poissonian, spec_s, spec_i, 10))
        # idler noise photons pull the signal-arm value down
        noisy = TwbParams(params.m_p, params.m_s, params.m_i,
                          params.b_p, params.b_s, params.b_i * 200)
        assert effective_efficiency(grouped_clicks(noisy, spec_s, spec_i, 10)) \
            < base

    @pytest.mark.parametrize("arm", ["signal", "idler", "S", ""])
    def test_unknown_arm_rejected(self, nominal, arm):
        # the manifests name the arms "signal" and "idler", but only "s"
        # and "i" select one: any other name must not read as the idler
        with pytest.raises(UsageError, match="arm must be 's' or 'i'"):
            effective_efficiency(grouped_clicks(*nominal, 10), arm)

    def test_no_pairs_read_zero_not_a_rounding_error(self, nominal):
        # a covariance that is truly 0 has no relative precision; what
        # counts is the efficiency's rounding, about 2 n eps p_s
        _, spec_s, spec_i = nominal
        params = TwbParams(10, 10, 10, 0.0, 8e-3, 2e-3)
        for n in (1, 10, 1000):
            assert abs(effective_efficiency(
                grouped_clicks(params, spec_s, spec_i, n))) < 1e-12

    def test_huge_drift_covariance_passes_the_rounding_check(self, nominal):
        # at 2^40 windows the drift's covariance, 1e18, is 6e-13 off at
        # most: an efficiency far above 1, but twelve digits hold
        got = effective_efficiency(grouped_clicks(*nominal, 2 ** 40, 0.965e-3))
        assert got > 1e7

    def test_drift_raises_with_group_size(self, nominal):
        k = 1e-3
        lo = effective_efficiency(grouped_clicks(*nominal, 10, k))
        hi = effective_efficiency(grouped_clicks(*nominal, 1000, k))
        assert hi > lo
        assert hi > effective_efficiency(grouped_clicks(*nominal, 1000))


class TestFanoNrpModels:
    def test_no_drift_constant_in_n(self, nominal):
        stats = [fano_nrp_cov(grouped_clicks(*nominal, n)) for n in (1, 10, 1000)]
        values = [s["fano_i"] for s in stats]
        assert values[1] == pytest.approx(values[0], rel=1e-12)
        assert values[2] == pytest.approx(values[0], rel=1e-12)
        rvals = [s["nrp"] for s in stats]
        assert rvals[1] == pytest.approx(rvals[0], rel=1e-12)
        assert rvals[2] == pytest.approx(rvals[0], rel=1e-12)

    def test_drift_raises_fano(self, nominal):
        assert fano_nrp_cov(grouped_clicks(*nominal, 1000, 1e-3))["fano_s"] > \
            fano_nrp_cov(grouped_clicks(*nominal, 1000))["fano_s"]


class TestEffectiveEfficiencyEstimator:
    def test_independent_arms_give_zero(self):
        params = TwbParams(1, 2, 2, 0.0, 0.05, 0.05)
        stream = sample_stream(params, DetectorSpec(0.5, 0.0, 1),
                               DetectorSpec(0.5, 0.0, 1),
                               PumpCorrelation(0.0, 100), 400_000, seed=17)
        h = group_histogram(stream, 10, "disjoint")
        eff = effective_efficiency(histogram_moments(h), "s")
        assert abs(eff) < 0.02

    def test_matches_click_level_model(self, stream_1m, nominal):
        params, spec_s, spec_i = nominal
        h = group_histogram(stream_1m, 10, "disjoint")
        pred = effective_efficiency(grouped_clicks(params, spec_s, spec_i, 10))
        eff = effective_efficiency(histogram_moments(h), "s")
        assert eff == pytest.approx(pred, abs=0.01)

    def test_dark_subtraction_raises_value(self, stream_1m, nominal):
        _, _, spec_i = nominal
        h = group_histogram(stream_1m, 10, "disjoint")
        table = histogram_moments(h)
        assert effective_efficiency(table, "s", dark_mean=10 * spec_i.dark) > \
            effective_efficiency(table, "s")

    def test_moment_table_input(self, stream_1m):
        # a histogram's moment table gives the sample covariance of the two
        # arms over the other arm's sample mean
        h = group_histogram(stream_1m, 10, "disjoint")
        f = normalized(h)
        c = np.arange(f.shape[0])
        mean_s, mean_i = c @ f.sum(axis=1), c @ f.sum(axis=0)
        cov = c @ f @ c - mean_s * mean_i
        assert effective_efficiency(histogram_moments(h), "s") == \
            pytest.approx(cov / mean_i, rel=1e-12)


class TestPostselection:
    def test_diagonal_histogram_fano_zero(self):
        counts = np.diag([0, 500, 300, 100])
        best = optimal_postselection(counts, min_events=100)
        assert best.fano_min == 0.0
        assert best.p_success == pytest.approx(
            counts[best.c_s_opt].sum() / 900)

    def test_min_events_floor(self):
        # the floor is a share of the groups: 1000 of 100 is 10
        counts = np.array([[50, 0], [0, 50]])
        with pytest.raises(DataError, match="eligibility floor 10$"):
            optimal_postselection(counts, min_events=1000)

    def test_empty_table_refused_without_a_warning(self):
        # no groups, so no eligible row, and nothing is divided by zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="eligibility floor 100$"):
                optimal_postselection(np.zeros((3, 3), np.int64))

    def test_nominal_single_window_optimum(self, stream_1m, nominal):
        h = group_histogram(stream_1m, 1, "disjoint")
        best = optimal_postselection(h.counts, min_events=500)
        assert best.c_s_opt == 1
        params, spec_s, spec_i = nominal
        p_s, p_i, p11 = models.window_click_probs(params, spec_s, spec_i)
        assert best.fano_min == pytest.approx(1 - p11 / p_s, abs=0.01)
        assert best.p_success == pytest.approx(p_s, abs=0.001)


@st.composite
def weak_windows(draw):
    """Parameters and detectors of a window of 1e-10 to 1 pair, with noise
    of up to 30 % of the pairs in each arm."""
    m_p, m_s, m_i = (draw(st.floats(0.5, 100.0)) for _ in range(3))
    pairs = 10.0 ** draw(st.floats(-10.0, 0.0))
    noise_s, noise_i = (pairs * draw(st.floats(0.0, 0.3)) for _ in range(2))
    dark = st.one_of(st.just(0.0), st.floats(1e-12, 0.05))
    return (TwbParams(m_p, m_s, m_i, pairs / m_p, noise_s / m_s, noise_i / m_i),
            *(DetectorSpec(draw(st.floats(0.05, 1.0)), draw(dark), 1)
              for _ in range(2)))


class TestWindowClickLaw:
    @settings(max_examples=300, deadline=None, database=None)
    @given(window=weak_windows())
    @example(window=(TwbParams(10, 10, 10, 1e-10, 0, 0),
                     DetectorSpec(0.282, 0.0, 1), DetectorSpec(0.330, 0.0, 1)))
    @example(window=(TwbParams(10, 10, 10, 1e-3, 0, 0),
                     DetectorSpec(0.3, 0.0, 1), DetectorSpec(1 - 1e-9, 0.0, 1)))
    @example(window=(TwbParams(1, 1, 1, 1, 0, 2.2e-183),
                     DetectorSpec(1.0, 0.0, 1), DetectorSpec(1.0, 0.0, 1)))
    def test_weak_windows_against_extended_precision(self, window):
        # in a weak window every click chance is far below 1: none may come
        # from a difference of no-click chances near 1.  At an idler
        # efficiency near 1, w10 must not come from the signal's no-click
        # log plus the tie, which cancel; a noise far below the pairs leaves
        # w01 far below every other cell.  Below the smallest normal double
        # no float has relative precision to hold to the bound
        w00, w10, w01, w11 = exact = extended_window_cells(*window)
        _, mean, _ = models.postselection_stats(*window, 1)
        np.testing.assert_allclose(
            [*models.window_click_law(*window),
             *models.window_click_probs(*window), mean[1], mean[0]],
            [*exact, w10 + w11, w01 + w11, w11, w11 / (w10 + w11),
             w01 / (w00 + w01)], rtol=1e-10, atol=np.finfo(float).tiny)
        factors = np.array([0.0, 0.5, 1.0, 1.7])
        np.testing.assert_array_equal(
            models.window_click_law(*window, factors),
            np.transpose([models.window_click_law(*window, f)
                          for f in factors]))


def table_postselection(params, spec_s, spec_i, n, floor=1e-3):
    """Post-selection on the whole compound click table, row by row."""
    table = compound_click_dist(params, spec_s, spec_i, n)
    occupancy = table.sum(axis=1)
    probs = table / np.where(occupancy > 0, occupancy, 1.0)[:, None]
    c_i = np.arange(table.shape[1])
    mean = probs @ c_i
    var = ((c_i - mean[:, None]) ** 2 * probs).sum(axis=1)
    return _postselect(occupancy, mean, var, floor)


class TestClosedFormPostselection:
    @settings(max_examples=200, deadline=None, database=None)
    @given(m=st.tuples(*[st.floats(0.5, 20.0)] * 3),
           b_p=st.floats(1e-3, 0.05),
           b_noise=st.tuples(*[st.floats(0.0, 0.01)] * 2),
           eta=st.tuples(*[st.floats(0.05, 0.95)] * 2),
           dark=st.tuples(*[st.floats(0.0, 0.05)] * 2),
           n=st.integers(1, 60))
    def test_matches_the_compound_table(self, m, b_p, b_noise, eta, dark, n):
        # paired photons (b_p > 0) and lossy heralding (eta < 1) keep the
        # conditional Fano strictly monotone in c_s, so the optimum is
        # unique.  At most one pair per window, the regime of on/off
        # detection: with tens of pairs the Fano factor falls to 1e-9 and
        # both routes lose 1e-8 of it to the rounding of p11.
        params = TwbParams(*m, b_p, *b_noise)
        spec_s, spec_i = (DetectorSpec(e, d, 1) for e, d in zip(eta, dark))
        closed = _postselect(
            *models.postselection_stats(params, spec_s, spec_i, n), 1e-3)
        table = table_postselection(params, spec_s, spec_i, n)
        assert closed.c_s_opt == table.c_s_opt
        for field in ("fano_min", "mean_conditional", "p_success"):
            assert getattr(closed, field) == pytest.approx(
                getattr(table, field), rel=1e-9, abs=0.0)

    def test_bright_windows_against_extended_precision(self):
        # tens of pairs per window put the optimum's Fano factor at 1e-9:
        # 1 - q1 must not come from a difference of numbers near 1
        import mpmath as mp
        params = TwbParams(47.3, 4.4, 8.2, 0.5, 0, 0)
        spec_s, spec_i = DetectorSpec(0.05, 0.035, 1), DetectorSpec(0.95, 0.05, 1)
        n = 14
        _, mean, var = models.postselection_stats(params, spec_s, spec_i, n)
        with mp.workprec(200):
            m_p, m_s, m_i, b_p, b_s, b_i = map(mp.mpf, (
                params.m_p, params.m_s, params.m_i,
                params.b_p, params.b_s, params.b_i))

            def pgf(x, y):
                return ((1 + b_s * (1 - x)) ** -m_s * (1 + b_i * (1 - y)) ** -m_i
                        * (1 + b_p * (1 - x * y)) ** -m_p)

            xs, yi = 1 - mp.mpf(spec_s.eta), 1 - mp.mpf(spec_i.eta)
            ds, di = 1 - mp.mpf(spec_s.dark), 1 - mp.mpf(spec_i.dark)
            no_s, no_i, no_both = ds * pgf(xs, 1), di * pgf(1, yi), \
                ds * di * pgf(xs, yi)
            q1 = 1 - (no_i - no_both) / (1 - no_s)
            q0 = 1 - no_both / no_s
            exact_mean = [c * q1 + (n - c) * q0 for c in range(n + 1)]
            exact_fano = [float((c * q1 * (1 - q1) + (n - c) * q0 * (1 - q0))
                                / m) for c, m in enumerate(exact_mean)]
        np.testing.assert_allclose(mean, [float(m) for m in exact_mean],
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(var / mean, exact_fano, rtol=1e-12, atol=0)

    @settings(max_examples=80, deadline=None, database=None)
    @given(m=st.tuples(*[st.floats(0.5, 20.0)] * 3),
           b_p=st.floats(1e-3, 0.05),
           b_noise=st.tuples(*[st.floats(0.0, 0.01)] * 2),
           eta_s=st.floats(0.05, 0.95), dark_s=st.floats(0.0, 0.05),
           n=st.integers(1, 60))
    def test_heralded_photons_match_the_convolution_powers(
            self, m, b_p, b_noise, eta_s, dark_s, n):
        params = TwbParams(*m, b_p, *b_noise)
        spec_s = DetectorSpec(eta_s, dark_s, 1)
        joint = joint_twb(params)
        for c_s in range(n + 1):
            cond = conditional_photon_dist(joint, spec_s, c_s, n)
            mean, var = models.heralded_photon_stats(params, spec_s, c_s, n)
            assert mean == pytest.approx(cond.mean(), rel=1e-9, abs=0.0)
            assert var / mean == pytest.approx(cond.fano(), rel=1e-9, abs=0.0)

    def test_heralded_photons_exact_at_a_rare_signal_click(self):
        # p_s = 2.5e-5: forming H1 as G(1, y) - H0 would lose eps / p_s
        params = TwbParams(0.5, 1.01, 3.23, 1e-3, 0, 0.0044)
        spec_s = DetectorSpec(0.05, 0.0, 1)
        cond = conditional_photon_dist(joint_twb(params), spec_s, 48, 48)
        mean, var = models.heralded_photon_stats(params, spec_s, 48, 48)
        assert mean == pytest.approx(cond.mean(), rel=1e-13, abs=0.0)
        assert var / mean == pytest.approx(cond.fano(), rel=1e-13, abs=0.0)

    def sweep(self, tmp_path, capsys, **values):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"m_p": 10, "m_s": 10, "m_i": 10, **values}))
        code = main(["sweep", "--metric", "postselect", "--groups", "1,10,100",
                     "--params", str(path)])
        out, err = capsys.readouterr()
        return code, out.strip().splitlines(), err

    def test_signal_without_clicks_heralds_on_zero(self, tmp_path, capsys):
        # b_p = b_s = 0 and no dark counts: p_s = 0, only c_s = 0 occurs
        code, lines, _ = self.sweep(tmp_path, capsys, b_p=0.0, b_s=0.0,
                                    b_i=0.01, dark_s=0.0)
        assert code == 0
        header = lines[0].split(",")
        rows = np.array([row.split(",") for row in lines[1:]], dtype=float)
        assert not np.isnan(rows).any()
        params = TwbParams(10, 10, 10, 0.0, 0.0, 0.01)
        spec_s = DetectorSpec(models.NOMINAL_SIGNAL.eta, 0.0, 1)
        for row in rows:
            table = table_postselection(params, spec_s, models.NOMINAL_IDLER,
                                        int(row[0]))
            assert table.c_s_opt == row[header.index("c_s_opt")] == 0
            for col, field in (("fano_click", "fano_min"),
                               ("mean_click", "mean_conditional"),
                               ("p_success", "p_success")):
                assert row[header.index(col)] == pytest.approx(
                    getattr(table, field), rel=1e-9, abs=0.0)

    def test_no_light_and_no_dark_counts_is_a_data_error(self, tmp_path,
                                                         capsys):
        code, _, err = self.sweep(tmp_path, capsys, b_p=0.0, b_s=0.0, b_i=0.0,
                                  dark_s=0.0, dark_i=0.0)
        assert code == 3
        assert "eligibility floor" in err
        with pytest.raises(DataError, match="eligibility floor 0.001"):
            table_postselection(TwbParams(10, 10, 10, 0.0, 0.0, 0.0),
                                DetectorSpec(0.282, 0.0, 1),
                                DetectorSpec(0.330, 0.0, 1), 10)


class TestRelativeError:
    def test_poisson_normalized_error_near_one(self):
        rng = np.random.default_rng(123)
        seq = rng.poisson(6.0, size=200_000)
        rep = relative_error(seq, 1000)
        assert rep.normalized == pytest.approx(1.0, abs=0.02)
        assert rep.rel_err_classical == pytest.approx(
            1 / np.sqrt(seq[:rep.n_blocks * 1000].mean() * 1000), rel=1e-12)

    def test_small_blocks_bias_low(self):
        rng = np.random.default_rng(7)
        seq = rng.poisson(6.0, size=200_000)
        biased = relative_error(seq, 8).normalized
        asymptotic = relative_error(seq, 2000).normalized
        assert biased < asymptotic - 0.03

    def test_block_permutation_invariance(self):
        rng = np.random.default_rng(9)
        seq = rng.poisson(4.0, size=5_000)
        rep = relative_error(seq, 100)
        blocks = seq[:5_000].reshape(50, 100)
        shuffled = blocks[rng.permutation(50)].ravel()
        rep2 = relative_error(shuffled, 100)
        assert rep2.rel_err == pytest.approx(rep.rel_err, rel=1e-12)
        assert rep2.normalized == pytest.approx(rep.normalized, rel=1e-12)

    def test_insufficient_data(self):
        with pytest.raises(DataError, match="gives no block of 100"):
            relative_error(np.ones(10), 100)


class TestPrecisionImprovement:
    def test_uncorrelated_arms_show_no_gain(self):
        params = TwbParams(1, 2, 2, 0.0, 0.05, 0.05)
        stream = sample_stream(params, DetectorSpec(0.5, 0.0, 1),
                               DetectorSpec(0.5, 0.0, 1),
                               PumpCorrelation(0.0, 100), 2_000_000, seed=19)
        out = precision_improvement(stream, 20, 100)
        assert out["S_cs"] == pytest.approx(1.0, abs=0.05)
        assert out["S_ci"] == pytest.approx(1.0, abs=0.05)

    def test_paired_beams_beat_reference(self, stream_1m):
        out = precision_improvement(stream_1m, 50, 100)
        assert out["S_cs"] < 0.95
        assert out["S_ci"] < 0.95
        assert out["conditioned_on_signal"].normalized < \
            out["reference_i"].normalized

    def test_higher_efficiency_detector_gains_more(self, stream_1m, nominal):
        # heralding on the signal arm sends the conditioned field to the
        # more efficient idler detector, so that route improves more
        out = precision_improvement(stream_1m, 50, 100)
        assert out["S_cs"] < out["S_ci"]

    def test_insufficient_conditioned_data(self):
        params = TwbParams(1, 1, 1, 0.01, 0.0, 0.0)
        stream = sample_stream(params, DetectorSpec(0.3, 0.0, 1),
                               DetectorSpec(0.3, 0.0, 1),
                               PumpCorrelation(0.0, 100), 5_000, seed=2)
        with pytest.raises(DataError, match="cannot fill one block"):
            precision_improvement(stream, 100, 500)


def outcome(route, stream, n, n_m):
    """The report of ``route``, or the type and message of its error.

    Blocks of one repeated count have no spread, and a reference arm made of
    them divides ``S_cs`` or ``S_ci`` by 0: the oracle then reads NaN or inf.
    """
    try:
        with np.errstate(invalid="ignore", divide="ignore"):
            return route(stream, n, n_m)
    except TwinbeamError as err:
        return type(err), str(err)


def numbers(report):
    """Every field of every entry of a precision report, in order."""
    return [x for value in report.values()
            for x in (dataclasses.astuple(value)
                      if dataclasses.is_dataclass(value) else (value,))]


def assert_same_outcome(got, expected):
    """The package's outcome is the oracle's, bit for bit."""
    if isinstance(expected, dict) and not np.isfinite(
            [expected["S_cs"], expected["S_ci"]]).all():
        # the package refuses exactly the ratios the oracle cannot form
        assert got[0] is DataError and "zero spread" in got[1]
    elif isinstance(expected, dict):
        assert isinstance(got, dict) and got.keys() == expected.keys()
        np.testing.assert_array_equal(numbers(got), numbers(expected))
    else:
        assert got == expected


def click_codes(length, weights, seed):
    """``length`` window codes drawn from the four click outcomes."""
    p = np.asarray(weights, dtype=float) + 1e-9
    rng = np.random.default_rng(seed)
    return rng.choice(4, size=length, p=p / p.sum()).astype(np.uint8)


class TestStreamedPrecision:
    @settings(max_examples=60, deadline=None, database=None)
    @given(blocks=st.integers(0, 30), extra=st.integers(0, 399),
           weights=st.tuples(*[st.floats(0.02, 1.0)] * 4),
           seed=st.integers(0, 2**32 - 1),
           n=st.integers(1, 10), n_m=st.integers(1, 40),
           chunk=st.one_of(st.integers(1, 500), st.just(1 << 18)))
    @example(blocks=0, extra=0, weights=(1, 1, 1, 1), seed=0, n=1, n_m=1,
             chunk=7)
    @example(blocks=9, extra=0, weights=(0, 0, 1, 0), seed=0, n=5, n_m=10,
             chunk=64)
    @example(blocks=9, extra=0, weights=(0, 0, 0, 1), seed=0, n=2, n_m=10,
             chunk=7)
    def test_chunked_pass_equals_the_in_memory_oracle(
            self, blocks, extra, weights, seed, n, n_m, chunk):
        # chunks of up to 500 windows, shorter than a group or not a
        # multiple of it, put block edges inside chunks and make blocks of
        # up to 400 windows span many chunks
        codes = click_codes(blocks * n * n_m + extra, weights, seed)
        expected = outcome(in_memory_precision_improvement, stream_of(codes),
                           n, n_m)
        got = outcome(precision_improvement, stream_of(codes, chunk=chunk),
                      n, n_m)
        assert_same_outcome(got, expected)

    @settings(max_examples=80, deadline=None, database=None)
    @given(codes=st.lists(st.integers(0, 3), max_size=400),
           cuts=st.lists(st.integers(0, 400), max_size=12),
           n=st.integers(1, 6), n_m=st.integers(1, 8))
    def test_irregular_chunks_equal_the_in_memory_oracle(self, codes, cuts,
                                                         n, n_m):
        # chunks of any sizes in one stream, empty ones and ones shorter
        # than a group among them
        codes = np.array(codes, dtype=np.uint8)
        chunks = np.split(codes, sorted(c % (len(codes) + 1) for c in cuts))
        stream = ClickStream(len(codes), lambda: iter(chunks), {})
        assert_same_outcome(outcome(precision_improvement, stream, n, n_m),
                            outcome(in_memory_precision_improvement,
                                    stream_of(codes), n, n_m))

    # window codes: bit 0 is the signal click, bit 1 the idler click
    SILENT_SIGNAL = [0b10] * 40
    # a signal click opens every block of six windows, every other window
    # has an idler click: too few heralded idler windows, and the signal
    # bits heralded by the idler are all zero
    RARE_SIGNAL = ([0b01] + [0b10] * 5) * 5

    @pytest.mark.parametrize("codes, n, n_m, message", [
        ([], 1, 1, "empty stream"),
        (SILENT_SIGNAL, 2, 3, "zero mean count"),
        (RARE_SIGNAL, 2, 3, "cannot fill one block"),
        ([0b11] * 20, 5, 5, "cannot fill one block"),
    ], ids=["empty", "zero-mean-block", "insufficient-before-zero-mean",
            "too-few-windows"])
    def test_errors_match_the_oracle(self, codes, n, n_m, message):
        expected = outcome(in_memory_precision_improvement, stream_of(codes),
                           n, n_m)
        assert expected[0] is DataError and message in expected[1]
        for chunk in (7, 1 << 18):
            assert outcome(precision_improvement,
                           stream_of(codes, chunk=chunk), n, n_m) == expected

    def test_reference_without_spread_is_a_data_error(self):
        # every window clicks on both arms: both references are constant and
        # the oracle's ratios are 0 / 0
        both = stream_of(np.full(1000, 0b11, dtype=np.uint8))
        with np.errstate(invalid="ignore"):
            oracle = in_memory_precision_improvement(both, 2, 10)
        assert np.isnan(oracle["S_cs"]) and np.isnan(oracle["S_ci"])
        with pytest.raises(DataError, match="reference_i has zero spread"):
            precision_improvement(both, 2, 10)
        # every other window clicks on the idler, the signal at random: the
        # idler reference is constant, the heralded idler bits are not, and
        # the oracle's S_cs is x / 0 = inf
        rng = np.random.default_rng(3)
        idler = np.tile([1, 0], 500)
        codes = (rng.integers(0, 2, 1000) | idler << 1).astype(np.uint8)
        with np.errstate(divide="ignore"):
            oracle = in_memory_precision_improvement(stream_of(codes), 2, 10)
        assert np.isinf(oracle["S_cs"]) and np.isfinite(oracle["S_ci"])
        with pytest.raises(DataError, match="reference_i"):
            precision_improvement(stream_of(codes), 2, 10)

    def test_cli_writes_no_report_without_spread(self, tmp_path, capsys):
        clicks, out = tmp_path / "both.clicks", tmp_path / "m.json"
        tbio.write_clicks(stream_of(np.full(1000, 0b11, dtype=np.uint8)),
                          str(clicks))
        assert main(["metrology", "--in", str(clicks), "--group-n", "2",
                     "--nm", "10", "--out", str(out)]) == 3
        assert "reference_i has zero spread" in capsys.readouterr().err
        assert not out.exists()

    def test_memory_does_not_grow_with_the_stream(self, nominal):
        params, spec_s, spec_i = nominal
        p_s, p_i, p11 = models.window_click_probs(params, spec_s, spec_i)
        weights = (1 - p_s - p_i + p11, p_s - p11, p_i - p11, p11)
        peaks = []
        for length in (1_000_000, 4_000_000):
            stream = stream_of(click_codes(length, weights, seed=5))
            tracemalloc.start()
            precision_improvement(stream, 10, 500)
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()
        assert max(peaks) < 4, peaks
        assert abs(peaks[1] - peaks[0]) < 1, peaks
