import numpy as np
import pytest

from oracles import pump_moment_model
from twinbeam import (DetectorSpec, PumpCorrelation, TwbParams, fano_nrp_cov,
                      from_intensity_moments, sample_stream)
from twinbeam import models
from twinbeam.errors import InvalidParameterError


class TestSampleStream:
    def test_dark_free_vacuum_gives_all_zero_stream(self):
        params = TwbParams(1, 1, 1, 0.0, 0.0, 0.0)
        stream = sample_stream(params, DetectorSpec(0.5, 0.0, 1),
                               DetectorSpec(0.5, 0.0, 1),
                               PumpCorrelation(0.0, 100), 10_000, seed=3)
        assert stream.codes.max() == 0

    def test_same_seed_bit_identical(self, nominal):
        params, spec_s, spec_i = nominal
        pump = PumpCorrelation(1e-3, 500)
        a = sample_stream(params, spec_s, spec_i, pump, 300_000, seed=11)
        b = sample_stream(params, spec_s, spec_i, pump, 300_000, seed=11)
        assert np.array_equal(a.codes, b.codes)
        c = sample_stream(params, spec_s, spec_i, pump, 300_000, seed=12)
        assert not np.array_equal(a.codes, c.codes)

    def test_click_rates_match_closed_form(self, stream_1m, nominal):
        params, spec_s, spec_i = nominal
        p_s, p_i, p11 = models.window_click_probs(params, spec_s, spec_i)
        n = len(stream_1m)
        for observed, expected in (
                (stream_1m.signal.mean(), p_s),
                (stream_1m.idler.mean(), p_i),
                ((stream_1m.codes == 3).mean(), p11)):
            sigma = np.sqrt(expected * (1 - expected) / n)
            assert abs(observed - expected) < 3.5 * sigma

    def test_perfect_efficiency_supported(self):
        params = TwbParams(1, 1, 1, 0.5, 0.0, 0.0)
        stream = sample_stream(params, DetectorSpec(1.0, 0.0, 1),
                               DetectorSpec(1.0, 0.0, 1),
                               PumpCorrelation(0.0, 100), 50_000, seed=8)
        # perfect pairing and unit efficiency: both arms always agree
        assert np.array_equal(stream.signal, stream.idler)

    def test_multi_pixel_detector_rejected(self, nominal):
        params, spec_s, _ = nominal
        with pytest.raises(InvalidParameterError):
            sample_stream(params, spec_s, DetectorSpec(0.3, 0.0, 4),
                          PumpCorrelation(0.0, 10), 10, seed=0)

    def test_overstrong_drift_rejected(self):
        with pytest.raises(InvalidParameterError):
            PumpCorrelation(0.2, 100)

    def test_pump_drift_raises_grouped_variance(self, nominal):
        params, spec_s, spec_i = nominal
        k = 5e-3
        drift = sample_stream(params, spec_s, spec_i,
                              PumpCorrelation(k, 2_000), 1_000_000, seed=21)
        flat = sample_stream(params, spec_s, spec_i,
                             PumpCorrelation(0.0, 2_000), 1_000_000, seed=21)
        n = 500
        gd = drift.idler[:1_000_000].reshape(-1, n).sum(axis=1)
        gf = flat.idler[:1_000_000].reshape(-1, n).sum(axis=1)
        fano_d = gd.var() / gd.mean()
        fano_f = gf.var() / gf.mean()
        pred = fano_nrp_cov(from_intensity_moments(
            models.compound_click_moments(params, spec_s, spec_i, n, 2, k)))
        assert fano_d > fano_f + 0.05
        assert fano_d == pytest.approx(pred["fano_i"], rel=0.1)


class TestPumpMomentModel:
    def test_no_drift_leaves_second_moment(self, nominal):
        params, _, _ = nominal
        out = pump_moment_model(params, 0.0, 7)
        base = 7 * params.m_p * params.b_p
        assert out["w_all_mean"] == pytest.approx(base)
        assert out["w_all_sq"] == pytest.approx(
            base ** 2 + 7 * params.m_p * params.b_p ** 2)

    def test_single_window_unchanged(self, nominal):
        params, _, _ = nominal
        with_k = pump_moment_model(params, 0.5, 1)
        without = pump_moment_model(params, 0.0, 1)
        assert with_k == without

    def test_drift_term_magnitude(self, nominal):
        # k <W_p^w>^2 = 1e-5 adds 1e-5 * 1000 * 999 = 9.99 at n = 1000
        params, _, _ = nominal
        w = params.m_p * params.b_p
        k = 1e-5 / w ** 2
        extra = (pump_moment_model(params, k, 1000)["w_all_sq"]
                 - pump_moment_model(params, 0.0, 1000)["w_all_sq"])
        assert extra == pytest.approx(9.99, rel=1e-10)
