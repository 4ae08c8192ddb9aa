import hashlib
import sys

import numpy as np
import pytest

from oracles import codes_of, idler_bits, pump_moment_model, signal_bits
from twinbeam import (DetectorSpec, PumpCorrelation, TwbParams, fano_nrp_cov,
                      sample_stream)
from twinbeam import models, simulate
from twinbeam.errors import UsageError
from twinbeam.simulate import CHUNK

#: SHA-256 of the ``codes`` of seed-2021 nominal streams, recorded while the
#: chunks were still drawn one after another: ``(k, n_windows) -> digest``.
#: Blocks of 10 000 windows straddle the chunk boundaries.
STREAM_DIGESTS = {
    (0.0, CHUNK - 1):
        "d8899edf38b820c8d1f74fc9ede20c8a0ed9ea550b0588de264f8b02ac0efe91",
    (0.0, CHUNK):
        "8e1971593fd39496c337a18a93ab0f33b1743f9f0e6f844b7bdf5dde4c7ac9a1",
    (0.0, CHUNK + 1):
        "b32d33b7495fbc3e353c0b7107379ecaab317472fc9ff60ec423a07ba5b85674",
    (0.0, 3 * CHUNK + 17):
        "6f0db16e48dd512a7949eea84a6e61f3f35bce9ed83724d29ae5e38644a51639",
    (models.NOMINAL_PUMP.k, CHUNK - 1):
        "0f439bf89a45abe61110c91af211f57dc049bf028aad7c1879cbe5c3bec0fede",
    (models.NOMINAL_PUMP.k, CHUNK):
        "9a3a3f515e4310959ee7b75f56e327cf2f898b800ae3e2a5c39b060c98fe7492",
    (models.NOMINAL_PUMP.k, CHUNK + 1):
        "abf90ab18f1611856f89e8a24dc53ef20268125f451c26112dc7104fabb8a7f5",
    (models.NOMINAL_PUMP.k, 3 * CHUNK + 17):
        "c1349004b9de1fa1ae6ee3abc28050c857b0ab70fabcf76c43dfcd8fe38ac826",
}


class TestSampleStream:
    def test_dark_free_vacuum_gives_all_zero_stream(self):
        params = TwbParams(1, 1, 1, 0.0, 0.0, 0.0)
        stream = sample_stream(params, DetectorSpec(0.5, 0.0, 1),
                               DetectorSpec(0.5, 0.0, 1),
                               PumpCorrelation(0.0, 100), 10_000, seed=3)
        assert codes_of(stream).max() == 0

    def test_same_seed_bit_identical(self, nominal):
        params, spec_s, spec_i = nominal
        pump = PumpCorrelation(1e-3, 500)
        a = sample_stream(params, spec_s, spec_i, pump, 300_000, seed=11)
        b = sample_stream(params, spec_s, spec_i, pump, 300_000, seed=11)
        assert np.array_equal(codes_of(a), codes_of(b))
        # each pass over the chunks draws the same stream again
        assert np.array_equal(codes_of(a), codes_of(a))
        c = sample_stream(params, spec_s, spec_i, pump, 300_000, seed=12)
        assert not np.array_equal(codes_of(a), codes_of(c))

    def test_click_rates_match_closed_form(self, stream_1m, nominal):
        params, spec_s, spec_i = nominal
        p_s, p_i, p11 = models.window_click_probs(params, spec_s, spec_i)
        n = len(stream_1m)
        for observed, expected in (
                (signal_bits(stream_1m).mean(), p_s),
                (idler_bits(stream_1m).mean(), p_i),
                ((codes_of(stream_1m) == 3).mean(), p11)):
            sigma = np.sqrt(expected * (1 - expected) / n)
            assert abs(observed - expected) < 3.5 * sigma

    def test_perfect_efficiency_supported(self):
        params = TwbParams(1, 1, 1, 0.5, 0.0, 0.0)
        stream = sample_stream(params, DetectorSpec(1.0, 0.0, 1),
                               DetectorSpec(1.0, 0.0, 1),
                               PumpCorrelation(0.0, 100), 50_000, seed=8)
        # perfect pairing and unit efficiency: both arms always agree
        assert np.array_equal(signal_bits(stream), idler_bits(stream))

    def test_multi_pixel_detector_rejected(self, nominal):
        params, spec_s, _ = nominal
        with pytest.raises(UsageError, match="single-pixel detectors"):
            sample_stream(params, spec_s, DetectorSpec(0.3, 0.0, 4),
                          PumpCorrelation(0.0, 10), 10, seed=0)

    def test_overstrong_drift_rejected(self):
        with pytest.raises(UsageError, match="drift factor at zero"):
            PumpCorrelation(0.2, 100)

    def test_pump_drift_raises_grouped_variance(self, nominal):
        params, spec_s, spec_i = nominal
        k = 5e-3
        drift = sample_stream(params, spec_s, spec_i,
                              PumpCorrelation(k, 2_000), 1_000_000, seed=21)
        flat = sample_stream(params, spec_s, spec_i,
                             PumpCorrelation(0.0, 2_000), 1_000_000, seed=21)
        n = 500
        gd = idler_bits(drift).reshape(-1, n).sum(axis=1)
        gf = idler_bits(flat).reshape(-1, n).sum(axis=1)
        fano_d = gd.var() / gd.mean()
        fano_f = gf.var() / gf.mean()
        pred = fano_nrp_cov(
            models.compound_click_moments(params, spec_s, spec_i, n, 2, k))
        assert fano_d > fano_f + 0.05
        assert fano_d == pytest.approx(pred["fano_i"], rel=0.1)


class TestParallelChunks:
    @pytest.mark.parametrize("cpus", [1, None, 4])
    def test_streams_match_the_recorded_digests(self, monkeypatch, nominal,
                                                cpus):
        # None keeps this machine's CPU count; at most 4 chunks run at once,
        # and a short switch interval interleaves the workers finely
        if cpus is not None:
            monkeypatch.setattr(simulate, "_cpu_count", lambda: cpus)
        params, spec_s, spec_i = nominal
        heads = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for (k, n_windows), digest in STREAM_DIGESTS.items():
                codes = codes_of(sample_stream(params, spec_s, spec_i,
                                               PumpCorrelation(k, 10_000),
                                               n_windows, seed=2021))
                assert hashlib.sha256(codes.tobytes()).hexdigest() == digest
                # chunks are keyed by window index: a longer stream repeats
                # the whole chunks of a shorter one
                if n_windows >= CHUNK:
                    heads.setdefault(k, codes[:CHUNK])
                    assert np.array_equal(codes[:CHUNK], heads[k])
        finally:
            sys.setswitchinterval(interval)

    def test_one_worker_per_cpu_up_to_the_chunk_count(self, monkeypatch):
        monkeypatch.setattr(simulate, "_cpu_count", lambda: 3)
        assert simulate._schedule(CHUNK - 1) == (1, 1)
        assert simulate._schedule(CHUNK + 1) == (2, 2)
        assert simulate._schedule(3 * CHUNK + 17) == (4, 3)


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
