"""Acceptance suite: one test per criterion, one printed verdict line each.

Heavy inputs (two ten-million-window simulated streams and the compound
click-model family) are session-cached.  Every tolerance is written out
literally; two sub-criteria that the exact click-level statistics of the
nominal parameter set provably cannot meet are encoded as strict expected
failures with the measured values in the printed line (see the fano-band
and nominal-efficiency tests).
"""

from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

import twinbeam as tb
from oracles import (EmConfig, codes_of, compound_click_dist,
                     compound_photon_dist, conditional_photon_dist, em_joint,
                     grid_moments, held, idler_bits, marginal, stream_of,
                     to_intensity_moments, window_click_dist)
from twinbeam import models
from twinbeam.detection import column_sum_error

SEED_K0 = 20_260_810
SEED_K = 20_260_811
WINDOWS = 10_000_000
SWEEP_NS = (1, 2, 3, 5, 10, 20, 30, 50, 70, 100, 150, 200, 300, 500, 700, 1000)


def verdict(number: str, label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} [{label}]: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def stream_k0(nominal):
    params, spec_s, spec_i = nominal
    return held(tb.sample_stream(params, spec_s, spec_i,
                                 tb.PumpCorrelation(0.0, 10_000), WINDOWS,
                                 SEED_K0))


@pytest.fixture(scope="module")
def stream_k(nominal):
    params, spec_s, spec_i = nominal
    return held(tb.sample_stream(params, spec_s, spec_i, models.NOMINAL_PUMP,
                                 WINDOWS, SEED_K))


@pytest.fixture(scope="module")
def compound_family(nominal):
    params, spec_s, spec_i = nominal
    return {n: compound_click_dist(params, spec_s, spec_i, n)
            for n in SWEEP_NS}


def segment_estimates(stream, estimator, segments=10):
    """Estimator value on contiguous sub-streams, for spread-based errors."""
    size = len(stream) // segments
    codes = codes_of(stream)
    values = []
    for i in range(segments):
        part = stream_of(codes[i * size:(i + 1) * size])
        values.append(estimator(part))
    values = np.asarray(values)
    return values.mean(), values.std(ddof=1) / np.sqrt(segments)


class TestCriterion1:
    def test_detection_matrix_soundness(self):
        worst_sum, worst_entry = 0.0, 0.0
        for pixels in (1, 10, 100, 1000):
            for eta in (0.282, 0.330, 1.0):
                for dark in (0.0, 3.8e-3):
                    t = tb.detection_matrix(tb.DetectorSpec(eta, dark, pixels),
                                            300)
                    worst_sum = max(worst_sum, column_sum_error(t.entries))
                    worst_entry = min(worst_entry, float(t.entries.min()))
        ok = worst_sum < 1e-10 and worst_entry >= -1e-12
        verdict("1", "detection matrices", ok,
                f"max column-sum error {worst_sum:.2e}, "
                f"most negative entry {worst_entry:.2e}")
        assert worst_sum < 1e-10
        assert worst_entry >= -1e-12


class TestCriterion2:
    def test_window_distribution_chi_square(self, stream_k0, nominal):
        fw = window_click_dist(*nominal)
        counts = np.bincount(codes_of(stream_k0), minlength=4).astype(float)
        expected = np.array([fw.table[0, 0], fw.table[1, 0],
                             fw.table[0, 1], fw.table[1, 1]]) * len(stream_k0)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        p = float(stats.chi2.sf(chi2, df=3))
        verdict("2a", "per-window clicks vs model", p > 0.001,
                f"chi2={chi2:.2f}, p={p:.3f}")
        assert p > 0.001

    def test_grouped_histogram_chi_square(self, stream_k0, compound_family):
        h = tb.group_histogram(stream_k0, tb.GroupingPolicy(10, "disjoint"))
        expected = compound_family[10].table * h.n_groups
        keep = expected >= 5.0
        chi2 = float((((h.counts - expected)[keep]) ** 2 / expected[keep]).sum())
        dof = int(keep.sum()) - 1
        pooled_exp = expected[~keep].sum()
        if pooled_exp > 0:
            chi2 += float((h.counts[~keep].sum() - pooled_exp) ** 2 / pooled_exp)
            dof += 1
        p = float(stats.chi2.sf(chi2, df=dof))
        verdict("2b", "grouped histogram vs model", p > 0.001,
                f"chi2={chi2:.1f}, dof={dof}, p={p:.3f}")
        assert p > 0.001


class TestCriterion3:
    def test_noise_reduction_parameter(self, stream_k0, compound_family):
        model_values = {}
        for n in (1, 10, 100, 1000):
            m = tb.moments(compound_family[n].table, 2)
            model_values[n] = tb.fano_nrp_cov(m)["nrp"]
        flat = max(model_values.values()) - min(model_values.values())
        in_band = all(abs(v - 0.70) <= 0.02 for v in model_values.values())

        sim_values = {}
        for n in (1, 10, 100):
            h = tb.group_histogram(stream_k0, tb.GroupingPolicy(n, "disjoint"))
            m = tb.moments(h.normalized(), 2)
            sim_values[n] = tb.fano_nrp_cov(m)["nrp"]
        sim_in_band = all(abs(v - 0.70) <= 0.02 for v in sim_values.values())

        ok = in_band and flat < 1e-6 and sim_in_band
        verdict("3a", "noise-reduction parameter", ok,
                f"model R_c={model_values[1]:.4f} (spread {flat:.1e}), "
                f"simulated {[round(float(v), 4) for v in sim_values.values()]}")
        assert in_band and sim_in_band
        assert flat < 1e-6      # independent windows: exactly flat in n

    def test_pileup_keeps_fano_below_one(self, compound_family):
        fanos = [marginal(compound_family[n], arm).fano()
                 for n in (1, 10, 100, 1000) for arm in "si"]
        ok = all(f < 1.0 for f in fanos)
        verdict("3b-i", "pile-up bound F < 1", ok,
                f"F range [{min(fanos):.4f}, {max(fanos):.4f}]")
        assert ok

    @pytest.mark.xfail(
        strict=True,
        reason="exact click statistics of the nominal beam give marginal "
               "Fano factors 0.9688 (signal) and 0.9633 (idler); the stated "
               "band [0.985, 1.0) is unreachable at a 3.1-3.7% per-window "
               "click rate (see decisions ledger)")
    def test_fano_band_as_stated(self, compound_family):
        f_s = marginal(compound_family[10], "s").fano()
        f_i = marginal(compound_family[10], "i").fano()
        ok = 0.985 <= f_s < 1.0 and 0.985 <= f_i < 1.0
        verdict("3b-ii", "marginal Fano in [0.985, 1.0)", ok,
                f"F_c,s={f_s:.4f}, F_c,i={f_i:.4f}")
        assert ok


class TestCriterion4:
    def test_em_reconstruction(self, nominal):
        params, spec_s, spec_i = nominal
        n, n_max = 10, 60
        truth = compound_photon_dist(params, n)
        t_s = tb.detection_matrix(tb.DetectorSpec(spec_s.eta, spec_s.dark, n),
                                  n_max)
        t_i = tb.detection_matrix(tb.DetectorSpec(spec_i.eta, spec_i.dark, n),
                                  n_max)
        padded = np.zeros((n_max + 1, n_max + 1))
        padded[:truth.table.shape[0], :truth.table.shape[1]] = truth.table
        fwd = t_s.entries @ padded @ t_i.entries.T
        est, res = tb.ml_joint(fwd, t_s.entries, t_i.entries)
        tv = 0.5 * np.abs(est.table - padded).sum()

        fc = compound_click_dist(params, spec_s, spec_i, n)
        est2, _ = tb.ml_joint(fc.table, t_s.entries, t_i.entries)
        stats2 = tb.fano_nrp_cov(tb.moments(est2.table, 2))
        ok = tv <= 0.01 and stats2["nrp"] <= 0.05 and stats2["covariance"] >= 0.95
        verdict("4", "maximum-likelihood reconstruction", ok,
                f"TV={tv:.4f} (Lindsay bound {res.lindsay_bound:.1e}), "
                f"reconstructed R_n={stats2['nrp']:.4f}, "
                f"C_n={stats2['covariance']:.4f}")
        assert tv <= 0.01
        assert stats2["nrp"] <= 0.05
        assert stats2["covariance"] >= 0.95


class TestCriterion5:
    @pytest.mark.xfail(
        strict=True,
        reason="covariance-based efficiencies of on/off clicks at the nominal "
               "rates are 0.271/0.314 after dark subtraction (0.243/0.286 "
               "raw); the pile-up and accidental suppression keeps them "
               "outside 0.282/0.330 +- 0.01 (see decisions ledger)")
    def test_nominal_efficiency_band_as_stated(self, stream_k0, nominal):
        _, spec_s, spec_i = nominal
        h = tb.group_histogram(stream_k0, tb.GroupingPolicy(10, "disjoint"))
        normal = tb.moments(h.normalized(), 2)
        eff_s = tb.effective_efficiency(normal, "s", dark_mean=10 * spec_i.dark)
        eff_i = tb.effective_efficiency(normal, "i", dark_mean=10 * spec_s.dark)
        ok = abs(eff_s - 0.282) <= 0.01 and abs(eff_i - 0.330) <= 0.01
        verdict("5a", "efficiency within 0.01 of nominal", ok,
                f"eta_s^eff={eff_s:.4f} (target 0.282), "
                f"eta_i^eff={eff_i:.4f} (target 0.330)")
        assert ok

    def test_simulation_tracks_click_model(self, stream_k0, nominal):
        params, spec_s, spec_i = nominal
        outcomes = {}
        for n in (1, 10, 100):
            pred = models.compound_click_moments(params, spec_s, spec_i, n, 2)

            def estimate(part, n=n):
                h = tb.group_histogram(part, tb.GroupingPolicy(n, "disjoint"))
                return tb.effective_efficiency(
                    tb.moments(h.normalized(), 2), "s")

            mean, err = segment_estimates(stream_k0, estimate)
            outcomes[n] = (mean, err, tb.effective_efficiency(pred, "s"))
        ok = all(abs(m - t) < 3 * e for m, e, t in outcomes.values())
        verdict("5b", "K=0 efficiency vs forward model", ok,
                ", ".join(f"N={n}: {m:.5f}+-{e:.5f} (model {t:.5f})"
                          for n, (m, e, t) in outcomes.items()))
        assert ok

    def test_pump_drift_raises_efficiency(self, stream_k, nominal):
        params, spec_s, spec_i = nominal
        k = models.NOMINAL_PUMP.k
        results = {}
        for n in (10, 100, 1000):
            def estimate(part, n=n):
                h = tb.group_histogram(part, tb.GroupingPolicy(n, "disjoint"))
                return tb.effective_efficiency(
                    tb.moments(h.normalized(), 2), "s")

            mean, err = segment_estimates(stream_k, estimate)
            pred = models.compound_click_moments(params, spec_s, spec_i, n, 2,
                                                 k)
            results[n] = (mean, err, tb.effective_efficiency(pred, "s"))
        tracks = all(abs(m - t) < 3 * e for m, e, t in results.values())
        m100, e100, t100 = results[100]
        m1000, e1000, t1000 = results[1000]
        rises = m1000 - m100 > 3 * np.hypot(e100, e1000)
        model_rises = t1000 > t100
        ok = tracks and rises and model_rises
        verdict("5c", "drift efficiency rise", ok,
                ", ".join(f"N={n}: {m:.4f}+-{e:.4f} (model {t:.4f})"
                          for n, (m, e, t) in results.items()))
        assert tracks
        assert rises and model_rises


class TestCriterion6:
    def test_nonclassicality_depths(self, compound_family, nominal):
        params, _, _ = nominal
        tau_e, tau_m = {}, {}
        for n in SWEEP_NS:
            w = tb.moments(compound_family[n].table, 5)
            tau_e[n] = tb.ncd(w, "E001").tau
            tau_m[n] = tb.ncd(w, "M1001").tau
        peak_n = max(tau_e, key=tau_e.get)
        peak = tau_e[peak_n]
        photon_taus = []
        for n in (10, 100, 1000):
            w = tb.moments(compound_photon_dist(params, n).table, 5)
            photon_taus += [tb.ncd(w, "E001").tau, tb.ncd(w, "M1001").tau]
        all_taus = list(tau_e.values()) + list(tau_m.values()) + photon_taus
        ok = (abs(peak - 0.14) <= 0.02 and 20 <= peak_n <= 100
              and all(t > 0 for t in tau_m.values())
              and all(t <= 0.5 + 1e-6 for t in all_taus))
        verdict("6", "non-classicality depths", ok,
                f"tau_E001 peak {peak:.4f} at N={peak_n}; "
                f"tau_M1001(1000)={tau_m[1000]:.4f}; "
                f"max tau={max(all_taus):.4f}")
        assert abs(peak - 0.14) <= 0.02
        assert 20 <= peak_n <= 100
        assert all(t > 0 for t in tau_m.values())
        assert all(t <= 0.5 + 1e-6 for t in all_taus)


class TestCriterion7:
    def test_single_window_postselection(self, stream_k0, nominal):
        params, spec_s, spec_i = nominal
        h = tb.group_histogram(stream_k0, tb.GroupingPolicy(1, "disjoint"))
        best = tb.optimal_postselection(h.counts, min_events=500)
        cond = conditional_photon_dist(tb.joint_twb(params), spec_s,
                                       best.c_s_opt, 1)
        # simulated conditional click rate agrees with the model rate
        p_s, p_i, p11 = models.window_click_probs(params, spec_s, spec_i)
        q_hat = best.mean_conditional
        sigma = np.sqrt((p11 / p_s) * (1 - p11 / p_s)
                        / (h.counts[1].sum()))
        click_ok = abs(q_hat - p11 / p_s) < 3 * sigma
        ok = (best.c_s_opt == 1 and abs(cond.mean() - 1.0) <= 0.2
              and abs(cond.fano() - 0.2) <= 0.05
              and best.p_success >= 0.01 and click_ok)
        verdict("7a", "N=1 conditional field", ok,
                f"c_opt={best.c_s_opt}, photon mean={cond.mean():.4f}, "
                f"Fano={cond.fano():.4f}, p_success={best.p_success:.4f}")
        assert best.c_s_opt == 1
        assert cond.mean() == pytest.approx(1.0, abs=0.2)
        assert cond.fano() == pytest.approx(0.2, abs=0.05)
        assert best.p_success >= 0.01
        assert click_ok

    def test_thousand_window_postselection(self, stream_k0, nominal):
        params, spec_s, spec_i = nominal
        h = tb.group_histogram(stream_k0, tb.GroupingPolicy(1000, "disjoint"))
        best = tb.optimal_postselection(h.counts, min_events=600)
        cond = conditional_photon_dist(tb.joint_twb(params), spec_s,
                                       best.c_s_opt, 1000)
        ok = (abs(cond.mean() - 100) <= 10 and abs(cond.fano() - 0.7) <= 0.1
              and best.p_success >= 0.01)
        verdict("7b", "N=1000 conditional field", ok,
                f"c_opt={best.c_s_opt}, photon mean={cond.mean():.2f}, "
                f"Fano={cond.fano():.4f}, p_success={best.p_success:.4f}")
        assert cond.mean() == pytest.approx(100, abs=10)
        assert cond.fano() == pytest.approx(0.7, abs=0.1)
        assert best.p_success >= 0.01


class TestCriterion8:
    def test_sub_shot_noise_metrology(self, stream_k0):
        out = tb.precision_improvement(stream_k0, 100, 500)
        d_cs = out["conditioned_on_signal"].normalized
        d_ci = out["conditioned_on_idler"].normalized
        improvements = (1 - out["S_cs"], 1 - out["S_ci"])
        h200 = tb.grouped_counts(idler_bits(stream_k0),
                                 tb.GroupingPolicy(200, "disjoint"))
        mean200 = h200.mean()
        ok = (abs(d_cs - 0.82) <= 0.03 and abs(d_ci - 0.85) <= 0.03
              and all(0.10 <= imp <= 0.19 for imp in improvements)
              and abs(mean200 - 7.46) / 7.46 <= 0.02)
        verdict("8", "sub-shot-noise precision", ok,
                f"delta_r cond-on-s={d_cs:.4f}, cond-on-i={d_ci:.4f}, "
                f"improvements={tuple(round(float(i), 4) for i in improvements)}, "
                f"<c_i>(N=200)={mean200:.3f}")
        assert d_cs == pytest.approx(0.82, abs=0.03)
        assert d_ci == pytest.approx(0.85, abs=0.03)
        assert all(0.10 <= imp <= 0.19 for imp in improvements)
        assert mean200 == pytest.approx(7.46, rel=0.02)


class TestCriterion9:
    def test_quasi_distribution(self, nominal):
        params, _, _ = nominal
        vacuum = np.array([[1.0]])
        weak = tb.joint_twb(params).table
        norms, moment_errs = [], []
        for table in (vacuum, weak):
            for s in (0.0, 0.5):
                grid = tb.quasi_distribution(table, s, steps=512)
                norms.append(tb.grid_normalization(grid))
                w = tb.to_s_ordered(tb.moments(table, 2), s)
                for k, l in ((1, 0), (0, 1), (1, 1), (2, 0)):
                    moment_errs.append(abs(grid_moments(grid, k, l)
                                           - w[k, l]))
        strong = compound_photon_dist(params, 1000)
        grid1000 = tb.quasi_distribution(strong.table, 0.0, steps=256)
        has_negative = bool((grid1000.values < 0).any())
        norm_ok = all(abs(n - 1) <= 1e-3 for n in norms)
        moments_ok = max(moment_errs) <= 1e-2
        ok = norm_ok and moments_ok and has_negative
        verdict("9", "intensity quasi-distributions", ok,
                f"worst |norm-1|={max(abs(n - 1) for n in norms):.2e}, "
                f"worst moment error={max(moment_errs):.2e}, "
                f"N=1000 min cell={grid1000.values.min():.3e}")
        assert norm_ok
        assert moments_ok
        assert has_negative


class TestCriterion10:
    def test_stirling_exact_on_random_distributions(self):
        from fractions import Fraction as F
        rng = np.random.default_rng(101)
        failures = 0
        for _ in range(100):
            weights = rng.integers(0, 20, size=(3, 3))
            total = int(weights.sum()) or 1
            table = np.array([[F(int(v), total) for v in row]
                              for row in weights], dtype=object)
            order = 5
            raw = np.empty((order + 1, order + 1), dtype=object)
            for k in range(order + 1):
                for l in range(order + 1):
                    raw[k, l] = sum(p * F(ns) ** k * F(ni) ** l
                                    for (ns, ni), p in np.ndenumerate(table))
            w = to_intensity_moments(raw)
            # the package's falling factorials, in float64, on the same table
            direct = tb.moments(table.astype(float), order)
            for k in range(order + 1):
                for l in range(order + 1):
                    brute = F(0)
                    for (ns, ni), p in np.ndenumerate(table):
                        term = p
                        for j in range(k):
                            term *= ns - j
                        for j in range(l):
                            term *= ni - j
                        brute += term
                    if w[k, l] != brute:
                        failures += 1
                    if abs(F(direct[k, l]) - brute) > 1e-14 * brute:
                        failures += 1
        verdict("10a", "integer-exact moment transform", failures == 0,
                f"{failures} mismatches over 100 random distributions")
        assert failures == 0

    def test_em_likelihood_never_decreases(self, nominal):
        params, spec_s, spec_i = nominal
        n, n_max = 5, 40
        t_s = tb.detection_matrix(tb.DetectorSpec(spec_s.eta, spec_s.dark, n),
                                  n_max)
        t_i = tb.detection_matrix(tb.DetectorSpec(spec_i.eta, spec_i.dark, n),
                                  n_max)
        f = compound_click_dist(params, spec_s, spec_i, n).table
        # EM raises on any decrease beyond round-off
        _, res = em_joint(f, t_s.entries, t_i.entries,
                          EmConfig(max_iters=2_000, tol=1e-14))
        diffs = np.diff(res.log_likelihood)
        ok = bool((diffs >= -1e-10).all())
        verdict("10b", "EM log-likelihood monotone", ok,
                f"{len(res.log_likelihood)} iterations, "
                f"min step {diffs.min():.2e}")
        assert ok
