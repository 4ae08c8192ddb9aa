import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinbeam import (DetectorSpec, JointHistogram, detection_matrix,
                      joint_twb, ml_joint, moments, ncd)
from oracles import (EmConfig, EmptyConditionError, MarginalDist,
                     compound_click_dist, compound_photon_dist,
                     conditional_histogram, conditional_photon_dist,
                     em_conditional, em_joint, marginal, normalized)
from twinbeam.detection import default_n_max
from twinbeam.errors import DataError, NumericError, UsageError
from twinbeam.reconstruct import CERTIFICATE, MAX_CELLS


def matrix(spec, n_max):
    """A detector's matrix as the array the solvers take."""
    return detection_matrix(spec, n_max).entries


def tv(a, b):
    return 0.5 * np.abs(a - b).sum()


def loglik(data, t_s, t_i, p):
    """Mean data log-likelihood of ``p`` over the observed cells."""
    f = data / data.sum()
    projected = t_s[:f.shape[0]] @ p @ t_i[:f.shape[1]].T
    return float(f[f > 0] @ np.log(projected[f > 0]))


class TestMlJoint:
    @settings(max_examples=12, deadline=None, database=None,
              derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           dims=st.tuples(st.integers(1, 12), st.integers(1, 12)),
           concentration=st.floats(0.05, 2.0),
           detectors=st.lists(st.tuples(st.floats(0.05, 0.95),
                                        st.floats(0.0, 0.2),
                                        st.integers(1, 8)),
                              min_size=2, max_size=2),
           groups=st.integers(1, 5000))
    def test_certified_and_at_least_as_likely_as_em(self, seed, dims,
                                                    concentration, detectors,
                                                    groups):
        rng = np.random.default_rng(seed)
        truth = rng.dirichlet(np.full(dims[0] * dims[1], concentration))
        t_s, t_i = (matrix(DetectorSpec(*spec), m - 1)
                    for spec, m in zip(detectors, dims))
        probs = t_s @ truth.reshape(dims) @ t_i.T
        counts = rng.multinomial(groups, probs.ravel() / probs.sum())
        f = counts.reshape(probs.shape)
        est, res = ml_joint(f, t_s, t_i)
        assert res.converged and res.lindsay_bound < CERTIFICATE
        assert est.min() >= 0
        assert est.sum() == pytest.approx(1.0, abs=1e-12)
        assert res.log_likelihood == pytest.approx(
            loglik(f, t_s, t_i, est), abs=1e-12)
        # the certificate: no table, EM's included, is more likely by more
        # than the bound (which is exact for one observed cell), up to
        # round-off
        _, em = em_joint(f, t_s, t_i, EmConfig(max_iters=10_000, tol=1e-300))
        assert res.log_likelihood >= (em.log_likelihood[-1]
                                      - res.lindsay_bound - 1e-12)

    def test_bound_is_lindsays_of_the_estimate(self, nominal):
        params, spec_s, spec_i = nominal
        f = compound_click_dist(params, spec_s, spec_i, 5)
        t_s = matrix(DetectorSpec(spec_s.eta, spec_s.dark, 5), 40)
        t_i = matrix(DetectorSpec(spec_i.eta, spec_i.dark, 5), 40)
        est, res = ml_joint(f, t_s, t_i)
        data = f / f.sum()
        ratio = np.divide(data, t_s @ est @ t_i.T,
                          out=np.zeros_like(data), where=data > 0)
        gradient = t_s.T @ ratio @ t_i
        assert res.converged
        assert res.lindsay_bound == pytest.approx(np.log(gradient.max()),
                                                  rel=0, abs=1e-15)
        assert res.newton_steps < 200

    def test_step_cap_returns_an_uncertified_distribution(self, nominal):
        params, spec_s, spec_i = nominal
        f = compound_click_dist(params, spec_s, spec_i, 5)
        t_s = matrix(DetectorSpec(spec_s.eta, spec_s.dark, 5), 40)
        t_i = matrix(DetectorSpec(spec_i.eta, spec_i.dark, 5), 40)
        est, res = ml_joint(f, t_s, t_i, max_steps=2)
        assert not res.converged and res.newton_steps == 2
        assert res.lindsay_bound >= CERTIFICATE
        assert est.min() >= 0
        assert est.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("max_steps", [3, 200])
    def test_trajectory_ends_at_the_returned_estimate(self, nominal,
                                                      max_steps):
        params, spec_s, spec_i = nominal
        f = compound_click_dist(params, spec_s, spec_i, 5)
        t_s = matrix(DetectorSpec(spec_s.eta, spec_s.dark, 5), 40)
        t_i = matrix(DetectorSpec(spec_i.eta, spec_i.dark, 5), 40)
        _, res = ml_joint(f, t_s, t_i, max_steps)
        assert len(res.trajectory) == res.newton_steps
        assert res.trajectory[-1] == {"lindsay_bound": res.lindsay_bound,
                                      "log_likelihood": res.log_likelihood}
        # the solve stops at the first certified step
        assert all(step["lindsay_bound"] >= CERTIFICATE
                   for step in res.trajectory[:-1])

    def test_negative_detection_entry_is_numeric_error(self):
        t_s = np.array([[0.3, -0.2], [0.6, 0.5]])
        t_i = np.ones((1, 1))
        f = np.array([[0.8], [0.2]])
        with pytest.raises(NumericError, match="negative entries"):
            ml_joint(f, t_s, t_i)

    def test_step_cap_below_one_rejected(self):
        t = matrix(DetectorSpec(0.4, 0.0, 1), 3)
        f = np.array([[0.5, 0.1], [0.1, 0.3]])
        with pytest.raises(UsageError, match="max_steps must be"):
            ml_joint(f, t, t, max_steps=0)

    def test_more_cells_than_the_newton_system_holds_rejected(self):
        side = int(np.sqrt(MAX_CELLS)) + 1
        t = matrix(DetectorSpec(0.4, 0.0, side - 1), side - 1)
        f = np.ones((side, side))
        with pytest.raises(DataError, match=f"more than the {MAX_CELLS}"):
            ml_joint(f, t, t)

    def test_no_observed_counts_rejected(self):
        t = matrix(DetectorSpec(0.4, 0.0, 1), 10)
        empty = JointHistogram(np.zeros((2, 2)), "disjoint")
        with pytest.raises(DataError, match="no observed counts"):
            ml_joint(empty.counts, t, t)

    @pytest.mark.parametrize("cell", [-0.2, np.nan, np.inf])
    def test_negative_or_not_finite_cell_rejected(self, cell):
        # a negative cell would be skipped as unobserved but still counted
        # in the table's sum, and the solve could not certify
        t = matrix(DetectorSpec(0.4, 0.0, 1), 10)
        with pytest.raises(DataError, match="finite and >= 0"):
            ml_joint(np.array([[0.5, cell], [0.2, 0.5]]), t, t)

    def test_support_mismatch_rejected(self, nominal):
        params, spec_s, spec_i = nominal
        f = compound_click_dist(params, spec_s, spec_i, 10)
        small = matrix(DetectorSpec(spec_s.eta, spec_s.dark, 5), 30)
        with pytest.raises(DataError):
            ml_joint(f, small, small)

    @pytest.mark.parametrize("arm", ["signal", "idler"])
    def test_matrix_with_too_few_click_rows_names_its_arm(self, arm):
        t = matrix(DetectorSpec(0.4, 0.0, 2), 10)
        t_s, t_i = (t[:2], t) if arm == "signal" else (t, t[:2])
        f = np.full((3, 3), 0.1)
        with pytest.raises(DataError, match=f"^{arm} matrix covers 2 click "
                                            "values, data needs 3$"):
            ml_joint(f, t_s, t_i)

    def test_counts_and_probabilities_give_the_same_bits(self, stream_1m,
                                                         nominal):
        # the solve divides the observed weights by the table's sum, so a
        # histogram's counts and its normalized table are one input
        from twinbeam import group_histogram
        _, spec_s, spec_i = nominal
        h = group_histogram(stream_1m, 5, "disjoint")
        t_s = matrix(DetectorSpec(spec_s.eta, spec_s.dark, 5), 40)
        t_i = matrix(DetectorSpec(spec_i.eta, spec_i.dark, 5), 40)
        by_counts, res_counts = ml_joint(h.counts, t_s, t_i)
        by_probs, res_probs = ml_joint(normalized(h), t_s, t_i)
        assert res_counts.converged
        assert np.array_equal(by_counts, by_probs)
        assert res_counts == res_probs


class TestClosure:
    """The pipeline's estimate on exact compound click data, against its model.

    The reconstruction spreads the photons of ``n`` grouped windows over an
    ``n``-pixel detector; in the compound beam each window is its own pixel
    and a pair's two photons share it.  On the exact click table that
    difference leaves tau a little above the model's, by a gap measured
    once and pinned here on both sides, so that a change to the detector
    model, the solver or the moments shows up.
    """

    #: Measured tau_estimate - tau_model, per group size and identifier.
    GAPS = {(10, "E001"): 7.42e-4, (10, "M1001"): 7.40e-4,
            (100, "E001"): 9.73e-4, (100, "M1001"): 9.78e-4}
    #: 40 times the depth search's resolution in tau (5e-7), and 3 % of the
    #: smallest gap.
    MARGIN = 2e-5

    @pytest.mark.parametrize("n", [10, 100])
    def test_exact_click_table_recovers_the_model_depth(self, nominal, n):
        params, spec_s, spec_i = nominal
        exact = compound_click_dist(params, spec_s, spec_i, n)
        table = np.where(exact >= 1e-10, exact, 0.0)
        rows, cols = np.nonzero(table)
        assert rows.size == {10: 61, 100: 340}[n]
        c_max = int(max(rows.max(), cols.max()))
        n_max = default_n_max(c_max, min(spec_s.eta, spec_i.eta), n)
        t_s, t_i = (matrix(DetectorSpec(spec.eta, spec.dark, n), n_max)
                    for spec in (spec_s, spec_i))
        est, res = ml_joint(table, t_s, t_i)
        assert res.converged and res.lindsay_bound < CERTIFICATE
        w = moments(est, 5)
        model = moments(joint_twb(params.scaled(n)), 5)
        for ident in ("E001", "M1001"):
            gap = ncd(w, ident).tau - ncd(model, ident).tau
            assert abs(gap - self.GAPS[n, ident]) <= self.MARGIN, (ident, gap)


class TestEmJoint:
    """The EM oracle of ``tests/oracles.py``, the paper's algorithm."""

    def test_point_mass_recovered_in_near_invertible_case(self):
        t = matrix(DetectorSpec(1.0, 0.0, 10), 8)
        f = np.outer(t[:, 2], t[:, 2])
        truth = np.zeros((9, 9))
        truth[2, 2] = 1.0
        est, res = em_joint(f, t, t, EmConfig(max_iters=400_000, tol=1e-15))
        assert tv(est, truth) < 1e-6

    def test_self_consistent_forward_recovered(self, nominal):
        params, spec_s, spec_i = nominal
        n = 10
        n_max = 60
        truth = compound_photon_dist(params, n)
        t_s = matrix(DetectorSpec(spec_s.eta, spec_s.dark, n), n_max)
        t_i = matrix(DetectorSpec(spec_i.eta, spec_i.dark, n), n_max)
        padded = np.zeros((n_max + 1, n_max + 1))
        padded[:truth.shape[0], :truth.shape[1]] = truth
        fwd = t_s @ padded @ t_i.T
        est, res = em_joint(fwd, t_s, t_i, EmConfig(max_iters=10_000, tol=1e-9))
        assert tv(est, padded) <= 0.01

    def test_every_iterate_normalized_and_loglik_monotone(self, nominal):
        params, spec_s, spec_i = nominal
        f = compound_click_dist(params, spec_s, spec_i, 5)
        t_s = matrix(DetectorSpec(spec_s.eta, spec_s.dark, 5), 40)
        t_i = matrix(DetectorSpec(spec_i.eta, spec_i.dark, 5), 40)
        est, res = em_joint(f, t_s, t_i, EmConfig(max_iters=500, tol=1e-14))
        # EM raises on any decrease; check that every iterate was seen
        assert len(res.log_likelihood) == res.iterations + 1
        assert est.sum() == pytest.approx(1.0, abs=1e-10)
        assert est.min() >= 0

    def test_likelihood_decrease_is_numeric_error(self):
        # EM on mixture weights is monotone for any nonnegative matrix; a
        # negative entry (columns summing to 0.9 and 0.3) drives an iterate
        # negative, and the second iteration lowers the likelihood
        t_s = np.array([[0.3, -0.2], [0.6, 0.5]])
        t_i = np.ones((1, 1))
        f = np.array([[0.8], [0.2]])
        with pytest.raises(NumericError, match="decreased at iteration 2"):
            em_joint(f, t_s, t_i, EmConfig(max_iters=50))

    def test_fixed_point_property(self, nominal):
        # a histogram inside the forward model's range is reproduced down to
        # the stopping tolerance times the support size
        params, spec_s, spec_i = nominal
        truth = compound_photon_dist(params, 3)
        n_max = 30
        t_s = matrix(DetectorSpec(spec_s.eta, spec_s.dark, 3), n_max)
        t_i = matrix(DetectorSpec(spec_i.eta, spec_i.dark, 3), n_max)
        padded = np.zeros((n_max + 1, n_max + 1))
        padded[:truth.shape[0], :truth.shape[1]] = truth
        f = t_s @ padded @ t_i.T
        cfg = EmConfig(max_iters=200_000, tol=1e-10)
        est, res = em_joint(f, t_s, t_i, cfg)
        assert res.converged
        refwd = t_s @ est @ t_i.T
        assert np.abs(refwd - f).max() < cfg.tol * est.size

    def test_histogram_input_accepted(self, stream_1m, nominal):
        from twinbeam import group_histogram
        params, spec_s, spec_i = nominal
        h = group_histogram(stream_1m, 5, "disjoint")
        t_s = matrix(DetectorSpec(spec_s.eta, spec_s.dark, 5), 60)
        t_i = matrix(DetectorSpec(spec_i.eta, spec_i.dark, 5), 60)
        est, res = em_joint(h.counts, t_s, t_i, EmConfig(max_iters=300))
        mean_i = marginal(est, "i").mean()
        # reconstruction undoes detection losses: mean near 5 * 0.102
        assert mean_i == pytest.approx(5 * 0.10205, rel=0.05)

    def test_right_sized_support_matches_the_full_one(self, stream_1m,
                                                      nominal):
        # photon numbers past default_n_max of the largest observed count
        # lose all mass in the iteration, so the right-sized estimate is the
        # group-size-wide one on the common cells
        from twinbeam import group_histogram
        _, spec_s, spec_i = nominal
        n = 20
        h = group_histogram(stream_1m, n, "disjoint")
        rows, cols = np.nonzero(h.counts)
        eta = min(spec_s.eta, spec_i.eta)
        small = default_n_max(max(rows.max(), cols.max()), eta, n)
        wide = int(np.ceil(3 * (n + 5) / eta))

        def run(n_max):
            est, _ = em_joint(
                h.counts, matrix(DetectorSpec(spec_s.eta, spec_s.dark, n), n_max),
                matrix(DetectorSpec(spec_i.eta, spec_i.dark, n), n_max),
                EmConfig(max_iters=300))
            return est

        k = small + 1
        right, full = run(small), run(wide)
        assert k < full.shape[0]
        np.testing.assert_allclose(right, full[:k, :k], rtol=0, atol=1e-12)
        assert full[k:, :].max() == 0.0 and full[:, k:].max() == 0.0

    def test_rows_past_the_data_are_cut_without_effect(self, nominal):
        # three grouped windows seen through ten-pixel matrices: click rows
        # 4..10 hold no data; textbook EM over every row gives the same
        params, spec_s, spec_i = nominal
        data = np.zeros((11, 11))
        data[:4, :4] = compound_click_dist(params, spec_s, spec_i, 3)
        t_s = matrix(DetectorSpec(spec_s.eta, spec_s.dark, 10), 30)
        t_i = matrix(DetectorSpec(spec_i.eta, spec_i.dark, 10), 30)
        est, _ = em_joint(data, t_s, t_i,
                          EmConfig(max_iters=50, tol=1e-300))
        p = np.full((31, 31), 1 / 31 ** 2)
        for _ in range(50):
            projected = t_s @ p @ t_i.T
            ratio = np.divide(data, projected, out=np.zeros_like(data),
                              where=data > 0)
            p = p * (t_s.T @ ratio @ t_i)
        np.testing.assert_allclose(est, p, rtol=1e-12, atol=1e-300)

    def test_no_observed_counts_rejected(self):
        t = matrix(DetectorSpec(0.4, 0.0, 1), 10)
        empty = JointHistogram(np.zeros((2, 2)), "disjoint")
        with pytest.raises(DataError, match="no observed counts"):
            em_joint(empty.counts, t, t)

    def test_support_mismatch_rejected(self, nominal):
        params, spec_s, spec_i = nominal
        f = compound_click_dist(params, spec_s, spec_i, 10)
        small = matrix(DetectorSpec(spec_s.eta, spec_s.dark, 5), 30)
        with pytest.raises(DataError):
            em_joint(f, small, small)


class TestEmConditional:
    def test_pure_no_click_column_gives_vacuum(self):
        t = matrix(DetectorSpec(0.4, 0.0, 1), 10)
        data = MarginalDist(np.array([1.0, 0.0]))
        est, res = em_conditional(data, t, EmConfig(max_iters=5_000))
        assert est.probs[0] == pytest.approx(1.0, abs=1e-5)

    def test_analytic_conditional_recovered(self, nominal):
        params, spec_s, spec_i = nominal
        n, c_s = 10, 2
        truth = conditional_photon_dist(joint_twb(params), spec_s, c_s, n)
        n_max = 60
        t_i = matrix(DetectorSpec(spec_i.eta, spec_i.dark, n), n_max)
        f_ci = t_i @ truth.probs[:n_max + 1]
        est, res = em_conditional(MarginalDist(f_ci / f_ci.sum()), t_i,
                                  EmConfig(max_iters=150_000, tol=1e-13))
        assert tv(est.probs, truth.probs[:n_max + 1]) <= 0.01
        assert est.mean() == pytest.approx(truth.mean(), rel=1e-3)
        assert est.fano() == pytest.approx(truth.fano(), rel=1e-2)


class TestConditionalHistogram:
    def test_diagonal_histogram(self):
        counts = np.diag([4, 5, 7])
        h = JointHistogram(counts, "disjoint")
        cond = conditional_histogram(h, 1)
        assert np.array_equal(cond.probs, [0, 1, 0])

    def test_uniform_column(self):
        h = JointHistogram(np.full((2, 2), 3), "disjoint")
        cond = conditional_histogram(h, 0)
        np.testing.assert_allclose(cond.probs, [0.5, 0.5])

    def test_empty_column_raises(self):
        counts = np.zeros((3, 3), dtype=int)
        counts[0, 0] = 5
        h = JointHistogram(counts, "disjoint")
        with pytest.raises(EmptyConditionError):
            conditional_histogram(h, 2)
