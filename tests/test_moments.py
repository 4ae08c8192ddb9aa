from fractions import Fraction
from functools import partial
from importlib import import_module

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinbeam import (TwbParams, fano_nrp_cov, joint_twb, mandel_rice,
                      moments, ncd, nci_value, to_s_ordered)
from oracles import (compound_click_dist, compound_photon_dist,
                     conditional_photon_dist, from_intensity_moments,
                     genuine_click_dist, marginal, raw_moments,
                     stirling_first, stirling_second, to_intensity_moments,
                     to_s_ordered_by_matrix)
from twinbeam import models
from twinbeam.cli import DEFAULT_GROUPS
from twinbeam.errors import DataError, UsageError
from twinbeam.moments import IDENTIFIERS, _identifier_terms, laguerre_mixing

#: Integer weights of a joint distribution on up to 5 x 5 cells.
weight_tables = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda shape: st.lists(st.integers(0, 30), min_size=shape[0] * shape[1],
                           max_size=shape[0] * shape[1]).map(
        lambda w: np.array(w).reshape(shape))).filter(lambda w: w.sum() > 0)


#: Each identifier's order and terms, written out one by one: the reference
#: that ``_identifier_terms``, which reads them off the name, matches bit for
#: bit.
WRITTEN_OUT = {
    "E001": (2, lambda w: [w[2, 0], w[0, 2], -2 * w[1, 1]]),
    "E101": (3, lambda w: [w[3, 0], w[1, 2], -2 * w[2, 1]]),
    "E111": (4, lambda w: [w[3, 1], w[1, 3], -2 * w[2, 2]]),
    "E211": (5, lambda w: [w[4, 1], w[2, 3], -2 * w[3, 2]]),
    "M1001": (2, lambda w: [w[2, 0] * w[0, 2], -w[1, 1] ** 2]),
    "M001001": (2, lambda w: [w[2, 0] * w[0, 2],
                              2 * w[1, 1] * w[1, 0] * w[0, 1], -w[1, 1] ** 2,
                              -w[2, 0] * w[0, 1] ** 2,
                              -w[1, 0] ** 2 * w[0, 2]]),
    "L11": (2, lambda w: [w[2, 0], -w[1, 0] * w[1, 0]]),
    "L21": (3, lambda w: [w[3, 0], -w[2, 0] * w[1, 0]]),
    "L31": (4, lambda w: [w[4, 0], -w[3, 0] * w[1, 0]]),
    "L41": (5, lambda w: [w[5, 0], -w[4, 0] * w[1, 0]]),
}


def exact_moment_table(table, order):
    """Raw moments of a distribution in exact Fraction arithmetic."""
    vs, vi = (np.array([[n ** k for k in range(order + 1)] for n in range(size)],
                       dtype=object) for size in table.shape)
    return vs.T @ table @ vi


def fractions(table):
    """The exact values of a float table, as an object array of Fractions."""
    return np.array([[Fraction(float(p)) for p in row] for row in table],
                    dtype=object)


def falling(n, k):
    out = Fraction(1)
    for j in range(k):
        out *= n - j
    return out


class TestMoments:
    def test_point_mass(self):
        table = np.zeros((3, 4))
        table[2, 3] = 1.0
        m = moments(table, 2)
        assert m[1, 0] == 2 and m[0, 1] == 3 and m[1, 1] == 6
        # normally ordered: falling factorials 2 * 1 and 3 * 2
        assert m[2, 0] == 2 and m[0, 2] == 6 and m[2, 2] == 12
        assert m.shape == (3, 3)

    def test_independent_arms_factorize(self):
        a = mandel_rice(3, 0.2, 25)
        b = mandel_rice(2, 0.1, 25)
        m = moments(np.outer(a, b), 3)
        assert m[1, 1] == pytest.approx(m[1, 0] * m[0, 1], abs=1e-13)
        assert m[2, 1] == pytest.approx(m[2, 0] * m[0, 1], abs=1e-13)

    def test_twb_cross_covariance(self, nominal):
        params, _, _ = nominal
        m = moments(joint_twb(params), 2)
        cov = m[1, 1] - m[1, 0] * m[0, 1]
        assert cov == pytest.approx(params.m_p * params.b_p * (1 + params.b_p),
                                    abs=1e-9)


class TestFanoNrpCov:
    def test_independent_poisson_arms(self):
        from scipy.stats import poisson
        p = poisson.pmf(np.arange(40), 1.3)
        m = moments(np.outer(p, p), 2)
        stats = fano_nrp_cov(m)
        assert stats["fano_s"] == pytest.approx(1.0, abs=1e-9)
        assert stats["fano_i"] == pytest.approx(1.0, abs=1e-9)
        assert stats["nrp"] == pytest.approx(1.0, abs=1e-9)

    def test_perfect_diagonal_correlation(self):
        diag = np.diag(mandel_rice(1, 0.8, 30))
        stats = fano_nrp_cov(moments(diag, 2))
        assert stats["nrp"] == pytest.approx(0.0, abs=1e-12)

    def test_zero_mean_arm_rejected(self):
        with pytest.raises(DataError):
            fano_nrp_cov(moments(np.array([[1.0]]), 2))


class TestStirling:
    def test_tables_start_correctly(self):
        s1 = stirling_first(3)
        assert s1[1][1] == 1 and s1[2][1] == -1 and s1[3][1] == 2
        s2 = stirling_second(3)
        assert s2[3][2] == 3

    def test_first_moment_unchanged(self, nominal):
        params, _, _ = nominal
        table = joint_twb(params)
        m = raw_moments(table, 3)
        for w in (to_intensity_moments(m), moments(table, 3)):
            assert w[1, 0] == pytest.approx(m[1, 0], rel=1e-14)

    def test_second_factorial_moment(self):
        d = mandel_rice(2, 0.4, 40)[:, None]
        m = raw_moments(d, 3)
        for w in (to_intensity_moments(m), moments(d, 3)):
            assert w[2, 0] == pytest.approx(m[2, 0] - m[1, 0], rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_against_factorial_moments(self, seed):
        rng = np.random.default_rng(seed)
        weights = rng.integers(0, 30, size=(3, 3))
        total = int(weights.sum()) or 1
        table = np.array([[Fraction(int(w), total) for w in row]
                          for row in weights], dtype=object)
        order = 4
        m = exact_moment_table(table, order)
        w = to_intensity_moments(m)
        direct = moments(table.astype(float), order)
        for k in range(order + 1):
            for l in range(order + 1):
                brute = Fraction(0)
                for (ns, ni), p in np.ndenumerate(table):
                    brute += p * falling(ns, k) * falling(ni, l)
                assert w[k, l] == brute    # exact equality of Fractions
                assert abs(Fraction(direct[k, l]) - brute) <= 1e-14 * brute

    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(77)
        t = rng.random((4, 4))
        d = t / t.sum()
        m = raw_moments(d, 4)
        back = from_intensity_moments(to_intensity_moments(m))
        np.testing.assert_allclose(back, m, rtol=1e-12)
        np.testing.assert_allclose(from_intensity_moments(moments(d, 4)), m,
                                   rtol=1e-12)


class TestSOrdering:
    def test_identity_at_one(self, nominal):
        params, _, _ = nominal
        w = moments(joint_twb(params), 4)
        w1 = to_s_ordered(w, 1.0)
        np.testing.assert_allclose(w1, w, rtol=0, atol=0)

    def test_first_moment_shift(self):
        w = moments(mandel_rice(2, 0.4, 40)[:, None], 2)
        for s in (0.5, 0.0, -1.0):
            ws = to_s_ordered(w, s)
            assert ws[1, 0] == pytest.approx(w[1, 0] + (1 - s) / 2, rel=1e-13)

    def test_vacuum_moments_are_ordering_noise_moments(self):
        # at ordering s the vacuum intensity is a unit-mode thermal field
        # with mean t = (1-s)/2 and <W^k> = k! t^k
        w = moments(np.array([[1.0]]), 4)
        for s in (0.0, -0.5):
            t = (1 - s) / 2
            ws = to_s_ordered(w, s)
            assert ws[2, 0] == pytest.approx(2 * t ** 2, rel=1e-14)
            assert ws[3, 0] == pytest.approx(6 * t ** 3, rel=1e-14)
        assert to_s_ordered(w, 0.0)[2, 0] == pytest.approx(0.5)

    def test_mixing_coefficients_are_integers(self):
        mix = laguerre_mixing(6)
        assert mix.shape == (7, 7)
        assert mix[2, 1] == 4 and mix[2, 0] == 2
        assert mix[4, 1] == 96
        assert np.array_equal(mix, np.round(mix))

    def test_coherent_second_moment(self):
        # |alpha|^2 = I: <W^2>_s = I^2 + 4 I t + 2 t^2
        from scipy.stats import poisson
        lam = 0.9
        w = moments(poisson.pmf(np.arange(50), lam)[:, None], 2)
        s = 0.2
        t = (1 - s) / 2
        ws = to_s_ordered(w, s)
        assert ws[2, 0] == pytest.approx(lam ** 2 + 4 * lam * t + 2 * t ** 2,
                                         rel=1e-10)

    @settings(max_examples=60, deadline=None, database=None)
    @given(weights=weight_tables, order=st.integers(1, 5),
           s=st.floats(-1.0, 1.0))
    def test_matches_the_matrix_oracle(self, weights, order, s):
        # to_s_ordered's batched A m A^T against the oracle's table of exact
        # integer weights, one ordering at a time: exact factorial moments
        # are nonnegative, so every term of an s-ordered moment is too and
        # the two agree to a few ulps
        exact = to_intensity_moments(
            exact_moment_table(fractions(weights / weights.sum()), order))
        w = exact.astype(float)
        np.testing.assert_allclose(to_s_ordered(w, s),
                                   to_s_ordered_by_matrix(w, s),
                                   rtol=1e-12, atol=0.0)
        both = np.array([s, 0.0])
        np.testing.assert_allclose(to_s_ordered(w, both),
                                   to_s_ordered_by_matrix(w, both),
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(to_s_ordered(w, 1.0), w)

    @pytest.mark.parametrize("n", [1, 10, 100])
    @pytest.mark.parametrize("s1, s2", [(0.5, 0.5), (0.0, -0.5), (0.9, -1.0),
                                        (-1.0, 0.2)])
    def test_orderings_compose(self, n, s1, s2):
        # t = (1 - s)/2 adds: ordering noise t1 then t2 is noise t1 + t2
        w = moments(joint_twb(models.NOMINAL_PARAMS.scaled(n)), 5)
        np.testing.assert_allclose(to_s_ordered(to_s_ordered(w, s1), s2),
                                   to_s_ordered(w, s1 + s2 - 1),
                                   rtol=1e-12, atol=0.0)

    def test_ordering_above_one_rejected(self):
        w = np.ones((3, 3))
        for s in (1.5, np.array([0.0, 1.0 + 1e-15])):
            with pytest.raises(UsageError, match="must satisfy s <= 1"):
                to_s_ordered(w, s)


class TestNci:
    def test_noiseless_pairing_e001(self):
        p = joint_twb(TwbParams(2, 1, 1, 0.3, 0.0, 0.0))
        w = moments(p, 2)
        assert nci_value(w, "E001") == pytest.approx(
            -2 * marginal(p, "s").mean(), rel=1e-9)

    def test_product_poisson_m1001_vanishes(self):
        from scipy.stats import poisson
        p = poisson.pmf(np.arange(40), 0.7)
        w = moments(np.outer(p, p), 2)
        assert nci_value(w, "M1001") == pytest.approx(0.0, abs=1e-12)

    def test_poisson_l_family_vanishes(self):
        from scipy.stats import poisson
        w = moments(poisson.pmf(np.arange(60), 0.8)[:, None], 5)
        for ident in ("L11", "L21", "L31", "L41"):
            assert nci_value(w, ident) == pytest.approx(0.0, abs=1e-12)

    def test_order_requirement(self):
        w = np.ones((3, 3))
        with pytest.raises(DataError, match="identifier needs order 5"):
            nci_value(w, "E211")

    @pytest.mark.parametrize("ident", IDENTIFIERS)
    def test_each_identifier_needs_its_order(self, ident):
        order = WRITTEN_OUT[ident][0]
        w = np.random.default_rng(3).random((order + 1, order + 1))
        with pytest.raises(DataError, match=f"identifier needs order {order}, "
                           f"table has {order - 1}"):
            nci_value(w[:order, :order], ident)
        assert np.isfinite(nci_value(w, ident))

    @pytest.mark.parametrize("ident", IDENTIFIERS)
    def test_terms_equal_the_written_out_ones(self, ident):
        # the same summands in the same order, so every value and depth
        # keeps its bits
        w = np.random.default_rng(4).random((6, 6))
        assert np.array(_identifier_terms(w, ident)).tobytes() == \
            np.array(WRITTEN_OUT[ident][1](w)).tobytes()

    @settings(max_examples=60, deadline=None, database=None)
    @given(weights=weight_tables)
    def test_float_value_within_noise_floor(self, weights):
        # each identifier evaluated in float64 lies within its noise floor
        # of the same identifier on the same table in exact arithmetic
        table = weights / weights.sum()
        exact = to_intensity_moments(exact_moment_table(fractions(table), 5))
        w = moments(table, 5)
        for ident in IDENTIFIERS:
            error = Fraction(nci_value(w, ident)) \
                - sum(_identifier_terms(exact, ident))
            assert abs(error) <= Fraction(ncd(w, ident).noise_floor), ident

    @pytest.mark.parametrize("source", ["clicks", "photons", "log-uniform"])
    def test_noise_floor_bounds_a_realistic_table(self, nominal, source):
        # 40 x 40 cells: the compound click table of 39 windows, the compound
        # photon table of 100 windows cut to 40 x 40, and cells spread over
        # twenty decades; the float64 moments and identifiers against the
        # same identifiers on the exact table
        if source == "clicks":
            table = compound_click_dist(*nominal, 39)
        elif source == "photons":
            table = compound_photon_dist(nominal[0], 100)[:40, :40]
        else:
            table = 10.0 ** np.random.default_rng(5).uniform(-20, 0, (40, 40))
        table = table / table.sum()
        exact = to_intensity_moments(exact_moment_table(fractions(table), 5))
        w = moments(table, 5)
        for ident in IDENTIFIERS:
            error = Fraction(nci_value(w, ident)) \
                - sum(_identifier_terms(exact, ident))
            assert abs(error) <= Fraction(ncd(w, ident).noise_floor), ident


class TestNcd:
    def test_classical_field_has_zero_depth(self):
        th = mandel_rice(2, 0.3, 40)
        w = moments(np.outer(th, th), 5)
        for ident in ("E001", "E101", "M1001", "M001001"):
            r = ncd(w, ident)
            assert r.tau == 0.0 and not r.nonclassical

    def test_compound_photocount_depth_at_n50(self, nominal):
        # frozen from the exact compound click model at the demo parameters
        fc = compound_click_dist(*nominal, 50)
        w = moments(fc, 5)
        assert ncd(w, "E001").tau == pytest.approx(0.13211, abs=2e-4)
        assert ncd(w, "M1001").tau == pytest.approx(0.14240, abs=2e-4)

    def test_depth_bounded_for_gaussian_model_beams(self, nominal):
        params, _, _ = nominal
        j = compound_photon_dist(params, 100)
        w = moments(j, 5)
        for ident in ("E001", "E111", "M1001"):
            r = ncd(w, ident)
            assert r.nonclassical
            assert r.tau <= 0.5 + 1e-6

    def test_suppression_is_monotone_in_s(self, nominal):
        # ordering noise only ever weakens a violation on these beams
        fc = compound_click_dist(*nominal, 20)
        w = moments(fc, 5)
        values = [nci_value(to_s_ordered(w, s), "E001")
                  for s in np.linspace(1.0, -1.0, 41)]
        assert np.all(np.diff(values) > 0)

    def test_violation_beyond_s_minus_one_is_saturated(self):
        # <W_s W_i> far above both means: at s = -1 (t = 1) E001 is still
        # 2.4 + 2.4 - 2 * 11.2 < 0, so the depth is reported as 1
        w = np.zeros((3, 3))
        w[0, 0], w[1, 0], w[0, 1], w[1, 1] = 1.0, 0.1, 0.1, 10.0
        r = ncd(w, "E001")
        assert r.saturated and r.nonclassical and not r.multiple_roots
        assert (r.tau, r.s_threshold, r.value_at_normal_ordering) == \
            (1.0, -1.0, -20.0)

    def test_tau_equals_threshold_relation(self, nominal):
        fc = compound_click_dist(*nominal, 30)
        w = moments(fc, 5)
        r = ncd(w, "E001")
        assert r.tau == pytest.approx((1 - r.s_threshold) / 2, abs=1e-12)

    def test_degenerate_identifiers_are_classical(self, nominal):
        # on a single on/off window every third-or-higher-order factorial
        # moment vanishes identically; the depth search must not chase the
        # rounding noise of that exact cancellation
        tables = [moments(dist, 5) for dist in
                  (compound_click_dist(*nominal, 1),
                   genuine_click_dist(*nominal, 1))]
        tables.append(models.genuine_click_moments(*nominal, 1, 5))
        for w in tables:
            for ident in ("E101", "E111", "E211"):
                assert ncd(w, ident).tau == 0.0
            # genuinely violated identifiers keep working at the same size
            assert ncd(w, "E001").tau == pytest.approx(0.07198, abs=2e-4)
            assert ncd(w, "M1001").tau == pytest.approx(0.07206, abs=2e-4)

    def test_depths_match_matrix_oracle_bit_for_bit(self, nominal,
                                                     monkeypatch):
        # the same scan and bisection, driven by one matrix product per
        # ordering, give the same depths on the sweep's tables
        tables = [model(*nominal, n, 5) for n in DEFAULT_GROUPS
                  for model in (models.compound_click_moments,
                                models.genuine_click_moments)]
        results = [ncd(w, ident) for w in tables for ident in IDENTIFIERS]
        monkeypatch.setattr(import_module("twinbeam.moments"), "_ordering",
                            lambda m: partial(to_s_ordered_by_matrix, m))
        assert [ncd(w, ident) for w in tables
                for ident in IDENTIFIERS] == results

    def test_conditional_field_l_family(self, nominal):
        # a heralded idler field is sub-Poissonian: every L identifier is
        # violated and the depths shrink with the order
        params, spec_s, _ = nominal
        cond = conditional_photon_dist(joint_twb(params), spec_s, 2, 10)
        assert cond.fano() < 1
        w = moments(cond.probs[:, None], 5)
        taus = []
        for ident in ("L11", "L21", "L31", "L41"):
            assert nci_value(w, ident) < 0
            r = ncd(w, ident)
            assert r.nonclassical and 0 < r.tau <= 0.5 + 1e-6
            taus.append(r.tau)
        assert taus == sorted(taus, reverse=True)
