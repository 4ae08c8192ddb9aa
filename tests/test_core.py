import numpy as np
import pytest

from oracles import convolve_joint, convolve_power_1d, marginal, self_convolve
from twinbeam import TwbParams, joint_twb, mandel_rice
from twinbeam.core import LOG_P0_MIN, _mr_law
from twinbeam.errors import NumericError, UsageError


def delta_joint(i, j, shape=(3, 3)):
    table = np.zeros(shape)
    table[i, j] = 1.0
    return table


class TestMandelRice:
    def test_zero_intensity_is_vacuum(self):
        d = mandel_rice(10, 0.0, 5)
        assert np.array_equal(d, [1, 0, 0, 0, 0, 0])

    def test_single_mode_is_geometric(self):
        d = mandel_rice(1, 1.0, 2)
        np.testing.assert_allclose(d, [0.5, 0.25, 0.125], rtol=0, atol=1e-15)

    def test_single_mode_geometric_exact_tail(self):
        b = 0.7
        d = mandel_rice(1, b, 30)
        n = np.arange(31)
        np.testing.assert_allclose(d, b ** n / (1 + b) ** (n + 1), rtol=1e-14)

    def test_mean_and_fano_closed_form(self):
        # closed form checked against direct summation over the table
        d = mandel_rice(10, 1.0185e-2, 40)
        n = np.arange(41)
        mean = n @ d
        var = (n - mean) ** 2 @ d
        assert mean == pytest.approx(0.10185, abs=1e-12)
        assert var / mean == pytest.approx(1.010185, abs=1e-9)

    @pytest.mark.parametrize("m,b", [(0.5, 2.0), (3.7, 0.01), (200, 0.004)])
    def test_real_valued_mode_counts_normalize(self, m, b):
        d = mandel_rice(m, b, 400)
        assert d.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(d >= 0)

    def test_invalid_parameters(self):
        with pytest.raises(UsageError, match="mode count must be finite"):
            mandel_rice(0.0, 0.1, 5)
        with pytest.raises(UsageError, match="mean per mode must be finite"):
            mandel_rice(1.0, -0.1, 5)
        with pytest.raises(UsageError, match="mode count must be finite"):
            mandel_rice(np.inf, 0.1, 5)

    def test_zero_support(self):
        d = mandel_rice(2, 0.5, 0)
        assert d.shape == (1,)
        assert d[0] == pytest.approx(1.5 ** -2)

    @pytest.mark.parametrize("windows", [10_000, 20_000])
    def test_p0_out_of_double_range_raises(self, windows):
        # the paired component of that many nominal windows: p(0) underflows
        # and the ratio products overflow, which left a NaN table
        with pytest.raises(NumericError, match="below double range"):
            mandel_rice(10.0 * windows, 1.0185e-2, 10)

    def test_lowest_p0_keeps_a_normalised_law(self):
        b = 1.0185e-2
        m = -LOG_P0_MIN / np.log1p(b) * (1 - 1e-12)
        d = _mr_law(m, b)
        assert np.isfinite(d).all()
        assert d.sum() == pytest.approx(1.0, abs=1e-12)

    def test_support_growth_is_capped(self):
        # 1e5 photons per component: rounding holds the computed tail near
        # 1.7e-12, above COMPONENT_TAIL, however far the support grows
        with pytest.raises(NumericError, match="stays above"):
            _mr_law(10.0, 1e4)


class TestJointTwb:
    def test_noiseless_pairing_is_diagonal(self):
        p = TwbParams(2, 1, 1, 0.3, 0.0, 0.0)
        j = joint_twb(p)
        off = j - np.diag(np.diag(j))
        assert np.abs(off).max() == 0.0

    def test_nominal_marginal_means(self, nominal):
        params, _, _ = nominal
        j = joint_twb(params)
        assert marginal(j, "s").mean() == pytest.approx(0.10265, abs=1e-10)
        assert marginal(j, "i").mean() == pytest.approx(0.10205, abs=1e-10)

    def test_no_pairs_gives_product_distribution(self):
        p = TwbParams(1, 2, 3, 0.0, 0.2, 0.1)
        j = joint_twb(p)
        ms, mi = marginal(j, "s").probs, marginal(j, "i").probs
        np.testing.assert_allclose(j, np.outer(ms, mi), atol=1e-15)

    def test_photon_number_covariance_identity(self, nominal):
        # <dn_s dn_i> = m_p b_p (1 + b_p), via direct summation of the table
        params, _, _ = nominal
        j = joint_twb(params)
        ns = np.arange(j.shape[0])
        ni = np.arange(j.shape[1])
        mean_s, mean_i = marginal(j, "s").mean(), marginal(j, "i").mean()
        cov = ns @ j @ ni - mean_s * mean_i
        assert cov == pytest.approx(params.m_p * params.b_p * (1 + params.b_p),
                                    abs=1e-9)


class TestConvolve:
    def test_identity_element(self):
        d = joint_twb(TwbParams(2, 2, 2, 0.1, 0.05, 0.02))
        out = convolve_joint(delta_joint(0, 0), d)
        np.testing.assert_allclose(out[:d.shape[0], :d.shape[1]],
                                   d, atol=1e-15)

    def test_shift_composition(self):
        out = convolve_joint(delta_joint(1, 0), delta_joint(0, 1))
        assert out[1, 1] == 1.0
        assert out.sum() == 1.0

    def test_threefold_against_enumeration(self):
        rng = np.random.default_rng(5)
        table = rng.random((3, 4))
        table /= table.sum()
        three = self_convolve(table, 3)
        brute = np.zeros((7, 10))
        for (a, b), pa in np.ndenumerate(table):
            for (c, e), pb in np.ndenumerate(table):
                for (f, g), pc in np.ndenumerate(table):
                    brute[a + c + f, b + e + g] += pa * pb * pc
        np.testing.assert_allclose(three, brute, atol=1e-14)

    def test_associative_and_commutative(self):
        rng = np.random.default_rng(6)
        ds = []
        for _ in range(3):
            t = rng.random((3, 3))
            ds.append(t / t.sum())
        a, b, c = ds
        left = convolve_joint(convolve_joint(a, b), c)
        right = convolve_joint(a, convolve_joint(b, c))
        np.testing.assert_allclose(left, right, atol=1e-13)
        ab = convolve_joint(a, b)
        ba = convolve_joint(b, a)
        np.testing.assert_allclose(ab, ba, atol=1e-13)

    def test_nfold_mean_is_linear(self):
        d = joint_twb(TwbParams(3, 3, 3, 0.05, 0.001, 0.002))
        for n in (2, 5, 9):
            out = self_convolve(d, n)
            assert marginal(out, "s").mean() == pytest.approx(
                n * marginal(d, "s").mean(), rel=1e-12)

    def test_power_1d_matches_repeated(self):
        p = np.array([0.2, 0.5, 0.3])
        direct = p.copy()
        for _ in range(4):
            direct = np.convolve(direct, p)
        np.testing.assert_allclose(convolve_power_1d(p, 5), direct, atol=1e-15)
