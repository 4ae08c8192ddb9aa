import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln

from oracles import _basis_mp, compound_photon_dist, grid_centers, grid_moments
from twinbeam import (TwbParams, grid_normalization, joint_twb, moments,
                      quasi_distribution, to_s_ordered)
from twinbeam import io as tbio
from twinbeam.cli import main
from twinbeam.errors import NumericError, UsageError
from twinbeam.quasidist import _basis

SRC = str(Path(__file__).resolve().parents[1] / "src")
VACUUM = np.array([[1.0]])

#: ``(n_max, w_max, s)`` of the basis checks: low orders, then orders and
#: intensities where the damping seed or ``beta^n`` leaves double range.
BASIS_CASES = (
    [pytest.param(20, 3.0, s, id=str(s)) for s in (0.5, 0.0, -0.6)]
    + [pytest.param(*case, id="n{}-w{}-s{}".format(*case))
       for case in ((400, 500.0, 0.0), (800, 900.0, -0.5),
                    (300, 20.0, 0.5), (700, 20.0, 0.5))])


class TestQuasiDistribution:
    def test_vacuum_closed_form(self):
        g = quasi_distribution(VACUUM, 0.0, steps=64)
        ws = grid_centers(g, 0)[:, None]
        wi = grid_centers(g, 1)[None, :]
        np.testing.assert_allclose(g.values, 4 * np.exp(-2 * (ws + wi)),
                                   rtol=1e-12)
        # value at the origin approaches 4
        assert g.values[0, 0] == pytest.approx(
            4 * np.exp(-2 * (ws[0, 0] + wi[0, 0])), rel=1e-12)

    @pytest.mark.parametrize("s", [0.0, 0.5, -0.7])
    def test_vacuum_normalization(self, s):
        g = quasi_distribution(VACUUM, s, steps=512)
        assert grid_normalization(g) == pytest.approx(1.0, abs=1e-3)

    def test_single_photon_marginal_structure(self):
        # single idler-arm photon: the signal section is the one-photon
        # intensity quasi-distribution 2 exp(-2W)(4W - 1) at s = 0
        table = np.zeros((2, 2))
        table[1, 0] = 1.0
        g = quasi_distribution(table, 0.0, steps=256)
        w = grid_centers(g, 0)
        marginal = g.values.sum(axis=1) * g.dw[1]
        np.testing.assert_allclose(marginal, 2 * np.exp(-2 * w) * (4 * w - 1),
                                   atol=1e-3)
        assert marginal[0] < 0

    def test_symmetric_input_symmetric_output(self):
        p = joint_twb(TwbParams(2, 1, 1, 0.2, 0.01, 0.01))
        square = np.zeros((max(p.shape),) * 2)
        square[:p.shape[0], :p.shape[1]] = p
        sym = 0.5 * (square + square.T)
        g = quasi_distribution(sym / sym.sum(), 0.0, w_max=4.0, steps=128)
        np.testing.assert_allclose(g.values, g.values.T, atol=1e-12)

    def test_antinormal_side_is_nonnegative(self, nominal):
        params, _, _ = nominal
        g = quasi_distribution(joint_twb(params), -1.2, steps=128)
        assert g.values.min() >= -1e-15

    def test_husimi_q_closed_form(self, nominal):
        # at s = -1, beta = 0 and g = 4/(1-s^2) is infinite, but
        # beta^n L_n(g W) tends to W^n/n!: the grid is the Q function
        # sum p(n_s, n_i) e^-W_s W_s^n_s/n_s! e^-W_i W_i^n_i/n_i!
        table = compound_photon_dist(nominal[0], 10)
        g = quasi_distribution(table, -1.0, steps=64)

        def poisson(w, n_max):
            n = np.arange(n_max + 1)[:, None]
            return np.exp(n * np.log(w) - w - gammaln(n + 1))

        q = (poisson(grid_centers(g, 0), table.shape[0] - 1).T @ table
             @ poisson(grid_centers(g, 1), table.shape[1] - 1))
        assert np.abs(g.values - q).max() <= 1e-12 * q.max()

    def test_cli_writes_the_q_function(self, tmp_path, nominal):
        dist = str(tmp_path / "p.jdist")
        tbio.write_jdist(compound_photon_dist(nominal[0], 10), dist)
        out = str(tmp_path / "q.igrid")
        assert main(["quasidist", "--dist", dist, "--s", "-1", "--steps", "32",
                     "--out", out]) == 0
        expected = quasi_distribution(tbio.read_jdist(dist), -1.0,
                                      steps=32)
        assert np.array_equal(tbio.read_igrid(out).values, expected.values)

    def test_strong_beam_develops_negative_regions(self, nominal):
        params, _, _ = nominal
        strong = compound_photon_dist(params, 1000)
        g = quasi_distribution(strong, 0.0, steps=128)
        assert g.values.min() < 0

    def test_invalid_ordering_rejected(self):
        with pytest.raises(UsageError, match="s < 1"):
            quasi_distribution(VACUUM, 1.0)

    @pytest.mark.parametrize("s", [np.nan, -np.inf, -1e300])
    def test_ordering_nan_or_out_of_range_rejected(self, s):
        # NaN fails every comparison; at s = -1e300, (1 - s)^2 overflows
        with pytest.raises(UsageError, match="s < 1"):
            quasi_distribution(VACUUM, s)

    @pytest.mark.parametrize("n_max, w_max, s", BASIS_CASES)
    def test_arbitrary_precision_basis_matches_float_path(self, n_max, w_max,
                                                          s):
        # assert_allclose also requires each +-inf in the same cell; the
        # float path overflows to them as quasi_distribution allows it to
        w = np.linspace(0.01, w_max, 25)
        with np.errstate(over="ignore"):
            a = _basis(n_max, w, s)
        b = _basis_mp(n_max, w, s)
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-13)

    def test_grid_beyond_double_range_raises(self, nominal):
        # the smallest nominal compound beam whose s = 0.5 grid leaves
        # double range instead of failing the support-edge check
        strong = compound_photon_dist(nominal[0], 2180)
        with pytest.raises(NumericError, match="intensity series leaves double range"):
            quasi_distribution(strong, 0.5, steps=8)

    @pytest.mark.parametrize("s, steps", [(0.9999999999999999, 16),
                                          (0.999, 16), (0.0, 1), (0.5, 16),
                                          (0.9, 256)])
    def test_grid_that_lost_the_mass_raises(self, nominal, s, steps):
        # near s = 1 the damping underflows on every cell; a single cell
        # samples the tail of the distribution; at s = 0.5 and 0.9 the
        # series peaks too sharply for the grid, which holds 754 and 4.8e34
        # times the mass
        table = joint_twb(nominal[0].scaled(10))
        with pytest.raises(NumericError, match="of the table's"):
            quasi_distribution(table, s, steps=steps)

    def test_all_tail_table_gives_a_zero_grid(self):
        # an all-zero table has no mass for the grid to lose, even where the
        # damping underflows on every cell
        g = quasi_distribution(np.zeros((3, 3)), 0.9999999999999999, steps=16)
        assert not g.values.any()
        assert grid_normalization(g) == 0.0

    def test_support_edge_sensitivity_raises(self):
        # a bright, strongly paired beam on its own default support: at
        # s = 0.9 the grid moves by 6.65e-2 of its scale when the last 10 %
        # of the support is dropped
        bright = joint_twb(TwbParams(10, 10, 10, 0.5, 0.01, 0.01))
        with pytest.raises(NumericError,
                           match="support-edge sensitivity 6.65e-02"):
            quasi_distribution(bright, 0.9)

    def test_high_intensity_grid_needs_no_mpmath(self):
        # hundreds of photon pairs: the damping falls to about exp(-660)
        probe = (
            "import sys; sys.modules['mpmath'] = None\n"
            "import numpy as np\n"
            "from twinbeam import (grid_normalization, joint_twb, models,\n"
            "                      quasi_distribution)\n"
            "p = joint_twb(models.NOMINAL_PARAMS.scaled(3000))\n"
            "g = quasi_distribution(p, -0.5, steps=32)\n"
            "assert 2 * g.w_max_s / 1.5 > 600\n"
            "assert np.isfinite(g.values).all()\n"
            "print(grid_normalization(g))\n")
        proc = subprocess.run([sys.executable, "-c", probe],
                              env=dict(os.environ, PYTHONPATH=SRC),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) == pytest.approx(1.0, abs=1e-3)


class TestGridMoments:
    def test_vacuum_first_moment(self):
        g = quasi_distribution(VACUUM, 0.0, steps=512)
        assert grid_moments(g, 1, 0) == pytest.approx(0.5, abs=1e-3)
        assert grid_moments(g, 0, 0) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("s", [0.0, 0.5])
    def test_moments_match_ordering_transform(self, nominal, s):
        params, _, _ = nominal
        j = joint_twb(params)
        g = quasi_distribution(j, s, steps=512)
        w = to_s_ordered(moments(j, 2), s)
        for k, l in ((1, 0), (0, 1), (1, 1), (2, 0)):
            assert grid_moments(g, k, l) == pytest.approx(w[k, l], abs=1e-2)

    def test_strong_beam_moments_relative(self, nominal):
        params, _, _ = nominal
        strong = compound_photon_dist(params, 500)
        g = quasi_distribution(strong, 0.0, steps=512)
        w = to_s_ordered(moments(strong, 2), 0.0)
        assert grid_moments(g, 1, 0) == pytest.approx(w[1, 0], rel=1e-2)
        assert grid_moments(g, 1, 1) == pytest.approx(w[1, 1], rel=1e-2)
