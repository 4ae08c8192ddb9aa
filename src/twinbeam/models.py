"""Closed-form reference models used by sweeps and as test oracles.

The probability generating function of the joint photon numbers,

    G(x, y) = (1 + b_s (1-x))^(-m_s) (1 + b_i (1-y))^(-m_i)
              (1 + b_p (1-x y))^(-m_p),

yields the single-window click probabilities of two on/off detectors in
closed form, independently of any truncation.  Everything downstream of the
per-window 2x2 click table (compound histograms, conditional fields,
grouped-count statistics) follows from it.
"""

from __future__ import annotations

import numpy as np

from .core import PHOTOCOUNT, JointDist, TwbParams, joint_twb
from .detection import DetectorSpec, compound_photocounts, genuine_pnrd_model
from .simulate import PumpCorrelation

#: Bundled demo parameter set: a weak beam of ten thermal modes per
#: component carrying ~0.102 photon pairs per window, watched by two fiber
#: coupled avalanche photodiodes.
NOMINAL_PARAMS = TwbParams(m_p=10.0, m_s=10.0, m_i=10.0,
                           b_p=1.0185e-2, b_s=8e-5, b_i=2e-5)
NOMINAL_SIGNAL = DetectorSpec(eta=0.282, dark=2.8e-3, pixels=1)
NOMINAL_IDLER = DetectorSpec(eta=0.330, dark=3.8e-3, pixels=1)
NOMINAL_PUMP = PumpCorrelation(k=0.965e-3, block_len=10_000)


def _pgf(params: TwbParams, x: float, y: float) -> float:
    return ((1.0 + params.b_s * (1.0 - x)) ** -params.m_s
            * (1.0 + params.b_i * (1.0 - y)) ** -params.m_i
            * (1.0 + params.b_p * (1.0 - x * y)) ** -params.m_p)


def window_click_probs(params: TwbParams, spec_s: DetectorSpec,
                       spec_i: DetectorSpec,
                       pump_factor: float = 1.0) -> tuple[float, float, float]:
    """Exact single-window ``(p_s, p_i, p_coincidence)`` click probabilities.

    ``pump_factor`` scales the paired component's per-mode mean, which is how
    the common-mode pump drift enters individual windows.
    """
    if pump_factor != 1.0:
        params = TwbParams(params.m_p, params.m_s, params.m_i,
                           params.b_p * pump_factor, params.b_s, params.b_i)
    xs, yi = 1.0 - spec_s.eta, 1.0 - spec_i.eta
    no_s = (1.0 - spec_s.dark) * _pgf(params, xs, 1.0)
    no_i = (1.0 - spec_i.dark) * _pgf(params, 1.0, yi)
    no_both = (1.0 - spec_s.dark) * (1.0 - spec_i.dark) * _pgf(params, xs, yi)
    p_s, p_i = 1.0 - no_s, 1.0 - no_i
    p11 = 1.0 - no_s - no_i + no_both
    return p_s, p_i, p11


def window_click_dist(params: TwbParams, spec_s: DetectorSpec,
                      spec_i: DetectorSpec) -> JointDist:
    """Exact 2x2 joint click distribution of one detection window."""
    p_s, p_i, p11 = window_click_probs(params, spec_s, spec_i)
    table = np.array([[1.0 - p_s - p_i + p11, p_i - p11],
                      [p_s - p11, p11]])
    return JointDist(table, 0.0, PHOTOCOUNT)


def compound_click_dist(params: TwbParams, spec_s: DetectorSpec,
                        spec_i: DetectorSpec, n: int) -> JointDist:
    """Joint click distribution of ``n`` grouped windows (compound beam)."""
    return compound_photocounts(window_click_dist(params, spec_s, spec_i), n)


def genuine_click_dist(params: TwbParams, spec_s: DetectorSpec,
                       spec_i: DetectorSpec, n: int) -> JointDist:
    """Photocounts of the equally strong genuine beam on ``n``-pixel detectors."""
    ps = DetectorSpec(spec_s.eta, spec_s.dark, n)
    pi = DetectorSpec(spec_i.eta, spec_i.dark, n)
    return genuine_pnrd_model(params, ps, pi)


def compound_photon_dist(params: TwbParams, n: int) -> JointDist:
    """Joint photon-number distribution of ``n`` combined constituting beams."""
    return joint_twb(params.scaled(n))


def pump_block_covariances(params: TwbParams, spec_s: DetectorSpec,
                           spec_i: DetectorSpec, k: float,
                           nodes: int = 201) -> dict:
    """Exact same-block click moments under the common-mode pump model.

    Averages the closed-form window probabilities over the Gaussian
    common-mode factor ``max(0, 1 + sqrt(k) g)`` by Gauss-Hermite quadrature
    and returns per-window means plus the covariance between two distinct
    windows of one block, per arm and across arms.
    """
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    weights = w / w.sum()
    factors = np.maximum(0.0, 1.0 + np.sqrt(k) * x)
    ps = np.empty(nodes)
    pi = np.empty(nodes)
    p11 = np.empty(nodes)
    for idx, f in enumerate(factors):
        ps[idx], pi[idx], p11[idx] = window_click_probs(
            params, spec_s, spec_i, pump_factor=f)
    mean_s = float(weights @ ps)
    mean_i = float(weights @ pi)
    mean_11 = float(weights @ p11)
    return {
        "mean_s": mean_s,
        "mean_i": mean_i,
        "mean_coincidence": mean_11,
        # covariance of clicks in two distinct windows sharing one factor
        "cross_block_ss": float(weights @ ps ** 2) - mean_s ** 2,
        "cross_block_ii": float(weights @ pi ** 2) - mean_i ** 2,
        "cross_block_si": float(weights @ (ps * pi)) - mean_s * mean_i,
    }


def grouped_click_moments(params: TwbParams, spec_s: DetectorSpec,
                          spec_i: DetectorSpec, k: float, n: int) -> dict:
    """Means, variances and covariance of ``n``-grouped clicks, pump drift included.

    Assumes the whole group sits inside one block (``block_len >= n``).
    """
    if k == 0.0:
        p_s, p_i, p11 = window_click_probs(params, spec_s, spec_i)
        base = {"mean_s": p_s, "mean_i": p_i, "mean_coincidence": p11,
                "cross_block_ss": 0.0, "cross_block_ii": 0.0,
                "cross_block_si": 0.0}
    else:
        base = pump_block_covariances(params, spec_s, spec_i, k)
    mean_s, mean_i = n * base["mean_s"], n * base["mean_i"]
    var_s = n * base["mean_s"] * (1 - base["mean_s"]) \
        + n * (n - 1) * base["cross_block_ss"]
    var_i = n * base["mean_i"] * (1 - base["mean_i"]) \
        + n * (n - 1) * base["cross_block_ii"]
    # n same-window pairs plus n(n-1) ordered cross-window pairs
    cov = (n * (base["mean_coincidence"] - base["mean_s"] * base["mean_i"])
           + n * (n - 1) * base["cross_block_si"])
    return {"mean_s": mean_s, "mean_i": mean_i,
            "var_s": var_s, "var_i": var_i, "cov": cov}
