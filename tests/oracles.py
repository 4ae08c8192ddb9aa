"""Reference implementations used only by the tests.

Direct two-dimensional convolution of joint distributions: an independent
route to compound distributions that the package itself computes in closed
form.  The single-window click distribution through the detection matrices
cross-checks the closed-form window model the same way, and moments of whole
compound click tables cross-check the closed-form grouped-click moments.
The photon-level drift moments give the tests a closed form to hold the
simulated pump drift against.
"""

import numpy as np
from scipy import signal

from twinbeam import models
from twinbeam.core import PHOTOCOUNT, JointDist, TwbParams, joint_twb
from twinbeam.detection import (DetectorSpec, compound_photocounts,
                                forward_photocounts)
from twinbeam.errors import InvalidParameterError, KindMismatchError
from twinbeam.moments import MomentTable, moments, to_intensity_moments


def convolve_joint(a: JointDist, b: JointDist) -> JointDist:
    """Distribution of the cell-wise sum of two independent joint counts."""
    if a.kind != b.kind:
        raise KindMismatchError(f"cannot convolve {a.kind} with {b.kind}")
    big = a.table.size * b.table.size > 1e8
    table = signal.fftconvolve(a.table, b.table) if big else \
        signal.convolve2d(a.table, b.table)
    # FFT round-off may leave tiny negatives; anything worse is a real bug.
    if table.min() < -1e-12:
        raise InvalidParameterError("convolution produced negative mass")
    np.clip(table, 0.0, None, out=table)
    tail = min(1.0, a.tail_mass + b.tail_mass)
    return JointDist(table, tail, a.kind)


def self_convolve(d: JointDist, n: int) -> JointDist:
    """``n``-fold convolution of a joint distribution with itself.

    Uses binary exponentiation, so only ``O(log n)`` convolutions run.
    """
    if n < 1:
        raise InvalidParameterError("fold count must be >= 1")
    result = None
    power = d
    k = n
    while k:
        if k & 1:
            result = power if result is None else convolve_joint(result, power)
        k >>= 1
        if k:
            power = convolve_joint(power, power)
    return result


def window_forward_dist(params: TwbParams, spec_s: DetectorSpec,
                        spec_i: DetectorSpec) -> JointDist:
    """Single-window click distribution via the detection-matrix route.

    Numerically redundant with ``models.window_click_dist``; kept as the
    independent cross-check of the truncated forward model.
    """
    return forward_photocounts(joint_twb(params), spec_s, spec_i)


def compound_click_moments_by_table(params: TwbParams, spec_s: DetectorSpec,
                                    spec_i: DetectorSpec, n: int, order: int,
                                    k: float = 0.0) -> MomentTable:
    """Factorial click moments of ``n`` grouped windows from whole tables.

    Per pump factor of the 201-node Gauss-Hermite rule the ``n``-window
    histogram is composed with ``compound_photocounts``; its raw moments are
    averaged over the factors.  Same signature as
    ``models.compound_click_moments``, which it can stand in for.
    """
    factors, weights = np.ones(1), np.ones(1)
    if k > 0:
        x, w = np.polynomial.hermite_e.hermegauss(201)
        factors, weights = np.maximum(0.0, 1.0 + np.sqrt(k) * x), w / w.sum()
    raw = np.zeros((order + 1, order + 1))
    for factor, weight in zip(factors, weights):
        p_s, p_i, p11 = models.window_click_probs(params, spec_s, spec_i, factor)
        window = JointDist(np.array([[1.0 - p_s - p_i + p11, p_i - p11],
                                     [p_s - p11, p11]]), 0.0, PHOTOCOUNT)
        raw += weight * moments(compound_photocounts(window, n), order).raw
    return to_intensity_moments(MomentTable(raw, order, kind=PHOTOCOUNT))


def pump_moment_model(params: TwbParams, k: float, n: int) -> dict:
    """First two moments of the grouped paired intensity under pump drift.

    For ``n`` grouped windows the common-mode fluctuations leave the mean
    untouched and add ``k n(n-1) <W_p^w>^2`` to the second moment, with
    ``<W_p^w>`` the per-window paired mean.
    """
    if n < 1:
        raise InvalidParameterError("group size must be >= 1")
    w_window = params.m_p * params.b_p
    mean = n * w_window
    var = n * params.m_p * params.b_p ** 2
    second = var + mean ** 2 + k * n * (n - 1) * w_window ** 2
    return {"w_all_mean": mean, "w_all_sq": second}
