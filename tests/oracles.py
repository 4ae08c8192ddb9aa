"""Reference implementations used only by the tests.

Direct two-dimensional convolution of joint distributions: an independent
route to compound distributions that the package itself computes in closed
form.  The single-window click distribution through the detection matrices
cross-checks the closed-form window model the same way.
"""

import numpy as np
from scipy import signal

from twinbeam.core import JointDist, TwbParams, joint_twb
from twinbeam.detection import DetectorSpec, forward_photocounts
from twinbeam.errors import InvalidParameterError, KindMismatchError


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
