"""Detection matrices for multiplexed on/off detectors and forward models.

An ``N``-pixel detector with quantum efficiency ``eta`` and per-pixel dark
count probability ``dark`` maps ``n`` incident photons to ``c`` clicks with
probability

    T(c, n; N) = C(N, c) * sum_l (-1)^l C(c, l) (1 - dark)^(N-c+l)
                 * (1 - eta (N-c+l)/N)^n .

This alternating sum cancels catastrophically once ``N`` and ``c`` are
large, so the default evaluation path uses an exactly equivalent all-positive
formulation: each photon independently marks a uniformly chosen pixel with
probability ``eta``; a pixel clicks when marked or on a dark count.  The
pixel-occupancy recursion involved is stable in double precision and its
column sums are one by construction.  An arbitrary-precision evaluation of
the alternating sum lives with the tests as the cross-check of this path.
Heralded photon statistics need no matrix: ``models`` takes them from the
photon-number generating function.
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass

import numpy as np

from .core import PHOTOCOUNT, PHOTON, JointDist, TwbParams, joint_twb
from .errors import (InvalidParameterError, KindMismatchError,
                     PrecisionExhaustedError)

#: Column sums of a valid matrix must match 1 this tightly.
COLUMN_SUM_TOL = 1e-10

#: Entries this slightly negative are attributed to rounding and clamped.
NEGATIVE_CLAMP = 1e-12


@dataclass(frozen=True)
class DetectorSpec:
    """Efficiency, dark-count probability per pixel and pixel count."""

    eta: float
    dark: float = 0.0
    pixels: int = 1

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise InvalidParameterError(f"eta must be in (0, 1], got {self.eta}")
        if not 0.0 <= self.dark < 1.0:
            raise InvalidParameterError(f"dark must be in [0, 1), got {self.dark}")
        if self.pixels < 1:
            raise InvalidParameterError(f"pixels must be >= 1, got {self.pixels}")


@dataclass(frozen=True)
class DetectionMatrix:
    """Immutable click-from-photon transfer matrix ``entries[c, n]``."""

    entries: np.ndarray
    spec: DetectorSpec

    @property
    def n_max(self) -> int:
        return self.entries.shape[1] - 1

    def column_sum_error(self) -> float:
        return float(np.abs(self.entries.sum(axis=0) - 1.0).max())


_cache: dict = {}
_cache_lock = threading.Lock()


#: Photon numbers past the default support leave no more than the observed
#: clicks with at most this probability.
SUPPORT_TAIL = 1e-5


def default_n_max(c_max: int, eta: float, pixels: int) -> int:
    """Photon support for data of at most ``c_max`` clicks on ``pixels`` pixels.

    ``n`` photons leave at most ``c_max`` clicks with a chance that falls with
    ``n``.  A Poisson number of mean ``n`` photons marks the pixels
    independently and is at most ``n`` half the time or more, so the chance
    is at most ``2 P(Binomial(pixels, 1 - exp(-eta n / pixels)) <= c_max)``.
    The support ends below the first ``n`` at which this bound is
    ``SUPPORT_TAIL``; dark counts only add clicks.  Saturated data
    (``c_max >= pixels``) bound nothing and keep ``ceil(3 (pixels + 5) / eta)``.
    """
    if c_max >= pixels:
        return int(np.ceil(3.0 * (pixels + 5) / eta))
    k = np.arange(c_max + 1)
    # log C(pixels, k) from the ratios C(pixels, k+1) / C(pixels, k)
    log_binom = np.cumsum(np.log(np.r_[1.0, (pixels - k[:-1]) / (k[:-1] + 1.0)]))
    log_tail = math.log(SUPPORT_TAIL / 2)

    def covered(n: int) -> bool:
        rate = eta * n / pixels
        return np.logaddexp.reduce(log_binom + k * np.log(-np.expm1(-rate))
                                   - (pixels - k) * rate) <= log_tail

    # covered() only turns true as n grows; the index of the first covered
    # n in 1, 2, ... is that n minus one
    return bisect.bisect_left(range(1, 1 << 62), True, key=covered)


def _log_factorials(k_max: int) -> np.ndarray:
    """``log(k!)`` for ``k = 0..k_max``."""
    return np.array([math.lgamma(k + 1.0) for k in range(k_max + 1)])


def _occupancy_table(pixels: int, eta: float, n_max: int) -> np.ndarray:
    """``Q[j, n]``: probability that ``n`` photons mark exactly ``j`` pixels.

    One photon is appended per step: it is detected with probability ``eta``
    and then lands on a uniformly chosen pixel.  All recursion terms are
    nonnegative, so double precision is exact to round-off.
    """
    jdim = min(pixels, n_max) + 1
    j = np.arange(jdim, dtype=float)
    stay = 1.0 - eta + eta * j / pixels          # photon lost or pixel already marked
    grow = eta * (pixels - (j - 1.0)) / pixels   # photon marks a fresh pixel
    Q = np.zeros((jdim, n_max + 1))
    Q[0, 0] = 1.0
    col = Q[:, 0].copy()
    for n in range(1, n_max + 1):
        nxt = col * stay
        nxt[1:] += col[:-1] * grow[1:]
        Q[:, n] = nxt
        col = nxt
    return Q


def _dark_mixing(pixels: int, dark: float, jdim: int) -> np.ndarray:
    """``B[c, j]``: probability of ``c`` total clicks given ``j`` marked pixels.

    The remaining ``pixels - j`` pixels click independently with probability
    ``dark``, so ``c - j`` follows a binomial law.
    """
    B = np.zeros((pixels + 1, jdim))
    if dark == 0.0:
        B[:jdim, :] = np.eye(jdim)
        return B
    c, jj = np.indices(B.shape)
    valid = c >= jj
    k, m = c[valid] - jj[valid], pixels - jj[valid]
    lf = _log_factorials(pixels)
    B[valid] = np.exp(lf[m] - lf[k] - lf[m - k]
                      + k * np.log(dark) + (m - k) * np.log1p(-dark))
    return B


def _build_stable(spec: DetectorSpec, n_max: int) -> np.ndarray:
    Q = _occupancy_table(spec.pixels, spec.eta, n_max)
    B = _dark_mixing(spec.pixels, spec.dark, Q.shape[0])
    return B @ Q


def detection_matrix(spec: DetectorSpec, n_max: int) -> DetectionMatrix:
    """Build (or fetch from cache) the detection matrix of a detector.

    Column sums are validated and tiny negative entries are clamped to zero
    only after validation passes.
    """
    if n_max < 0:
        raise InvalidParameterError("n_max must be >= 0")
    key = (spec, n_max)
    with _cache_lock:
        hit = _cache.get(key)
    if hit is not None:
        return hit

    entries = _build_stable(spec, n_max)
    colsum_err = np.abs(entries.sum(axis=0) - 1.0).max()
    if colsum_err > COLUMN_SUM_TOL:
        raise PrecisionExhaustedError(f"column sums off by {colsum_err:.3e}")
    if entries.min() < -NEGATIVE_CLAMP:
        raise PrecisionExhaustedError(
            f"entry {entries.min():.3e} below the rounding clamp")
    np.clip(entries, 0.0, None, out=entries)
    entries.flags.writeable = False
    matrix = DetectionMatrix(entries, spec)
    with _cache_lock:
        _cache[key] = matrix
    return matrix


def forward_photocounts(p: JointDist, spec_s: DetectorSpec,
                        spec_i: DetectorSpec) -> JointDist:
    """Joint photocount distribution of a photon-number distribution."""
    if p.kind != PHOTON:
        raise KindMismatchError("forward model expects a photon-number distribution")
    t_s = detection_matrix(spec_s, p.table.shape[0] - 1)
    t_i = detection_matrix(spec_i, p.table.shape[1] - 1)
    f = t_s.entries @ p.table @ t_i.entries.T
    return JointDist(f, p.tail_mass, PHOTOCOUNT)


def genuine_pnrd_model(params: TwbParams, spec_s: DetectorSpec,
                       spec_i: DetectorSpec) -> JointDist:
    """Photocounts of one strong beam on photon-number-resolving detectors.

    The beam carries ``pixels`` times the constituting mode counts, i.e. the
    same total intensity as the matching compound beam, but all photons share
    one detector per arm.  Serves as the comparison model for the compound
    composition.
    """
    if spec_s.pixels != spec_i.pixels:
        raise InvalidParameterError("both detectors must have the same pixel count")
    strong = params.scaled(spec_s.pixels)
    return forward_photocounts(joint_twb(strong), spec_s, spec_i)
