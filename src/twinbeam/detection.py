"""Detection matrices for multiplexed on/off detectors.

An ``N``-pixel detector with quantum efficiency ``eta`` and per-pixel dark
count probability ``dark`` maps ``n`` incident photons to ``c`` clicks with
probability

    T(c, n; N) = C(N, c) * sum_l (-1)^l C(c, l) (1 - dark)^(N-c+l)
                 * (1 - eta (N-c+l)/N)^n .

This alternating sum cancels catastrophically once ``N`` and ``c`` are
large, so the matrix comes from one all-positive pixel-occupancy chain:
dark counts mark each pixel with probability ``dark`` before the first
photon, which is the chain's start; each photon then marks a uniformly chosen
pixel with probability ``eta``; a pixel clicks when marked.  The chain is
stable in double precision and its column sums are one by construction.  An
arbitrary-precision alternating sum in the tests cross-checks it.  The
chain runs as one stream of column blocks, each block's column sums checked:
:func:`detection_matrix` stores the blocks, and :func:`fold_detection`
projects them onto a few rows, which is all the genuine beam's click moments
need.  Heralded photon statistics need no matrix: ``models`` takes them from
the photon-number generating function.
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DataError, InvalidParameterError, PrecisionExhaustedError

#: Column sums of a valid matrix must match 1 this tightly.
COLUMN_SUM_TOL = 1e-10


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


def column_sum_error(t: np.ndarray) -> float:
    """Largest deviation from 1 of the column sums of a detection matrix."""
    return float(np.abs(t.sum(axis=0) - 1.0).max())


#: Bytes of matrices the cache keeps: past it, the least recently used go.
CACHE_BYTES = 64 << 20

# insertion-ordered from the least to the most recently used
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
    (``c_max >= pixels``) bound no support: the chance that every pixel
    clicks grows with ``n``.
    """
    if c_max >= pixels:
        raise DataError(f"{c_max} clicks on {pixels} pixels: saturated data "
                        "bound no photon support; pass --n-max")
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


def _binomial_pmf(n: int, p: float) -> np.ndarray:
    """``P(k)`` of ``Binomial(n, p)`` for ``k = 0..n``, in log space."""
    k = np.arange(n + 1)
    lf = _log_factorials(n)
    # log 0 as a large finite negative keeps 0 * log 0 at 0: point masses
    log_p = math.log(p) if p > 0 else -1e9
    log_q = math.log1p(-p) if p < 1 else -1e9
    return np.exp(lf[n] - lf[k] - lf[n - k] + k * log_p + (n - k) * log_q)


def _columns(spec: DetectorSpec, n_max: int):
    """Yield ``T[:, n]`` for ``n = 0..n_max``: the chain, one photon a step."""
    N = spec.pixels
    fresh = spec.eta * (N - np.arange(N + 1.0)) / N   # marks a fresh pixel
    stay = 1.0 - fresh                  # lost, or lands on a marked pixel
    col = _binomial_pmf(N, spec.dark)
    yield col
    for _ in range(n_max):
        nxt = col * stay
        nxt[1:] += col[:-1] * fresh[:-1]
        yield nxt
        col = nxt


def _blocks(spec: DetectorSpec, n_max: int):
    """Yield ``(n, T[:, n:n + k])``, the chain's columns in blocks of up to 64.

    The blocks share one buffer, and each is valid until the next is drawn.
    """
    width = 64
    buf = np.empty((spec.pixels + 1, width))
    for n, col in enumerate(_columns(spec, n_max)):
        k = n % width
        buf[:, k] = col
        if k == width - 1 or n == n_max:
            block = buf[:, :k + 1]
            err = column_sum_error(block)
            if err > COLUMN_SUM_TOL:
                raise PrecisionExhaustedError(f"column sums off by {err:.3e}")
            yield n - k, block


def detection_matrix(spec: DetectorSpec, n_max: int) -> DetectionMatrix:
    """Build (or fetch from a cache of ``CACHE_BYTES``) a detector's matrix.

    Column sums are validated.  No entry needs clamping: each is a sum of
    products of nonnegative numbers.
    """
    if n_max < 0:
        raise InvalidParameterError("n_max must be >= 0")
    key = (spec, n_max)
    with _cache_lock:
        hit = _cache.pop(key, None)
        if hit is not None:
            _cache[key] = hit                       # now the most recent
            return hit

    matrix = DetectionMatrix(np.empty((spec.pixels + 1, n_max + 1)))
    for n, block in _blocks(spec, n_max):
        matrix.entries[:, n:n + block.shape[1]] = block
    matrix.entries.flags.writeable = False
    with _cache_lock:
        _cache[key] = matrix
        size = sum(m.entries.nbytes for m in _cache.values())
        while size > CACHE_BYTES and len(_cache) > 1:
            size -= _cache.pop(next(iter(_cache))).entries.nbytes
    return matrix


def fold_detection(rows: np.ndarray, spec: DetectorSpec, n_max: int
                   ) -> np.ndarray:
    """``rows @ T`` of the detector's matrix ``T``, without building ``T``.

    Blocks are projected as they come; the cache is neither read nor filled.
    """
    if n_max < 0:
        raise InvalidParameterError("n_max must be >= 0")
    out = np.empty((rows.shape[0], n_max + 1))
    for n, block in _blocks(spec, n_max):
        out[:, n:n + block.shape[1]] = rows @ block
    return out
