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
genuine beam's click moments need no matrix: the chain carries its factorial
moments in ``order + 1`` numbers (:func:`click_factorials`), and ``models``
takes heralded photon statistics from the photon-number generating function.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError, UsageError, check_size

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
            raise UsageError(f"eta must be in (0, 1], got {self.eta}")
        if not 0.0 <= self.dark < 1.0:
            raise UsageError(f"dark must be in [0, 1), got {self.dark}")
        check_size(self.pixels, "pixels")


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


def default_n_max(spec: DetectorSpec, c_max: int, n_limit: int) -> int:
    """Photon support for data of at most ``c_max`` clicks, up to ``n_limit``.

    A photon only adds clicks, so the mass of column ``n`` on the rows
    ``<= c_max`` falls with ``n``: the support ends below the first column
    with at most ``SUPPORT_TAIL`` there (at 0 if dark counts alone leave more
    clicks), or at ``n_limit``.  Saturated data (``c_max >= pixels``) bound
    no support: the chance that every pixel clicks grows with ``n``.
    """
    if c_max >= spec.pixels:
        raise DataError(f"{c_max} clicks on {spec.pixels} pixels: saturated "
                        "data bound no photon support; pass --n-max")
    for n, col in enumerate(_columns(spec, n_limit)):
        if col[:c_max + 1].sum() <= SUPPORT_TAIL:
            return max(n - 1, 0)
    return n_limit


def _binomial_pmf(n: int, p: float) -> np.ndarray:
    """``P(k)``, ``k = 0..n``, of ``Binomial(n, p)``: exact neighbour ratios
    out from 1 at the mode (far cells underflow to 0), over their ``fsum``."""
    k, mode = np.arange(n + 1.0), min(n, math.floor((n + 1) * p))
    pmf = np.ones(n + 1)
    if mode < n:                            # so p < 1
        up = (n - k[mode:-1]) / k[mode + 1:]
        pmf[mode + 1:] = np.cumprod(up * (p / (1 - p)))
    if mode > 0:                            # so p > 0
        down = k[mode:0:-1] / (n - k[mode - 1::-1])
        pmf[mode - 1::-1] = np.cumprod(down * ((1 - p) / p))
    return pmf / math.fsum(pmf)


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


def detection_matrix(spec: DetectorSpec, n_max: int) -> DetectionMatrix:
    """Build (or fetch from a cache of ``CACHE_BYTES``) a detector's matrix.

    Column sums are validated.  No entry needs clamping: each is a sum of
    products of nonnegative numbers.
    """
    check_size(n_max, "n_max", 0)
    key = (spec, n_max)
    with _cache_lock:
        hit = _cache.pop(key, None)
        if hit is not None:
            _cache[key] = hit                       # now the most recent
            return hit

    entries = np.empty((spec.pixels + 1, n_max + 1))
    for n, col in enumerate(_columns(spec, n_max)):
        entries[:, n] = col
    err = column_sum_error(entries)
    if err > COLUMN_SUM_TOL:
        raise NumericError(f"column sums off by {err:.3e}")
    entries.flags.writeable = False
    matrix = DetectionMatrix(entries)
    with _cache_lock:
        _cache[key] = matrix
        size = sum(m.entries.nbytes for m in _cache.values())
        while size > CACHE_BYTES and len(_cache) > 1:
            size -= _cache.pop(next(iter(_cache))).entries.nbytes
    return matrix


def click_factorials(spec: DetectorSpec, n_max: int, order: int
                     ) -> np.ndarray:
    """``F[k, m] = <(c)_k>`` of ``m = 0..n_max`` photons, ``k <= order``.

    A photon adds a click with chance ``eta (N - c) / N``, turning ``(c)_k``
    into ``(c)_k + k (c)_(k-1)``, so ``F[k, m+1] = (1 - k eta/N) F[k, m] +
    k eta (N - k + 1)/N F[k-1, m]`` from ``F[k, 0] = (N)_k dark^k``.  For
    ``k <= N`` no factor is negative and nothing cancels; rows past ``N``
    are exact zeros.
    """
    check_size(n_max, "n_max", 0)
    check_size(order, "order", 0)
    N, eta = spec.pixels, spec.eta
    k = np.arange(min(order, N) + 1.0)
    keep, gain = 1.0 - k * eta / N, k[1:] * eta * (N - k[1:] + 1.0) / N
    out = np.zeros((order + 1, n_max + 1))
    f = out[:k.size]
    f[:, 0] = np.cumprod(np.r_[1.0, (N - k[:-1]) * spec.dark])
    for m in range(n_max):
        f[:, m + 1] = keep * f[:, m]
        f[1:, m + 1] += gain * f[:-1, m]
    return out
