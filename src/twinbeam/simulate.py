"""Monte Carlo generation of per-window click streams.

Each detection window carries one weak twin beam: a pair count and two noise
counts drawn from Mandel-Rice laws (sampled exactly through their
Gamma-Poisson mixture representation), detected by two single-pixel on/off
detectors.  Slow pump-power drift is modelled by a common-mode Gaussian
factor shared by all windows of a block: the paired mean of every window in
block ``j`` is scaled by ``max(0, 1 + sqrt(K) g_j)``, which reproduces the
prescribed cross-window intensity covariance ``K <W_p>^2`` for any two
distinct windows of a block.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .core import TwbParams
from .detection import DetectorSpec
from .errors import InvalidParameterError

#: Windows drawn per RNG chunk.  Chunks are keyed by window index, so the
#: stream is reproducible independently of how work is scheduled.
CHUNK = 1 << 18


@dataclass(frozen=True)
class PumpCorrelation:
    """Strength and range of the block-wise common-mode pump fluctuations."""

    k: float = 0.0
    block_len: int = 10_000

    def __post_init__(self):
        if not np.isfinite(self.k) or self.k < 0:
            raise InvalidParameterError(f"k must be finite and >= 0, got {self.k}")
        # keep three standard deviations of the common-mode factor above
        # zero, so clamping negative intensities stays a rare event
        if 3.0 * np.sqrt(self.k) >= 1.0:
            raise InvalidParameterError(
                f"k = {self.k} puts the drift factor at zero within 3 sigma")
        if self.block_len < 1:
            raise InvalidParameterError("block_len must be >= 1")


@dataclass
class ClickStream:
    """Per-window click bits plus the parameters that generated them.

    ``codes[j]`` packs window ``j``: bit 0 is the signal click, bit 1 the
    idler click.
    """

    codes: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.codes = np.asarray(self.codes, dtype=np.uint8)

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def signal(self) -> np.ndarray:
        return self.codes & 1

    @property
    def idler(self) -> np.ndarray:
        return (self.codes >> 1) & 1


def sample_stream(params: TwbParams, spec_s: DetectorSpec, spec_i: DetectorSpec,
                  pump: PumpCorrelation, n_windows: int, seed: int) -> ClickStream:
    """Simulate ``n_windows`` synchronized on/off detections of weak twin beams.

    The stream is a pure function of its arguments: block factors come from
    one dedicated child RNG, window-level draws from per-chunk child RNGs
    keyed by window index.  The chunks run in threads, one per available
    CPU; each writes its own slice, so the bytes do not depend on the CPU
    count.
    """
    if spec_s.pixels != 1 or spec_i.pixels != 1:
        raise InvalidParameterError("stream simulation uses single-pixel detectors")
    if n_windows < 1:
        raise InvalidParameterError("n_windows must be >= 1")

    root = np.random.SeedSequence(seed)
    n_blocks = -(-n_windows // pump.block_len)
    n_chunks, workers = _schedule(n_windows)
    children = root.spawn(n_chunks + 1)

    if pump.k > 0:
        g = np.random.default_rng(children[0]).standard_normal(n_blocks)
        factors = np.maximum(0.0, 1.0 + np.sqrt(pump.k) * g)
    else:
        factors = None

    log_miss_s = np.log1p(-spec_s.eta) if spec_s.eta < 1 else -np.inf
    log_miss_i = np.log1p(-spec_i.eta) if spec_i.eta < 1 else -np.inf
    codes = np.empty(n_windows, dtype=np.uint8)

    def draw_chunk(ci: int) -> None:
        lo, hi = ci * CHUNK, min((ci + 1) * CHUNK, n_windows)
        size = hi - lo
        rng = np.random.default_rng(children[ci + 1])

        lam_p = rng.gamma(params.m_p, params.b_p, size) if params.b_p > 0 \
            else np.zeros(size)
        if factors is not None:
            first, last = lo // pump.block_len, (hi - 1) // pump.block_len
            bounds = np.arange(first + 1, last + 1) * pump.block_len
            lam_p *= np.repeat(factors[first:last + 1],
                               np.diff(bounds, prepend=lo, append=hi))
        # photon numbers are kept in the smallest dtype that holds them
        n_p = _compact(rng.poisson(lam_p))
        del lam_p
        n_s = _add_noise(rng, params.m_s, params.b_s, n_p)
        n_i = _add_noise(rng, params.m_i, params.b_i, n_p)
        s = rng.random(size) < _click_prob(n_s, spec_s.dark, log_miss_s)
        i = rng.random(size) < _click_prob(n_i, spec_i.dark, log_miss_i)
        np.left_shift(i, 1, out=codes[lo:hi], dtype=np.uint8)
        codes[lo:hi] |= s

    # numpy's generators release the GIL while drawing; imported here so
    # that commands that simulate nothing do not load the thread pool
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(draw_chunk, range(n_chunks)))   # re-raises a failure

    meta = {
        "params": params,
        "spec_s": spec_s,
        "spec_i": spec_i,
        "pump": pump,
        "n_windows": n_windows,
        "seed": seed,
    }
    return ClickStream(codes, meta)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _schedule(n_windows: int) -> tuple[int, int]:
    """``(chunks, worker threads)`` of a stream of ``n_windows``."""
    n_chunks = -(-n_windows // CHUNK)
    return n_chunks, min(_cpu_count(), n_chunks)


def _compact(n: np.ndarray) -> np.ndarray:
    return n.astype(np.min_scalar_type(n.max()), copy=False)


def _add_noise(rng, m: float, b: float, n_p: np.ndarray) -> np.ndarray:
    """``n_p`` plus Mandel-Rice noise photons of ``m`` modes of mean ``b``."""
    if b <= 0:
        return n_p
    n = rng.poisson(rng.gamma(m, b, len(n_p)))
    n += n_p
    return _compact(n)


def _click_prob(n: np.ndarray, dark: float, log_miss: float) -> np.ndarray:
    """``1 - (1 - dark)(1 - eta)^n``, looked up in a table over ``0..max n``."""
    k = np.arange(int(n.max()) + 1)
    return (1.0 - (1.0 - dark) * _miss_prob(k, log_miss))[n]


def _miss_prob(n: np.ndarray, log_miss: float) -> np.ndarray:
    """``(1 - eta)^n`` with the unit-efficiency limit ``0^0 = 1`` handled."""
    if np.isneginf(log_miss):
        return (n == 0).astype(float)
    return np.exp(n * log_miss)
