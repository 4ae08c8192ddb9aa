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
        return (self.codes & 1).astype(np.uint8)

    @property
    def idler(self) -> np.ndarray:
        return ((self.codes >> 1) & 1).astype(np.uint8)


def sample_stream(params: TwbParams, spec_s: DetectorSpec, spec_i: DetectorSpec,
                  pump: PumpCorrelation, n_windows: int, seed: int) -> ClickStream:
    """Simulate ``n_windows`` synchronized on/off detections of weak twin beams.

    The stream is a pure function of its arguments: block factors come from
    one dedicated child RNG, window-level draws from per-chunk child RNGs
    keyed by window index.
    """
    if spec_s.pixels != 1 or spec_i.pixels != 1:
        raise InvalidParameterError("stream simulation uses single-pixel detectors")
    if n_windows < 1:
        raise InvalidParameterError("n_windows must be >= 1")

    root = np.random.SeedSequence(seed)
    n_blocks = -(-n_windows // pump.block_len)
    n_chunks = -(-n_windows // CHUNK)
    children = root.spawn(n_chunks + 1)

    if pump.k > 0:
        g = np.random.default_rng(children[0]).standard_normal(n_blocks)
        factors = np.maximum(0.0, 1.0 + np.sqrt(pump.k) * g)
    else:
        factors = None

    log_miss_s = np.log1p(-spec_s.eta) if spec_s.eta < 1 else -np.inf
    log_miss_i = np.log1p(-spec_i.eta) if spec_i.eta < 1 else -np.inf
    codes = np.empty(n_windows, dtype=np.uint8)

    for ci in range(n_chunks):
        lo, hi = ci * CHUNK, min((ci + 1) * CHUNK, n_windows)
        size = hi - lo
        rng = np.random.default_rng(children[ci + 1])

        lam_p = rng.gamma(params.m_p, params.b_p, size) if params.b_p > 0 \
            else np.zeros(size)
        if factors is not None:
            lam_p *= factors[np.arange(lo, hi) // pump.block_len]
        n_p = rng.poisson(lam_p)
        n_s = n_p + _mandel_rice_draws(rng, params.m_s, params.b_s, size)
        n_i = n_p + _mandel_rice_draws(rng, params.m_i, params.b_i, size)

        p_click_s = 1.0 - (1.0 - spec_s.dark) * _miss_prob(n_s, log_miss_s)
        p_click_i = 1.0 - (1.0 - spec_i.dark) * _miss_prob(n_i, log_miss_i)
        s = rng.random(size) < p_click_s
        i = rng.random(size) < p_click_i
        codes[lo:hi] = s.astype(np.uint8) | (i.astype(np.uint8) << 1)

    meta = {
        "params": params,
        "spec_s": spec_s,
        "spec_i": spec_i,
        "pump": pump,
        "n_windows": n_windows,
        "seed": seed,
    }
    return ClickStream(codes, meta)


def _mandel_rice_draws(rng, m: float, b: float, size: int) -> np.ndarray:
    if b <= 0:
        return np.zeros(size, dtype=np.int64)
    return rng.poisson(rng.gamma(m, b, size))


def _miss_prob(n: np.ndarray, log_miss: float) -> np.ndarray:
    """``(1 - eta)^n`` with the unit-efficiency limit ``0^0 = 1`` handled."""
    if np.isneginf(log_miss):
        return (n == 0).astype(float)
    return np.exp(n * log_miss)

