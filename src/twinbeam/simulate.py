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
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .core import TwbParams
from .detection import DetectorSpec
from .errors import DataError, UsageError, check_size

#: Windows per chunk of a stream, drawn or read.  Drawn chunks are keyed by
#: window index, so the stream is reproducible however work is scheduled.
CHUNK = 1 << 18

#: Windows per block of the draws within a chunk.  The generators yield the
#: same numbers a block at a time as in one call, with smaller temporaries.
BLOCK = 1 << 15


@dataclass(frozen=True)
class PumpCorrelation:
    """Strength and range of the block-wise common-mode pump fluctuations."""

    k: float = 0.0
    block_len: int = 10_000

    def __post_init__(self):
        if not np.isfinite(self.k) or self.k < 0:
            raise UsageError(f"k must be finite and >= 0, got {self.k}")
        # keep three standard deviations of the common-mode factor above
        # zero, so clamping negative intensities stays a rare event
        if 3.0 * np.sqrt(self.k) >= 1.0:
            raise UsageError(
                f"k = {self.k} puts the drift factor at zero within 3 sigma")
        check_size(self.block_len, "block_len")


@dataclass(frozen=True)
class ClickStream:
    """Per-window click codes, one chunk at a time, plus their parameters.

    A code packs one window: bit 0 is the signal click, bit 1 the idler
    click.  ``chunks()`` yields the ``len(stream)`` codes in window order as
    ``uint8`` arrays, afresh on every call, so a consumer holds one chunk at
    a time whatever the stream length.  A chunk of another dtype or with a
    code above 3 is a ``DataError`` before it is yielded, and so is a source
    of another length as soon as it shows.
    """

    n_windows: int
    source: Callable[[], Iterator[np.ndarray]]
    meta: dict

    def __len__(self) -> int:
        return self.n_windows

    def chunks(self) -> Iterator[np.ndarray]:
        held = 0
        for chunk in self.source():
            held += len(chunk)
            if chunk.dtype != np.uint8:
                raise DataError(f"window codes are uint8, not {chunk.dtype}")
            if chunk.max(initial=0) > 3:
                raise DataError(f"window code {chunk.max()} above 3: only "
                                "bits 0 (signal) and 1 (idler) may be set")
            if held > self.n_windows:
                raise DataError(f"overlong stream: it declares "
                                f"{self.n_windows} windows and holds more")
            yield chunk
        if held < self.n_windows:
            raise DataError(f"truncated stream: it declares {self.n_windows} "
                            f"windows and holds {held}")


def sample_stream(params: TwbParams, spec_s: DetectorSpec, spec_i: DetectorSpec,
                  pump: PumpCorrelation, n_windows: int, seed: int) -> ClickStream:
    """Simulate ``n_windows`` synchronized on/off detections of weak twin beams.

    The stream is a pure function of its arguments: block factors come from
    one dedicated child RNG, window-level draws from per-chunk child RNGs
    keyed by window index.  Each pass over its chunks draws them in
    threads, one per available CPU, at most two chunks per thread ahead of
    the consumer, and hands them out in window order, so neither the bytes
    nor the memory depend on the CPU count or the stream length.
    """
    if spec_s.pixels != 1 or spec_i.pixels != 1:
        raise UsageError("stream simulation uses single-pixel detectors")
    check_size(n_windows, "n_windows")
    check_size(seed, "seed", 0)

    root = np.random.SeedSequence(seed)
    n_blocks = -(-n_windows // pump.block_len)
    n_chunks, workers = _schedule(n_windows)
    children = root.spawn(n_chunks + 1)

    if pump.k > 0:
        g = np.random.default_rng(children[0]).standard_normal(n_blocks)
        factors = np.maximum(0.0, 1.0 + np.sqrt(pump.k) * g)
    else:
        factors = None

    def draw_chunk(ci: int) -> np.ndarray:
        lo, hi = ci * CHUNK, min((ci + 1) * CHUNK, n_windows)
        size = hi - lo
        rng = np.random.default_rng(children[ci + 1])

        lam_p = rng.gamma(params.m_p, params.b_p, size) if params.b_p > 0 \
            else np.zeros(size)
        if factors is not None:
            for a in range(0, size, BLOCK):
                window = np.arange(lo + a, min(lo + a + BLOCK, hi))
                lam_p[a:a + BLOCK] *= factors[window // pump.block_len]
        n_p = _poisson(rng, lam_p)
        del lam_p
        n_s = _add_noise(rng, params.m_s, params.b_s, n_p)
        n_i = _add_noise(rng, params.m_i, params.b_i, n_p)
        s = _clicks(rng, n_s, spec_s)
        i = _clicks(rng, n_i, spec_i)
        codes = np.left_shift(i, 1, dtype=np.uint8)
        codes |= s
        return codes

    def chunks() -> Iterator[np.ndarray]:
        # numpy's generators release the GIL while drawing; imported here so
        # that commands that simulate nothing do not load the thread pool
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(workers) as pool:
            ahead = []
            for ci in range(n_chunks):
                ahead.append(pool.submit(draw_chunk, ci))
                if len(ahead) == 2 * workers:
                    yield ahead.pop(0).result()     # re-raises a failure
            while ahead:
                yield ahead.pop(0).result()

    meta = {
        "params": params,
        "spec_s": spec_s,
        "spec_i": spec_i,
        "pump": pump,
        "n_windows": n_windows,
        "seed": seed,
    }
    return ClickStream(n_windows, chunks, meta)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _schedule(n_windows: int) -> tuple[int, int]:
    """``(chunks, worker threads)`` of a stream of ``n_windows``."""
    n_chunks = -(-n_windows // CHUNK)
    return n_chunks, min(_cpu_count(), n_chunks)


def _compact(n: np.ndarray) -> np.ndarray:
    return n.astype(np.min_scalar_type(n.max()), copy=False)


def _poisson(rng, lam: np.ndarray) -> np.ndarray:
    """Poisson counts of means ``lam``, kept in the smallest dtype."""
    return np.concatenate([_compact(rng.poisson(lam[a:a + BLOCK]))
                           for a in range(0, len(lam), BLOCK)])


def _add_noise(rng, m: float, b: float, n_p: np.ndarray) -> np.ndarray:
    """``n_p`` plus Mandel-Rice noise photons of ``m`` modes of mean ``b``."""
    if b <= 0:
        return n_p
    noise = _poisson(rng, rng.gamma(m, b, len(n_p)))
    top = int(noise.max()) + int(n_p.max())
    return np.add(noise, n_p, dtype=np.min_scalar_type(top))


def _clicks(rng, n: np.ndarray, spec: DetectorSpec) -> np.ndarray:
    """Clicks of ``n`` photons, of chance ``1 - (1 - dark)(1 - eta)^n``."""
    # numpy takes 0.0 ** 0 as 1, the limit that unit efficiency needs
    miss = (1.0 - spec.eta) ** np.arange(int(n.max()) + 1)
    prob = 1.0 - (1.0 - spec.dark) * miss
    return np.concatenate([rng.random(len(part)) < prob[part] for part in
                           np.split(n, range(BLOCK, len(n), BLOCK))])
