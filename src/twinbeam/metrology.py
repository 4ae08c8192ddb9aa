"""Effective detection efficiencies, post-selection and precision metrics.

The covariance-based effective efficiency generalizes the coincidence
calibration of photon-pair detectors to multi-mode beams:

    eta_s^eff = <dc_s dc_i> / <c_i>   (and symmetrically for the idler).

Post-selecting idler outcomes on a chosen signal photocount yields
sub-Poissonian conditional fields; measuring a mean with such a field beats
the Poissonian (coherent-state) reference at equal mean count, which is what
the normalized relative error quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError, UsageError, check_size
from .moments import _require_order
from .simulate import ClickStream


#: Most rounding allowed in an effective efficiency: relative, absolute below 1.
EFFICIENCY_TOL = 1e-6


@dataclass
class PrecisionReport:
    """Relative-error bookkeeping of one grouped-count sequence."""

    mean: float
    rel_err: float
    rel_err_classical: float
    normalized: float
    n_groups: int
    n_blocks: int
    block_size: int
    partial_coverage: bool = False


@dataclass
class PostSelectionResult:
    """Best conditioning photocount and the conditional field it selects."""

    c_s_opt: int
    fano_min: float
    mean_conditional: float
    p_success: float


def effective_efficiency(m: np.ndarray, arm: str = "s",
                         dark_mean: float = 0.0) -> float:
    """Covariance-based effective efficiency of one detector.

    ``m`` is a normally-ordered moment table of order 1 or more.  The other
    arm's mean dark clicks per group, ``dark_mean = n * dark``, are removed
    from the denominator first.  Rounding past ``EFFICIENCY_TOL``: NumericError.
    """
    if arm not in ("s", "i"):
        raise UsageError(f"arm must be 's' or 'i', got {arm!r}")
    _require_order(m, 1, "effective efficiency")
    mean_s, mean_i = m[1, 0], m[0, 1]
    cov = m[1, 1] - mean_s * mean_i
    denominator = (mean_i if arm == "s" else mean_s) - dark_mean
    if denominator <= 0:
        raise DataError("complementary-arm mean is not positive")
    lost = np.finfo(float).eps * (abs(m[1, 1]) + abs(mean_s * mean_i))
    if lost > EFFICIENCY_TOL * max(denominator, abs(cov)):
        raise NumericError(f"covariance {cov:.3e} lost to rounding {lost:.1e}")
    return float(cov / denominator)


def _postselect(occupancy: np.ndarray, mean: np.ndarray, var: np.ndarray,
                floor: float) -> PostSelectionResult:
    """Signal row with the least conditional Fano factor ``var / mean``.

    Rows whose occupancy is below ``floor`` (or zero) are not eligible, nor
    are rows whose conditional mean is zero; ties go to the first row.
    ``p_success`` is the chosen row's occupancy.
    """
    eligible = np.flatnonzero((occupancy >= floor) & (occupancy > 0) & (mean > 0))
    if not eligible.size:
        raise DataError(
            f"no signal column reaches the eligibility floor {floor:g}")
    c_s = eligible[np.argmin(var[eligible] / mean[eligible])]
    return PostSelectionResult(int(c_s), float(var[c_s] / mean[c_s]),
                               float(mean[c_s]), float(occupancy[c_s]))


def optimal_postselection(counts: np.ndarray,
                          min_events: int = 100) -> PostSelectionResult:
    """Conditioning signal photocount minimizing the conditional Fano factor.

    Rows of ``counts``, a histogram's table, with fewer than ``min_events``
    groups are excluded: their sample Fano factors are too noisy to rank.
    """
    occupancy = counts.sum(axis=1)
    probs = counts / np.maximum(occupancy, 1)[:, None]
    c_i = np.arange(probs.shape[1])
    mean = probs @ c_i
    # centred, so that a row of one value reads exactly 0
    var = ((c_i - mean[:, None]) ** 2 * probs).sum(axis=1)
    total = max(occupancy.sum(), 1)     # an empty table has no eligible row
    return _postselect(occupancy / total, mean, var, min_events / total)


class _Blocks:
    """Relative error of the mean of one run of per-window clicks, fed in chunks.

    Windows that do not yet fill a block of ``n_m`` disjoint groups of ``n``
    wait for the next chunk.  Each complete block keeps the per-measurement
    relative error ``std / mean`` of its grouped counts (population
    normalization, so short blocks are biased low) and adds its count sum.
    The block average divided by ``sqrt(n_m)`` is the relative error of the
    estimated mean; the classical reference is a Poissonian beam of the same
    global mean measured equally often.
    """

    def __init__(self, n: int, n_m: int):
        self.n, self.n_m = n, n_m
        self.carry = np.empty(0, np.uint8)
        self.windows = self.total = 0
        self.ratios = []
        self.zero_mean = False

    def feed(self, bits: np.ndarray) -> None:
        self.windows += len(bits)
        run = np.concatenate((self.carry, bits))
        end = len(run) - len(run) % (self.n * self.n_m)
        self.carry = run[end:]
        if end:
            blocks = run[:end].reshape(-1, self.n_m, self.n).sum(
                axis=2, dtype=float)
            self.total += int(blocks.sum())
            means = blocks.mean(axis=1)
            if np.any(means == 0):
                # raised by report(), so that an earlier arm too short to
                # fill a block is reported first
                self.zero_mean = True
            else:
                self.ratios.append(blocks.std(axis=1) / means)

    def report(self) -> PrecisionReport:
        n, n_m = self.n, self.n_m
        n_blocks = self.windows // (n * n_m)
        if n_blocks < 1:
            raise DataError(
                f"{self.windows} windows cannot fill one block of {n_m} groups of {n}")
        if self.zero_mean:
            raise DataError("a block has zero mean count")
        # exact, as the float sum of integer counts below 2**53 was
        mean = self.total / (n_blocks * n_m)
        rel = float(np.mean(np.concatenate(self.ratios))) / np.sqrt(n_m)
        rel_classical = 1.0 / np.sqrt(mean * n_m)
        return PrecisionReport(mean, rel, rel_classical, rel / rel_classical,
                               self.windows // n, n_blocks, n_m)


def precision_improvement(stream: ClickStream, n: int, n_m: int) -> dict:
    """Precision gain of conditioned over reference grouped photocounts.

    ``S_cs`` compares the sequence conditioned on signal clicks (idler
    detections in heralded windows) against the idler reference measured by
    the same detector; ``S_ci`` is the mirror image.  Values below one mean
    the conditioned, sub-Poissonian field measures a mean more precisely.
    The stream is consumed chunk by chunk, so the memory does not grow with
    its length.  A reference arm with no spread in any block leaves its
    ratio undefined, which is a ``DataError``.
    """
    if not len(stream):
        raise DataError("empty stream")
    check_size(n, "group size")
    check_size(n_m, "n_m")
    arms = {key: _Blocks(n, n_m) for key in (
        "reference_s", "reference_i",
        "conditioned_on_signal", "conditioned_on_idler")}
    for chunk in stream.chunks():
        s, i = chunk & 1, (chunk >> 1) & 1
        # the bits are 0 or 1, so they select as booleans without a mask
        for arm, bits in zip(arms.values(),
                             (s, i, i[s.view(bool)], s[i.view(bool)])):
            arm.feed(bits)
    out = {key: arm.report() for key, arm in arms.items()}
    for key in ("conditioned_on_signal", "conditioned_on_idler"):
        out[key].partial_coverage = arms[key].windows < n * n_m * 2
    for ratio, cond, ref in (("S_cs", "conditioned_on_signal", "reference_i"),
                             ("S_ci", "conditioned_on_idler", "reference_s")):
        if out[ref].normalized == 0:
            raise DataError(f"{ref} has zero spread in every block: "
                            f"{ratio} is undefined")
        out[ratio] = out[cond].normalized / out[ref].normalized
    return out
