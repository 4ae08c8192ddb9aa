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

from dataclasses import dataclass, replace

import numpy as np

from .core import PHOTOCOUNT, JointDist
from .detection import DetectorSpec
from .errors import (DataError, InsufficientDataError, InvalidParameterError,
                     NoEligibleColumnError)
from .ingest import (DISJOINT, GroupingPolicy, JointHistogram,
                     conditioned_sequences, grouped_counts)
from .moments import MomentTable, moments
from .simulate import ClickStream


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


def effective_efficiency(data: JointHistogram | MomentTable, arm: str = "s",
                         subtract_dark: DetectorSpec | None = None) -> float:
    """Covariance-based effective efficiency of one detector.

    With ``subtract_dark`` the per-group dark-count mean ``n * dark`` is
    removed from the denominator mean first; this needs the group size ``n``
    of a histogram.
    """
    if isinstance(data, JointHistogram):
        n = data.policy.n
        data = moments(JointDist(data.normalized(), 0.0, PHOTOCOUNT), 2)
    elif subtract_dark is not None:
        raise InvalidParameterError("dark subtraction needs a histogram")
    data.require(2)
    mean_s, mean_i = data[1, 0], data[0, 1]
    cov = data[1, 1] - mean_s * mean_i
    denominator = mean_i if arm == "s" else mean_s
    if subtract_dark is not None:
        denominator = denominator - n * subtract_dark.dark
    if denominator <= 0:
        raise DataError("complementary-arm mean is not positive")
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
        raise NoEligibleColumnError(
            f"no signal column reaches the eligibility floor {floor:g}")
    c_s = eligible[np.argmin(var[eligible] / mean[eligible])]
    return PostSelectionResult(int(c_s), float(var[c_s] / mean[c_s]),
                               float(mean[c_s]), float(occupancy[c_s]))


def optimal_postselection(h: JointHistogram,
                          min_events: int = 100) -> PostSelectionResult:
    """Conditioning signal photocount minimizing the conditional Fano factor.

    Columns with fewer than ``min_events`` groups are excluded: their sample
    Fano factors are too noisy to rank.
    """
    occupancy = h.counts.sum(axis=1)
    probs = h.counts / np.maximum(occupancy, 1)[:, None]
    c_i = np.arange(probs.shape[1])
    mean = probs @ c_i
    # centred, so that a row of one value reads exactly 0
    var = ((c_i - mean[:, None]) ** 2 * probs).sum(axis=1)
    best = _postselect(occupancy, mean, var, min_events)
    return replace(best, p_success=best.p_success / h.n_groups)


def relative_error(seq: np.ndarray, n_m: int) -> PrecisionReport:
    """Relative error of a mean estimated from blocks of ``n_m`` repetitions.

    The sequence of grouped counts is cut into disjoint blocks of ``n_m``
    values.  Each block contributes its per-measurement relative error
    ``sqrt(<c^2> - <c>^2) / <c>`` (population-style normalization, so short
    blocks are biased low); the block average divided by ``sqrt(n_m)`` is
    the relative error of the estimated mean.  The classical reference is a
    Poissonian beam of the same global mean measured equally often.
    """
    seq = np.asarray(seq, dtype=float)
    n_blocks = len(seq) // n_m
    if n_blocks < 1:
        raise InsufficientDataError(
            f"sequence of {len(seq)} groups gives no block of {n_m}")
    trimmed = seq[:n_blocks * n_m].reshape(n_blocks, n_m)
    means = trimmed.mean(axis=1)
    if np.any(means == 0):
        raise DataError("a block has zero mean count")
    spreads = trimmed.std(axis=1)          # population normalization (1/n_m)
    per_measurement = float(np.mean(spreads / means))
    global_mean = float(trimmed.mean())
    rel = per_measurement / np.sqrt(n_m)
    rel_classical = 1.0 / np.sqrt(global_mean * n_m)
    return PrecisionReport(global_mean, rel, rel_classical, rel / rel_classical,
                           len(seq), n_blocks, n_m)


def precision_improvement(stream: ClickStream, n: int, n_m: int) -> dict:
    """Precision gain of conditioned over reference grouped photocounts.

    ``S_cs`` compares the sequence conditioned on signal clicks (idler
    detections in heralded windows) against the idler reference measured by
    the same detector; ``S_ci`` is the mirror image.  Values below one mean
    the conditioned, sub-Poissonian field measures a mean more precisely.
    """
    seqs = conditioned_sequences(stream)
    policy = GroupingPolicy(n, DISJOINT)

    def report(bits) -> PrecisionReport:
        if len(bits) < n * n_m:
            raise InsufficientDataError(
                f"{len(bits)} windows cannot fill one block of {n_m} groups of {n}")
        return relative_error(grouped_counts(bits, policy), n_m)

    ref_s = report(seqs["reference_s"])
    ref_i = report(seqs["reference_i"])
    cond_on_s = report(seqs["conditioned_i"])
    cond_on_i = report(seqs["conditioned_s"])
    cond_on_s.partial_coverage = len(seqs["conditioned_i"]) < n * n_m * 2
    cond_on_i.partial_coverage = len(seqs["conditioned_s"]) < n * n_m * 2
    return {
        "reference_s": ref_s,
        "reference_i": ref_i,
        "conditioned_on_signal": cond_on_s,
        "conditioned_on_idler": cond_on_i,
        "S_cs": cond_on_s.normalized / ref_i.normalized,
        "S_ci": cond_on_i.normalized / ref_s.normalized,
    }
