"""Maximum-likelihood reconstruction of photon statistics from photocounts.

The estimate is driven to the maximum-likelihood solution by the
expectation-maximization iteration

    F(c_s, c_i)   = f(c_s, c_i) / sum_{n} T_s(c_s, n_s) T_i(c_i, n_i) p(n_s, n_i)
    p(n_s, n_i) <- p(n_s, n_i) * sum_{c} F(c_s, c_i) T_s(c_s, n_s) T_i(c_i, n_i)

i.e. the measured histogram is compared with the forward projection of the
current estimate and the ratio is projected back through the detection
matrices.  Because the matrices are column-stochastic, every iterate is a
probability distribution, and the data log-likelihood never decreases.  The
one-dimensional (conditional) reconstruction runs the same iteration with a
single idler column and a 1x1 identity on the other axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PHOTOCOUNT, PHOTON, JointDist, MarginalDist
from .detection import DetectionMatrix
from .errors import (DataError, EmptyConditionError, InvalidParameterError,
                     KindMismatchError, NumericError)
from .ingest import JointHistogram


@dataclass(frozen=True)
class EmConfig:
    """Stopping rule of a reconstruction (the matrices fix the photon support)."""

    max_iters: int = 10_000
    tol: float = 1e-9
    track_likelihood: bool = False

    def __post_init__(self):
        if self.tol <= 0:
            raise InvalidParameterError("tol must be > 0")
        if self.max_iters < 1:
            raise InvalidParameterError("max_iters must be >= 1")


@dataclass
class EmResult:
    converged: bool
    iterations: int
    final_change: float
    log_likelihood: list


def _as_table(f) -> np.ndarray:
    if isinstance(f, JointHistogram):
        return f.normalized()
    if isinstance(f, JointDist):
        if f.kind != PHOTOCOUNT:
            raise KindMismatchError("reconstruction input must be photocounts")
        return f.table / f.table.sum()
    raise DataError(f"cannot reconstruct from {type(f).__name__}")


def _block(t: DetectionMatrix, c_dim: int, label: str) -> np.ndarray:
    """The first ``c_dim`` click rows of ``t``."""
    if t.entries.shape[0] < c_dim:
        raise DataError(f"{label} matrix covers {t.entries.shape[0]} click values, "
                        f"data needs {c_dim}")
    return t.entries[:c_dim]


def _em(data: np.ndarray, ts: np.ndarray, ti: np.ndarray,
        cfg: EmConfig) -> tuple[np.ndarray, EmResult]:
    """EM iteration for ``data ~ ts @ p @ ti.T`` from a uniform start.

    Click rows and columns past the last observed count hold no data and
    leave the update untouched, so they are cut off first.
    """
    rows, cols = np.nonzero(data > 0)
    if rows.size == 0:
        raise DataError("no observed counts to reconstruct from")
    data = data[:rows.max() + 1, :cols.max() + 1]
    ts, ti = ts[:data.shape[0]], ti[:data.shape[1]]
    p = np.full((ts.shape[1], ti.shape[1]), 1.0 / (ts.shape[1] * ti.shape[1]))
    # Full-size tables are updated in two preallocated buffers: fresh
    # temporaries of a few hundred kB per iteration make the allocator
    # return and re-fault their pages on every pass.
    new, diff = np.empty_like(p), np.empty_like(p)
    observed = data > 0
    history = []
    change = np.inf
    for it in range(1, cfg.max_iters + 1):
        projected = ts @ p @ ti.T
        ratio = np.where(observed, data / np.where(observed, projected, 1.0), 0.0)
        np.matmul(ts.T @ ratio, ti, out=new)
        new *= p
        change = float(np.abs(np.subtract(new, p, out=diff), out=diff).max())
        p, new = new, p
        if cfg.track_likelihood:
            ll = float(data[observed] @ np.log(projected[observed]))
            if history and ll < history[-1] - 1e-10:
                raise NumericError(f"log-likelihood decreased at iteration {it}")
            history.append(ll)
        if change < cfg.tol:
            return p, EmResult(True, it, change, history)
    return p, EmResult(False, cfg.max_iters, change, history)


def em_joint(f, t_s: DetectionMatrix, t_i: DetectionMatrix,
             cfg: EmConfig = EmConfig()) -> tuple[JointDist, EmResult]:
    """Reconstruct a joint photon-number distribution from photocounts."""
    data = _as_table(f)
    p, result = _em(data, _block(t_s, data.shape[0], "signal"),
                    _block(t_i, data.shape[1], "idler"), cfg)
    return JointDist(p, 0.0, PHOTON), result


def em_conditional(f_ci: MarginalDist | np.ndarray, t_i: DetectionMatrix,
                   cfg: EmConfig = EmConfig()) -> tuple[MarginalDist, EmResult]:
    """One-dimensional reconstruction of a conditional photocount column."""
    data = f_ci.probs if isinstance(f_ci, MarginalDist) else np.asarray(f_ci, float)
    data = data / data.sum()
    p, result = _em(data[:, None], _block(t_i, len(data), "idler"),
                    np.ones((1, 1)), cfg)
    return MarginalDist(p[:, 0], 0.0, PHOTON), result


def conditional_histogram(h: JointHistogram, c_s: int) -> MarginalDist:
    """Idler photocount distribution conditioned on a signal column."""
    if not 0 <= c_s < h.counts.shape[0]:
        raise InvalidParameterError(f"column {c_s} outside histogram")
    column = h.counts[c_s, :]
    total = column.sum()
    if total == 0:
        raise EmptyConditionError(f"no events with {c_s} signal clicks")
    return MarginalDist(column / total, 0.0, PHOTOCOUNT)
