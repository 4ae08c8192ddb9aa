"""Maximum-likelihood reconstruction of photon statistics from photocounts.

The estimate is driven to the maximum-likelihood solution by the
expectation-maximization iteration

    F(c_s, c_i)   = f(c_s, c_i) / sum_{n} T_s(c_s, n_s) T_i(c_i, n_i) p(n_s, n_i)
    p(n_s, n_i) <- p(n_s, n_i) * sum_{c} F(c_s, c_i) T_s(c_s, n_s) T_i(c_i, n_i)

i.e. the measured histogram is compared with the forward projection of the
current estimate and the ratio is projected back through the detection
matrices.  Because the matrices are column-stochastic, every iterate is a
probability distribution, and the data log-likelihood never decreases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PHOTOCOUNT, PHOTON, JointDist
from .detection import DetectionMatrix
from .errors import (DataError, InvalidParameterError, KindMismatchError,
                     NumericError)
from .ingest import JointHistogram


@dataclass(frozen=True)
class EmConfig:
    """Stopping rule of a reconstruction (the matrices fix the photon support)."""

    max_iters: int = 10_000
    tol: float = 1e-9

    def __post_init__(self):
        if self.tol <= 0:
            raise InvalidParameterError("tol must be > 0")
        if self.max_iters < 1:
            raise InvalidParameterError("max_iters must be >= 1")


@dataclass
class EmResult:
    """How EM stopped; ``log_likelihood[k]`` is the mean data log-likelihood
    of iterate ``k``, from the uniform start to the returned estimate."""

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


def em_joint(f, t_s: DetectionMatrix, t_i: DetectionMatrix,
             cfg: EmConfig = EmConfig()) -> tuple[JointDist, EmResult]:
    """Reconstruct a joint photon-number distribution from photocounts.

    EM runs from a uniform start.  Click rows and columns past the last
    observed count hold no data and leave the update untouched, so they are
    cut off first.  An iteration that lowers the data log-likelihood by more
    than round-off raises :class:`NumericError`, as EM cannot do so with
    nonnegative detection matrices.
    """
    data = _as_table(f)
    ts = _block(t_s, data.shape[0], "signal")
    ti = _block(t_i, data.shape[1], "idler")
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
    weights = data[observed]
    projected = ts @ p @ ti.T
    history = [float(weights @ np.log(projected[observed]))]
    for it in range(1, cfg.max_iters + 1):
        ratio = np.where(observed, data / np.where(observed, projected, 1.0), 0.0)
        np.matmul(ts.T @ ratio, ti, out=new)
        new *= p
        change = float(np.abs(np.subtract(new, p, out=diff), out=diff).max())
        p, new = new, p
        projected = ts @ p @ ti.T
        history.append(float(weights @ np.log(projected[observed])))
        if history[-1] < history[-2] - 1e-10:
            raise NumericError(f"log-likelihood decreased at iteration {it}")
        if change < cfg.tol:
            break
    # without a break, the last change is not below tol
    return JointDist(p, 0.0, PHOTON), EmResult(change < cfg.tol, it, change,
                                                history)
