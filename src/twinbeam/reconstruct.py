"""Certified maximum-likelihood reconstruction of photon statistics.

The estimate maximizes, over photon-number tables ``p >= 0``, the mean data
log-likelihood of a click table of counts or probabilities, ``f`` being the
table divided by its sum,

    L(p) = sum_j f_j log (A p)_j,
    A[(c_s, c_i), (n_s, n_i)] = T_s(c_s, n_s) T_i(c_i, n_i),

where ``j`` runs over the J observed click cells only.  This is the
Kiefer-Wolfowitz mixture likelihood, which the paper maximizes by
expectation-maximization.  Its convex dual has its variables in the
observed cells alone (Koenker & Mizera, JASA 109, 674 (2014)):

    min  -sum_j f_j log nu_j   subject to   A^T nu <= 1,

with the slack ``z = 1 - A^T nu`` and ``p`` the multipliers of the
constraint; at the optimum ``(A p)_j = f_j / nu_j`` and ``sum p = 1``.
Mehrotra's predictor-corrector interior-point method (SIAM J. Optim. 2, 575
(1992)) solves it from EM's uniform start, with separate primal and dual
step lengths.  Each Newton step solves the J x J system

    (A D A^T + diag(A p / nu)) d_nu = r,    D = p / z,

for the predictor and then the corrector.  The matrix is formed one distinct
signal click value at a time through the Kronecker structure of ``A`` (``A``
itself is never built), so beyond the J x J matrix the memory is that of one
J x (n_max + 1) block; it is scaled to a unit diagonal.  numpy has no
triangular solve that would let both solves share one factor, and an
explicit inverse loses the last digits that the certificate needs, so each
is an LU solve.  Histograms with more than ``MAX_CELLS`` observed cells are
refused rather than given a matrix of gigabytes.

The estimate is the normalized ``p``.  Lindsay's bound
``log max_k (A^T (f / A p))_k`` (Ann. Stat. 11, 86 (1983)) limits the
log-likelihood that any table can still gain over it.  The solver stops at
the first step that brings the bound below ``CERTIFICATE``, so ``converged``
means exactly that the estimate is certified within it; a solve that runs
out of steps returns its last iterate and that iterate's bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import JointDist
from .errors import DataError, InvalidParameterError, NumericError

#: Fraction of the way to the boundary that a step may go; at 0.99 some
#: histograms stall before the bound is certified.
TO_BOUNDARY = 0.9

#: Lindsay bound below which an estimate counts as the maximum-likelihood
#: one: no table is more likely by more than this in mean log-likelihood.
CERTIFICATE = 1e-9

#: Most observed click cells the dense J x J Newton system is built for
#: (128 MB at this size, and an LU copy of it).
MAX_CELLS = 4096


@dataclass
class MlResult:
    """How the solve stopped.  ``log_likelihood`` is the mean data
    log-likelihood of the returned estimate and ``lindsay_bound`` the most
    any table can still gain over it."""

    converged: bool
    newton_steps: int
    lindsay_bound: float
    log_likelihood: float


def _step(x: np.ndarray, dx: np.ndarray) -> float:
    """Largest step in (0, 1] along ``dx`` that keeps ``x`` nonnegative."""
    shrink = float((-dx / x).max())
    return 1.0 if shrink <= 1.0 else 1.0 / shrink


def ml_joint(f: np.ndarray, t_s: np.ndarray, t_i: np.ndarray,
             max_steps: int = 200) -> tuple[JointDist, MlResult]:
    """Reconstruct a joint photon-number distribution from a click table.

    ``f[c_s, c_i]`` is finite and nonnegative: counts or probabilities,
    normalized here.  Only the observed click cells enter; the photon
    support is that of the detection matrices.  At most ``max_steps`` Newton
    steps are taken.
    """
    if max_steps < 1:
        raise InvalidParameterError("max_steps must be >= 1")
    ts, ti = t_s[:f.shape[0]], t_i[:f.shape[1]]
    for label, t, need in zip(("signal", "idler"), (ts, ti), f.shape):
        if len(t) < need:
            raise DataError(f"{label} matrix covers {len(t)} click values, "
                            f"data needs {need}")
    if ts.min() < 0 or ti.min() < 0:
        raise NumericError("a detection matrix has negative entries")
    if not ((f >= 0) & (f < np.inf)).all():
        raise DataError("click table cells must be finite and >= 0")
    rows, cols = np.nonzero(f > 0)
    if rows.size == 0:
        raise DataError("no observed counts to reconstruct from")
    if rows.size > MAX_CELLS:
        raise DataError(f"{rows.size} observed click cells, more than the "
                        f"{MAX_CELLS} the Newton system is built for")
    weights = f[rows, cols] / f.sum()
    # the distinct observed click values of each arm, and each cell's index
    # among them: A's rows are the products S[a_j] x I[b_j]
    rows_s, a = np.unique(rows, return_inverse=True)
    rows_i, b = np.unique(cols, return_inverse=True)
    s, i = ts[rows_s], ti[rows_i]
    # the cells come in row-major order, so those of each signal value are
    # one slice
    first = np.searchsorted(a, np.arange(len(rows_s) + 1))
    diag = np.arange(rows.size)
    grid = np.zeros((len(rows_s), len(rows_i)))

    def forward(p):                 # A p
        return (s @ p @ i.T)[a, b]

    def back(v):                    # A^T v
        grid[a, b] = v
        return s.T @ grid @ i

    h = np.empty((rows.size, rows.size))
    idler = i[b]                    # each cell's idler row

    def fill_normal(d):             # h = A D A^T, one signal value's rows a time
        for c in range(len(rows_s)):
            lo, hi = first[c], first[c + 1]
            # against the cells of signal values >= c, mirrored below:
            # sum_m S[c, m] S[a_k, m] D[m, n], then the idler factors
            right = ((s[c:] * s[c]) @ d)[a[lo:] - c] * idler[lo:]
            h[lo:hi, lo:] = idler[lo:hi] @ right.T
            h[lo:, lo:hi] = h[lo:hi, lo:].T

    # EM's uniform start, and the dual point of its ratios f / A p scaled
    # to leave a slack of at least 1/2
    p = np.full((s.shape[1], i.shape[1]), 1.0 / (s.shape[1] * i.shape[1]))
    fitted = forward(p)
    if fitted.min() <= 0:
        raise DataError(f"{np.count_nonzero(fitted <= 0)} observed click cells "
                        "have zero probability on this photon support")
    nu = weights / fitted
    nu *= 0.5 / back(nu).max()
    z = 1.0 - back(nu)
    for step in range(1, max_steps + 1):
        fitted = forward(p)
        r_dual = fitted - weights / nu
        r_primal = back(nu) + z - 1.0
        d = p / z
        # the log term enters in primal-dual form, nu (A p) = f, whose
        # diagonal (A p) / nu equals f / nu^2 at the optimum but keeps far
        # cells from blocking the step; the symmetric scaling keeps cells
        # whose weights span many decades apart in the solve
        fill_normal(d)
        h[diag, diag] += fitted / nu
        scale = 1.0 / np.sqrt(h[diag, diag])
        h *= scale[:, None]
        h *= scale

        def direction(r_comp):
            rhs = forward(r_comp / z - d * r_primal) - r_dual
            try:
                d_nu = scale * np.linalg.solve(h, scale * rhs)
            except np.linalg.LinAlgError:
                raise NumericError(f"singular Newton system at step {step}") \
                    from None
            d_z = -r_primal - back(d_nu)
            return d_nu, d_z, -(r_comp + p * d_z) / z

        # predictor: the affine-scaling direction
        pz = p * z
        mu = pz.mean()
        d_nu, d_z, d_p = direction(pz)
        a_primal = min(_step(nu, d_nu), _step(z, d_z))
        a_dual = _step(p, d_p)
        mu_aff = ((p + a_dual * d_p) * (z + a_primal * d_z)).mean()
        sigma = (mu_aff / mu) ** 3
        # corrector: the second-order term and centring
        d_nu, d_z, d_p = direction(pz + d_p * d_z - sigma * mu)
        a_primal = min(1.0, TO_BOUNDARY * min(_step(nu, d_nu), _step(z, d_z)))
        a_dual = min(1.0, TO_BOUNDARY * _step(p, d_p))
        nu += a_primal * d_nu
        z += a_primal * d_z
        p += a_dual * d_p
        estimate = p / p.sum()      # p > 0: steps stop short of the boundary
        projected = forward(estimate)
        bound = float(np.log(back(weights / projected).max()))
        if bound < CERTIFICATE:
            break
    if not np.isfinite(bound):
        raise NumericError(f"the interior-point solve ended on a bound of {bound}")
    return JointDist(estimate, 0.0), MlResult(
        bound < CERTIFICATE, step, bound, float(weights @ np.log(projected)))
