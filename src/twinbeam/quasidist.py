"""Joint quasi-distributions of integrated intensities on a grid.

For ordering parameter ``s < 1`` the joint photon-number distribution maps
to a quasi-distribution of the two integrated intensities,

    P_s(W_s, W_i) = 4/(1-s)^2 exp(-2(W_s+W_i)/(1-s))
                    * sum p(n_s, n_i) beta^(n_s+n_i)
                      L_{n_s}(g W_s) L_{n_i}(g W_i),

with ``beta = (s+1)/(s-1)``, ``g = 4/(1-s^2)`` and standard Laguerre
polynomials ``L_n`` (``L_n(0) = 1``).  It may take negative values; that is
the point.  At ``s = -1``, the Husimi Q function, ``beta^n L_n(g W)`` tends
to ``W^n/n!``.  The per-axis factors are evaluated by the three-term Laguerre
recurrence, written in ``beta`` and ``delta = 2/(1-s)`` alone (``beta g =
-delta^2``) with the sign factor and the exponential damping folded in, which
keeps every intermediate bounded near one for ``s <= 0``; each grid column
keeps its power of two apart, so the damping and ``beta^n`` leave double
range only where the values do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, UsageError, check_size

#: Support fraction dropped for the truncation-sensitivity check.
_EDGE_FRACTION = 0.9


@dataclass
class IntensityGrid:
    """Quasi-distribution values on midpoint cells of a rectangular grid; a
    computed grid keeps its checks' values and limits, a read one None."""

    values: np.ndarray
    w_max_s: float
    w_max_i: float
    s: float
    edge_sensitivity: float | None = None
    edge_limit: float | None = None
    mass_window: tuple[float, float] | None = None

    @property
    def dw(self) -> tuple:
        return (self.w_max_s / self.values.shape[0],
                self.w_max_i / self.values.shape[1])


def _basis(n_max: int, w: np.ndarray, s: float) -> np.ndarray:
    """``A[n, g] = beta^n L_n(g_fac w_g) exp(-delta w_g)`` for all orders.

    The recurrence runs from ``L_{-1} = 0`` on mantissas, each column's power
    of two ``e`` kept apart: seeded where ``exp(-delta w)`` is not a normal
    float, then moved by exact shifts, so rows in double range are bit for bit
    those of the plain recurrence.
    """
    beta = (s + 1.0) / (s - 1.0)
    delta = 2.0 / (1.0 - s)
    x = delta * delta * w                   # -beta g_fac w, finite at s = -1
    e = np.where(delta * w < 700.0, 0, -delta * w // np.log(2)).astype(int)
    prev, cur = np.zeros_like(x), np.exp(-delta * w - e * np.log(2))
    out = np.empty((n_max + 1, len(w)))
    for n in range(n_max + 1):
        out[n] = np.ldexp(cur, e)
        prev, cur = cur, ((beta * (2 * n + 1) + x) * cur
                          - n * beta * beta * prev) / (n + 1)
        _, k = np.frexp(np.maximum(np.abs(prev), np.abs(cur)))
        prev, cur, e = np.ldexp(prev, -k), np.ldexp(cur, -k), e + k
    return out


def default_w_max(table: np.ndarray, arm: str, s: float) -> float:
    """Grid edge ten standard deviations past the mean of one arm's marginal."""
    probs = table.sum(axis=1 if arm == "s" else 0)
    n = np.arange(len(probs))
    mean = float(n @ probs)
    var = float((n - mean) ** 2 @ probs)
    return mean + 10.0 * np.sqrt(var) + 5.0 * (1.0 - s) + 3.0


def quasi_distribution(table: np.ndarray, s: float, w_max: float | None = None,
                       steps: int = 256) -> IntensityGrid:
    """Evaluate the intensity quasi-distribution of a photon table at ``s``.

    ``table[n_s, n_i]`` holds the joint photon-number probabilities.  Both
    axes run to ``w_max``; without it, each axis reaches ten standard
    deviations beyond its marginal mean.  A check recomputes the grid from a
    reduced photon support, keeping the relative shift as ``edge_sensitivity``
    (None once read from a file): it flags a series that grows at the
    support's edge, as at a too-singular ordering, and the dropped mass
    excuses the shift it causes.  A grid that holds less than half of the
    table's mass, as near ``s = 1`` where the damping underflows on every
    cell, or more than twice it, as a coarse grid on a peaked high-``s``
    series, raises; an all-zero table gives a zero grid.
    """
    if not (s < 1 and np.isfinite(s * s)):      # NaN fails s < 1
        raise UsageError("ordering parameter must satisfy s < 1, "
                         f"with s^2 in double range; got {s!r}")
    check_size(steps, "steps")
    if w_max is not None and not 0 < w_max < np.inf:     # NaN fails too
        raise UsageError(f"w_max must be finite and > 0, got {w_max!r}")
    w_max_s = default_w_max(table, "s", s) if w_max is None else w_max
    w_max_i = default_w_max(table, "i", s) if w_max is None else w_max
    ws = (np.arange(steps) + 0.5) * (w_max_s / steps)
    wi = (np.arange(steps) + 0.5) * (w_max_i / steps)
    n_s_max = table.shape[0] - 1
    n_i_max = table.shape[1] - 1

    prefactor = 4.0 / (1.0 - s) ** 2
    cut_s = max(1, int(_EDGE_FRACTION * (n_s_max + 1)))
    cut_i = max(1, int(_EDGE_FRACTION * (n_i_max + 1)))
    # values beyond double range overflow quietly: the check below reports them
    with np.errstate(over="ignore", invalid="ignore"):
        a_s = _basis(n_s_max, ws, s)
        a_i = _basis(n_i_max, wi, s)
        values = prefactor * (a_s.T @ table @ a_i)
        reduced = prefactor * (a_s[:cut_s].T @ table[:cut_s, :cut_i]
                               @ a_i[:cut_i])
        scale = np.abs(values).max()
        shift = np.abs(values - reduced).max()
    edge_tail = table[cut_s:, :].sum() + table[:, cut_i:].sum()
    if not np.isfinite([scale, shift]).all():
        raise NumericError("the intensity series leaves double range; "
                           "shrink the photon support or lower s")
    sensitivity = float(shift / scale) if scale > 0 else 0.0
    allowed = max(1e-6 * scale, 10.0 * edge_tail * prefactor)
    if scale > 0 and shift > allowed:
        raise NumericError(
            f"support-edge sensitivity {sensitivity:.2e} of the intensity "
            "series; enlarge the photon support or lower s")
    mass = float(table.sum())
    grid = IntensityGrid(values, w_max_s, w_max_i, s, sensitivity,
                         float(allowed / scale) if scale > 0 else None,
                         (0.5 * mass, 2.0 * mass))
    norm = grid_normalization(grid)
    if not grid.mass_window[0] <= norm <= grid.mass_window[1]:
        raise NumericError(
            f"the grid holds {norm:.3g} of the table's mass {mass:.3g}; "
            "lower s, or raise the steps or the grid edge")
    return grid


def grid_normalization(g: IntensityGrid) -> float:
    dws, dwi = g.dw
    return float(g.values.sum() * dws * dwi)
