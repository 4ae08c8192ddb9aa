"""Joint quasi-distributions of integrated intensities on a grid.

For ordering parameter ``s < 1`` the joint photon-number distribution maps
to a quasi-distribution of the two integrated intensities,

    P_s(W_s, W_i) = 4/(1-s)^2 exp(-2(W_s+W_i)/(1-s))
                    * sum p(n_s, n_i) beta^(n_s+n_i)
                      L_{n_s}(g W_s) L_{n_i}(g W_i),

with ``beta = (s+1)/(s-1)``, ``g = 4/(1-s^2)`` and standard Laguerre
polynomials ``L_n`` (``L_n(0) = 1``).  It may take negative values; that is
the point.  The per-axis factors are evaluated by the three-term Laguerre
recurrence with the sign factor and the exponential damping folded in, which
keeps every intermediate bounded near one for ``s <= 0``.  For ``s > 0`` the
factor ``beta^n`` grows; once it threatens double-precision range the basis
switches to arbitrary-precision evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PHOTON, JointDist
from .errors import DivergentSeriesError, InvalidParameterError

#: Support fraction dropped for the truncation-sensitivity check.
_EDGE_FRACTION = 0.9


@dataclass
class IntensityGrid:
    """Quasi-distribution values on midpoint cells of a rectangular grid."""

    values: np.ndarray
    w_max_s: float
    w_max_i: float
    s: float

    @property
    def dw(self) -> tuple:
        return (self.w_max_s / self.values.shape[0],
                self.w_max_i / self.values.shape[1])

    def centers(self, axis: int) -> np.ndarray:
        n = self.values.shape[axis]
        w = (self.w_max_s, self.w_max_i)[axis]
        return (np.arange(n) + 0.5) * (w / n)


def _basis(n_max: int, w: np.ndarray, s: float) -> np.ndarray:
    """``A[n, g] = beta^n L_n(g_fac w_g) exp(-delta w_g)`` for all orders."""
    beta = (s + 1.0) / (s - 1.0)
    g_fac = 4.0 / (1.0 - s * s)
    delta = 2.0 / (1.0 - s)
    x = g_fac * w
    damp = np.exp(-delta * w)
    out = np.empty((n_max + 1, len(w)))
    out[0] = damp
    if n_max >= 1:
        out[1] = beta * (1.0 - x) * damp
    for n in range(1, n_max):
        out[n + 1] = (beta * (2 * n + 1 - x) * out[n]
                      - n * beta * beta * out[n - 1]) / (n + 1)
    return out


def _basis_mp(n_max: int, w: np.ndarray, s: float, dps: int = 60) -> np.ndarray:
    import mpmath as mp

    with mp.workdps(dps):
        beta = (mp.mpf(s) + 1) / (mp.mpf(s) - 1)
        g_fac = 4 / (1 - mp.mpf(s) ** 2)
        delta = 2 / (1 - mp.mpf(s))
        out = np.empty((n_max + 1, len(w)))
        for gi, wv in enumerate(w):
            x = g_fac * mp.mpf(wv)
            damp = mp.e ** (-delta * mp.mpf(wv))
            prev, cur = damp, beta * (1 - x) * damp
            out[0, gi] = float(prev)
            if n_max >= 1:
                out[1, gi] = float(cur)
            for n in range(1, n_max):
                prev, cur = cur, (beta * (2 * n + 1 - x) * cur
                                  - n * beta * beta * prev) / (n + 1)
                out[n + 1, gi] = float(cur)
    return out


def _needs_mp(n_max: int, s: float, w_max: float) -> bool:
    # beta^n may overflow (s > 0) and the damping seed exp(-2 w/(1-s)) may
    # land deep in the subnormal range; both lose the float64 path.
    if 2.0 * w_max / (1.0 - s) > 600.0:
        return True
    if s <= 0:
        return False
    beta = abs((s + 1.0) / (s - 1.0))
    return n_max * np.log(beta) > 300.0


def default_w_max(d: JointDist, arm: str, s: float) -> float:
    marg = d.marginal(arm)
    return marg.mean() + 10.0 * np.sqrt(marg.var()) + 5.0 * (1.0 - s) + 3.0


def quasi_distribution(p: JointDist, s: float, w_max_s: float | None = None,
                       w_max_i: float | None = None,
                       steps: int = 256) -> IntensityGrid:
    """Evaluate the intensity quasi-distribution of ``p`` at ordering ``s``.

    The grid defaults to ten standard deviations beyond each marginal mean.
    A truncation-sensitivity check recomputes the grid from a reduced photon
    support; disagreement flags an under-truncated input or a too-singular
    ordering.
    """
    if p.kind != PHOTON:
        raise InvalidParameterError("quasi-distribution needs photon numbers")
    if s >= 1:
        raise InvalidParameterError("ordering parameter must satisfy s < 1")
    w_max_s = default_w_max(p, "s", s) if w_max_s is None else w_max_s
    w_max_i = default_w_max(p, "i", s) if w_max_i is None else w_max_i
    ws = (np.arange(steps) + 0.5) * (w_max_s / steps)
    wi = (np.arange(steps) + 0.5) * (w_max_i / steps)
    n_s_max = p.table.shape[0] - 1
    n_i_max = p.table.shape[1] - 1

    build = _basis_mp if _needs_mp(max(n_s_max, n_i_max), s,
                                   max(w_max_s, w_max_i)) else _basis
    a_s = build(n_s_max, ws, s)
    a_i = build(n_i_max, wi, s)
    prefactor = 4.0 / (1.0 - s) ** 2
    values = prefactor * (a_s.T @ p.table @ a_i)

    cut_s = max(1, int(_EDGE_FRACTION * (n_s_max + 1)))
    cut_i = max(1, int(_EDGE_FRACTION * (n_i_max + 1)))
    reduced = prefactor * (a_s[:cut_s].T @ p.table[:cut_s, :cut_i] @ a_i[:cut_i])
    scale = np.abs(values).max()
    edge_tail = p.table[cut_s:, :].sum() + p.table[:, cut_i:].sum()
    shift = np.abs(values - reduced).max()
    if scale > 0 and shift > max(1e-6 * scale, 10.0 * edge_tail * prefactor):
        raise DivergentSeriesError(
            f"support-edge sensitivity {shift / scale:.2e} of the intensity "
            "series; enlarge the photon support or lower s")
    return IntensityGrid(values, w_max_s, w_max_i, s)


def grid_normalization(g: IntensityGrid) -> float:
    dws, dwi = g.dw
    return float(g.values.sum() * dws * dwi)
