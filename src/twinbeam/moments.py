"""Moment tables, ordering transforms and non-classicality quantification.

A moment table is a square array ``m[k, l] = <W_s^k W_i^l>`` of order
``m.shape[0] - 1``.  Normally-ordered intensity moments are the factorial
moments of the counts, ``<W_s^k W_i^l> = <(n_s)_k (n_i)_l>``, read off a
distribution's plain 2-D table in one product with the falling factorials
``(n)_k = n (n-1) ... (n-k+1)``.  They go into moments of any operator
ordering ``s`` through the integer Laguerre-coefficient expansion

    <W^k>_s = sum_m  (k!)^2 / (m!^2 (k-m)!) * t^(k-m) * <W^m>,   t = (1-s)/2,

one lower-triangular matrix per ordering, applied to both axes.  Orderings
compose: the noise of ``t1`` then ``t2`` is the noise of ``t1 + t2``.

A non-classicality identifier (NCI) is an intensity-moment expression that
is negative only for non-classical fields.  Decreasing ``s`` injects
ordering noise that gradually lifts a violated NCI back to zero; the
threshold ``s_th`` where it nullifies gives the non-classicality depth
``tau = (1 - s_th)/2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from .errors import DataError, UsageError, check_size

E_FAMILY = ("E001", "E101", "E111", "E211")
M_FAMILY = ("M1001", "M001001")
#: Single-arm identifiers, read off the signal arm (the table's first axis).
L_FAMILY = ("L11", "L21", "L31", "L41")
IDENTIFIERS = E_FAMILY + M_FAMILY + L_FAMILY


def falling_factorials(n_max: int, order: int) -> np.ndarray:
    """``F[k, n] = (n)_k = n (n-1) ... (n-k+1)``, ``k <= order``, ``n <= n_max``."""
    return np.vstack([np.ones(n_max + 1), np.cumprod(
        np.arange(n_max + 1.0) - np.arange(order)[:, None], axis=0)])


def laguerre_mixing(order: int) -> np.ndarray:
    """``L[k, j] = C(k, j)^2 (k-j)!``, the integer that multiplies ``t^(k-j)
    <W^j>`` in ``<W^k>_s``: a ``(K, K)`` lower-triangular matrix."""
    out = np.zeros((order + 1, order + 1))
    for k, j in zip(*np.tril_indices(order + 1)):
        out[k, j] = comb(k, j) ** 2 * factorial(k - j)
    return out


def _require_order(m: np.ndarray, order: int, what: str) -> None:
    """Refuse a moment table ``m`` of lower order than ``what`` needs."""
    if m.shape[0] - 1 < order:
        raise DataError(f"{what} needs order {order}, table has {m.shape[0] - 1}")


def moments(table: np.ndarray, order: int) -> np.ndarray:
    """Normally-ordered moments ``Fs @ table @ Fi.T`` of a 2-D table (a 1-D
    ``p`` as ``p[:, None]``): falling factorials, nothing cancels."""
    check_size(order, "order")
    f_s, f_i = (falling_factorials(size - 1, order) for size in table.shape)
    return f_s @ table @ f_i.T


def fano_nrp_cov(m: np.ndarray) -> dict:
    """Marginal means and Fano factors, noise-reduction parameter, covariance.

    ``m`` is normally ordered: the second moment of a count is
    ``<x^2> = <(x)_2> + <x>``, and ``<x_s x_i>`` needs no change.
    """
    _require_order(m, 2, "Fano and noise-reduction")
    mean_s, mean_i = m[1, 0], m[0, 1]
    if mean_s <= 0 or mean_i <= 0:
        raise DataError("Fano and noise-reduction need nonzero means")
    second_s, second_i = m[2, 0] + mean_s, m[0, 2] + mean_i
    var_s = second_s - mean_s ** 2
    var_i = second_i - mean_i ** 2
    cov = m[1, 1] - mean_s * mean_i
    return {
        "mean_s": mean_s, "mean_i": mean_i,
        "fano_s": var_s / mean_s,
        "fano_i": var_i / mean_i,
        "nrp": (var_s + var_i - 2 * cov) / (mean_s + mean_i),
        "covariance": m[1, 1] / np.sqrt(second_s * second_i),
    }


def _ordering(m: np.ndarray):
    """``s -> A m A^T`` with ``A[k, j] = L[k, j] t^(k-j)``, ``t = (1 - s)/2``:
    an array of orderings is one batched product, stacked on a last axis."""
    lag = laguerre_mixing(m.shape[0] - 1)
    k = np.arange(len(lag))
    power = np.maximum(k[:, None] - k, 0)       # L is 0 above the diagonal

    def at(s: float | np.ndarray) -> np.ndarray:
        t = (1.0 - np.asarray(s, dtype=float)) / 2.0
        if (t < 0).any():
            raise UsageError("ordering parameter must satisfy s <= 1")
        a = lag * t[..., None, None] ** power       # one A per ordering
        out = a @ m @ np.swapaxes(a, -1, -2)
        return np.moveaxis(out, 0, -1) if t.ndim else out
    return at


def to_s_ordered(m: np.ndarray, s: float | np.ndarray) -> np.ndarray:
    """Intensity moments at operator ordering ``s`` (``s = 1`` is a no-op).

    ``m`` is a table at any ordering ``s0``; the result is at ordering
    ``s0 + s - 1``, since ``t = (1 - s)/2`` adds.  An array of orderings adds
    a last axis to the table, one per ordering.
    """
    return _ordering(m)(s)


def _identifier_terms(w: np.ndarray, identifier: str) -> list:
    """Signed summands of one identifier (their absolute sum sets its scale).

    ``Ejk1`` is ``<W_s^j W_i^k (W_s - W_i)^2>``, of order ``j + k + 2``;
    ``Lk1`` is ``<W_s^(k+1)> - <W_s^k><W_s>``, of order ``k + 1``; the two M
    identifiers are of order 2.
    """
    if identifier not in IDENTIFIERS:
        raise UsageError(f"unknown identifier {identifier!r}")
    j, k = int(identifier[1]), int(identifier[-2])      # Ejk1, Lk1
    _require_order(w, {"E": j + k + 2, "M": 2, "L": k + 1}[identifier[0]],
                   "identifier")
    if identifier[0] == "E":
        return [w[j + 2, k], w[j, k + 2], -2 * w[j + 1, k + 1]]
    if identifier[0] == "L":
        return [w[k + 1, 0], -w[k, 0] * w[1, 0]]
    if identifier == "M1001":
        return [w[2, 0] * w[0, 2], -w[1, 1] ** 2]
    return [w[2, 0] * w[0, 2], 2 * w[1, 1] * w[1, 0] * w[0, 1],
            -w[1, 1] ** 2, -w[2, 0] * w[0, 1] ** 2,
            -w[1, 0] ** 2 * w[0, 2]]


def nci_value(m: np.ndarray, identifier: str) -> float:
    """Evaluate one non-classicality identifier; negative flags non-classicality."""
    return float(sum(_identifier_terms(m, identifier)))


@dataclass
class NcdResult:
    """Outcome of a non-classicality depth determination.

    ``nonclassical`` holds when ``value_at_normal_ordering`` is below
    ``-noise_floor``, the round-off bound of the identifier.  The fields are
    the entries of the ``ncd`` command's JSON report.
    """

    tau: float
    s_threshold: float
    nonclassical: bool
    value_at_normal_ordering: float
    noise_floor: float
    saturated: bool = False
    multiple_roots: bool = False


#: Bisection stops once the bracket is this small.
_S_RESOLUTION = 1e-6


def ncd(m: np.ndarray, identifier: str) -> NcdResult:
    """Non-classicality depth of one identifier via threshold search in ``s``.

    ``m`` is normally ordered, so the identifier's value at ``s = 1`` is read
    off it directly.  A violation is scanned over 64 orderings with s in
    [-1, 1] in one batched product, and the sign change nearest ``s = 1``
    is bisected down to ``1e-6``.  A violation persisting at ``s = -1`` is
    reported saturated with ``tau = 1`` rather than extrapolated.
    """
    # a violation only counts if it clears the round-off floor of the
    # expression: structurally cancelled cases are classical.  Each moment
    # carries a few ulps of relative error; only the identifier's own signed
    # terms cancel, as the third-order ones do exactly on tiny supports, so
    # the floor is a small multiple of their magnitudes
    terms = _identifier_terms(m, identifier)
    v1 = float(sum(terms))
    floor = 1e-13 * float(sum(abs(t) for t in terms))
    if not v1 < -floor:
        return NcdResult(0.0, 1.0, False, v1, floor)

    ordered = _ordering(m)
    grid = np.linspace(1.0, -1.0, 64)
    scan = sum(_identifier_terms(ordered(grid[1:]), identifier))
    vals = [v1, *scan]
    sign_changes = [i for i in range(len(grid) - 1)
                    if vals[i] < -floor <= vals[i + 1]]
    if not sign_changes:
        return NcdResult(1.0, -1.0, True, v1, floor, saturated=True)

    lo_i = sign_changes[0]
    hi, lo = grid[lo_i], grid[lo_i + 1]      # nci(hi) < -floor <= nci(lo)
    while hi - lo > _S_RESOLUTION:
        mid = 0.5 * (hi + lo)
        if nci_value(ordered(mid), identifier) < -floor:
            hi = mid
        else:
            lo = mid
    s_th = 0.5 * (hi + lo)
    return NcdResult((1.0 - s_th) / 2.0, s_th, True, v1, floor,
                     multiple_roots=len(sign_changes) > 1)
