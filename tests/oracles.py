"""Reference implementations used only by the tests.

Each one is an independent, slower route to a number the package computes
another way:

* the textbook alternating sum of the detection matrix, evaluated at any
  precision with mpmath (the package uses the all-positive occupancy
  recursion);
* the detection matrix in two stages: the occupancy chain from zero marked
  pixels, then a binomial mixing matrix for the dark clicks (the package
  starts one chain from the dark-count law);
* the whole compound click table of ``n`` grouped windows as a four-outcome
  multinomial, cell by cell in log space, and the single-window table it
  starts from (the package takes moments and post-selection statistics of
  grouped clicks in closed form);
* direct two-dimensional convolution of joint distributions;
* the forward photocount model ``T_s @ p @ T_i.T``: the single-window click
  distribution through the detection matrices, and the whole click table of
  the genuine beam (the package folds the falling factorials into the
  matrices and forms no click table);
* moments of whole compound click tables, against the closed-form
  grouped-click moments;
* raw counting moments, and the normally-ordered ones from them through
  signed Stirling numbers of the first kind, and back through the second
  kind (the package takes the factorial moments directly from falling
  factorials, a sum of nonnegative terms that does not cancel);
* the photon-level drift moments, a closed form to hold the simulated pump
  drift against;
* the joint photon distribution of a compound beam, and the idler photon
  distribution heralded by ``c_s`` signal clicks as convolution powers of
  single-window tables (the package takes the heralded mean and variance
  from derivatives of the PGF);
* the Laguerre basis of the intensity quasi-distribution, one grid point
  at a time in mpmath arithmetic (the package runs one float64 recurrence
  with each grid column's power of two kept apart);
* cell midpoints and Riemann-sum intensity moments of a quasi-distribution
  grid;
* the change of operator ordering as one matrix product ``A @ raw @ A.T``
  per ordering, with ``A`` built as a list (the package forms each table's
  polynomial in ``t = (1 - s)/2`` once and evaluates it).

It also keeps the paper's reconstruction algorithm, expectation-maximization
of the joint photon-number distribution, against whose likelihood the
package's certified interior-point solve is held, and the analyses that
only the tests run: the one-dimensional reconstruction of the idler
photocounts heralded by one signal column (the joint EM with a single idler
column), and the window-shift correlation of a click stream with its moving
average, which shows the pump drift's plateau.

One-dimensional distributions, the marginals and heralded conditionals that
only the tests examine, are a ``MarginalDist`` with its mean, variance and
Fano factor (the package passes such laws as plain arrays).  The click
tables of these oracles ride in a ``JointDist`` like photon tables, untagged:
the package makes no click table, and its jdist files hold photon tables only.

The precision report of the metrology is kept as it was computed in memory:
both click sequences and both conditioned sequences built whole, grouped
whole and cut into blocks (the package reads the stream chunk by chunk and
keeps only each block's ratio and count sum).

Click streams held whole are the tests' too: ``stream_of`` serves an array of
window codes in chunks of any size through the package's chunked path, and
``codes_of`` joins the chunks of any stream back into one array.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import signal

from twinbeam import models
from twinbeam.core import JointDist, TwbParams, joint_twb
from twinbeam.detection import DetectorSpec, _log_factorials, detection_matrix
from twinbeam.errors import (DataError, InsufficientDataError,
                             InvalidParameterError, NumericError,
                             StreamTooShortError)
from twinbeam.ingest import (DISJOINT, GroupingPolicy, JointHistogram,
                             grouped_counts)
from twinbeam.metrology import PrecisionReport
from twinbeam.quasidist import IntensityGrid
from twinbeam.simulate import CHUNK, ClickStream


@dataclass
class MarginalDist:
    """Truncated one-dimensional counting distribution."""

    probs: np.ndarray
    tail_mass: float

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)

    def mean(self) -> float:
        return float(np.arange(len(self.probs)) @ self.probs)

    def var(self) -> float:
        n = np.arange(len(self.probs))
        m = self.mean()
        return float((n - m) ** 2 @ self.probs)

    def fano(self) -> float:
        return self.var() / self.mean()


def marginal(d: JointDist, arm: str) -> MarginalDist:
    """The signal (``"s"``) or idler marginal of a joint distribution."""
    axis = 1 if arm == "s" else 0
    return MarginalDist(d.table.sum(axis=axis), d.tail_mass)


class SupportViolationError(DataError):
    """A distribution has probability mass outside the required support."""


class ZeroProbabilityConditionError(DataError):
    """The conditioning outcome has (numerically) zero probability."""


class EmptyConditionError(DataError):
    """A histogram column used for conditioning contains no events."""


class DegenerateStreamError(DataError):
    """A click stream carries no clicks where some are required."""


def _build_extended(spec: DetectorSpec, n_max: int, bits: int) -> np.ndarray:
    """Direct evaluation of the alternating sum at ``bits`` of precision."""
    import mpmath as mp

    N, eta, dark = spec.pixels, spec.eta, spec.dark
    out = np.zeros((N + 1, n_max + 1))
    with mp.workprec(bits):
        one_m_dark = mp.mpf(1) - mp.mpf(dark)
        bases = [mp.mpf(1) - mp.mpf(eta) * m / N for m in range(N + 1)]
        for c in range(N + 1):
            prefactor = mp.binomial(N, c)
            for n in range(n_max + 1):
                acc = mp.mpf(0)
                for l in range(c + 1):
                    m = N - c + l
                    term = (mp.binomial(c, l) * one_m_dark ** m * bases[m] ** n)
                    acc = acc - term if l % 2 else acc + term
                out[c, n] = float(prefactor * acc)
    return out


def two_stage_matrix(spec: DetectorSpec, n_max: int) -> np.ndarray:
    """``B @ Q``: dark-click mixing ``B`` times the photon occupancy table ``Q``.

    ``Q[j, n]`` is the chance that ``n`` photons mark exactly ``j`` pixels,
    grown one photon at a time from zero marked pixels; ``B[c, j]`` is the
    chance that the other ``pixels - j`` pixels add ``c - j`` dark clicks.
    """
    N, eta, dark = spec.pixels, spec.eta, spec.dark
    jdim = min(N, n_max) + 1
    j = np.arange(jdim, dtype=float)
    stay = 1.0 - eta + eta * j / N
    grow = eta * (N - (j - 1.0)) / N
    Q = np.zeros((jdim, n_max + 1))
    Q[0, 0] = 1.0
    for n in range(1, n_max + 1):
        Q[:, n] = Q[:, n - 1] * stay
        Q[1:, n] += Q[:-1, n - 1] * grow[1:]
    c, jj = np.indices((N + 1, jdim))
    valid = c >= jj
    k, m = c[valid] - jj[valid], N - jj[valid]
    lf = _log_factorials(N)
    B = np.zeros((N + 1, jdim))
    if dark == 0.0:
        B[:jdim] = np.eye(jdim)
    else:
        B[valid] = np.exp(lf[m] - lf[k] - lf[m - k]
                          + k * np.log(dark) + (m - k) * np.log1p(-dark))
    return B @ Q


def compound_photocounts(f_w: JointDist, n: int) -> JointDist:
    """Photocount distribution of ``n`` independently detected weak beams.

    The per-window distribution must live on {0,1} x {0,1}; the compound
    table is then a four-outcome multinomial, evaluated cell by cell in log
    space.  All contributions are positive, so each cell is accurate to
    round-off and the support is exactly ``0..n`` per axis.
    """
    if n < 1:
        raise InvalidParameterError("group size must be >= 1")
    table = f_w.table
    if table.shape[0] > 2 or table.shape[1] > 2:
        if np.abs(table[2:, :]).sum() + np.abs(table[:, 2:]).sum() > 1e-15:
            raise SupportViolationError(
                "per-window distribution has mass outside {0,1}x{0,1}")
        table = table[:2, :2]
    w = np.zeros((2, 2))
    w[:table.shape[0], :table.shape[1]] = table

    # log(0) -> large negative finite value: exp underflows to exactly zero
    # while 0 * log stays zero, keeping the vectorized sum NaN-free.
    logw = np.full((2, 2), -1e9)
    pos = w > 0
    logw[pos] = np.log(w[pos])

    c_cap = _support_cap(w[1, 0] + w[1, 1], n)
    r_cap = _support_cap(w[0, 1] + w[1, 1], n)
    out = np.zeros((n + 1, n + 1))
    lf = _log_factorials(n)
    # k coincidences plus a signal-only and b idler-only clicks fill cell
    # (k + a, k + b); only cells with rest = n - k - a - b >= 0 are reachable.
    a = np.arange(c_cap + 1)[:, None]
    b = np.arange(r_cap + 1)[None, :]
    acc = np.zeros((c_cap + 1, r_cap + 1))
    for k in range(min(c_cap, r_cap) + 1):
        ak, bk = a[:c_cap + 1 - k], b[:, :r_cap + 1 - k]
        rest = n - k - ak - bk
        valid = rest >= 0
        lp = (lf[n] - lf[k] - lf[ak] - lf[bk] - lf[np.where(valid, rest, 0)]
              + k * logw[1, 1] + ak * logw[1, 0]
              + bk * logw[0, 1] + rest * logw[0, 0])
        acc[k:, k:] += np.exp(np.where(valid, lp, -np.inf))
    out[:c_cap + 1, :r_cap + 1] = acc
    tail = min(1.0, n * f_w.tail_mass) + max(0.0, 1.0 - out.sum())
    return JointDist(out, tail)


def _support_cap(p: float, n: int) -> int:
    """Index beyond which binomial(n, p) mass underflows double precision."""
    if p <= 0:
        return 0
    if p >= 1:
        return n
    mean = n * p
    spread = 42.0 * np.sqrt(max(mean * (1 - p), 1.0)) + 60.0
    return min(n, int(np.ceil(mean + spread)))


def window_click_dist(params: TwbParams, spec_s: DetectorSpec,
                      spec_i: DetectorSpec) -> JointDist:
    """Exact 2x2 joint click distribution of one detection window."""
    p_s, p_i, p11 = models.window_click_probs(params, spec_s, spec_i)
    table = np.array([[1.0 - p_s - p_i + p11, p_i - p11],
                      [p_s - p11, p11]])
    return JointDist(table, 0.0)


def compound_click_dist(params: TwbParams, spec_s: DetectorSpec,
                        spec_i: DetectorSpec, n: int) -> JointDist:
    """Joint click distribution of ``n`` grouped windows (compound beam)."""
    return compound_photocounts(window_click_dist(params, spec_s, spec_i), n)


def convolve_joint(a: JointDist, b: JointDist) -> JointDist:
    """Distribution of the cell-wise sum of two independent joint counts."""
    big = a.table.size * b.table.size > 1e8
    table = signal.fftconvolve(a.table, b.table) if big else \
        signal.convolve2d(a.table, b.table)
    # FFT round-off may leave tiny negatives; anything worse is a real bug.
    if table.min() < -1e-12:
        raise InvalidParameterError("convolution produced negative mass")
    np.clip(table, 0.0, None, out=table)
    tail = min(1.0, a.tail_mass + b.tail_mass)
    return JointDist(table, tail)


def self_convolve(d: JointDist, n: int) -> JointDist:
    """``n``-fold convolution of a joint distribution with itself.

    Uses binary exponentiation, so only ``O(log n)`` convolutions run.
    """
    if n < 1:
        raise InvalidParameterError("fold count must be >= 1")
    result = None
    power = d
    k = n
    while k:
        if k & 1:
            result = power if result is None else convolve_joint(result, power)
        k >>= 1
        if k:
            power = convolve_joint(power, power)
    return result


def forward_photocounts(p: JointDist, spec_s: DetectorSpec,
                        spec_i: DetectorSpec) -> JointDist:
    """Joint photocount distribution of a photon-number distribution."""
    t_s = detection_matrix(spec_s, p.table.shape[0] - 1)
    t_i = detection_matrix(spec_i, p.table.shape[1] - 1)
    f = t_s.entries @ p.table @ t_i.entries.T
    return JointDist(f, p.tail_mass)


def genuine_click_dist(params: TwbParams, spec_s: DetectorSpec,
                       spec_i: DetectorSpec, n: int) -> JointDist:
    """Photocounts of the equally strong genuine beam on ``n``-pixel detectors.

    The whole ``(n + 1)^2`` table whose factorial moments
    ``models.genuine_click_moments`` gives.
    """
    return forward_photocounts(joint_twb(params.scaled(n)),
                               DetectorSpec(spec_s.eta, spec_s.dark, n),
                               DetectorSpec(spec_i.eta, spec_i.dark, n))


def window_forward_dist(params: TwbParams, spec_s: DetectorSpec,
                        spec_i: DetectorSpec) -> JointDist:
    """Single-window click distribution via the detection-matrix route.

    Numerically redundant with :func:`window_click_dist`; kept as the
    independent cross-check of the truncated forward model.
    """
    return forward_photocounts(joint_twb(params), spec_s, spec_i)


def compound_click_moments_by_table(params: TwbParams, spec_s: DetectorSpec,
                                    spec_i: DetectorSpec, n: int, order: int,
                                    k: float = 0.0) -> np.ndarray:
    """Factorial click moments of ``n`` grouped windows from whole tables.

    Per pump factor of the 201-node Gauss-Hermite rule the ``n``-window
    histogram is composed with ``compound_photocounts``; its raw moments are
    averaged over the factors and turned into factorial ones by Stirling
    numbers.  Same signature as
    ``models.compound_click_moments``, which it can stand in for.
    """
    factors, weights = np.ones(1), np.ones(1)
    if k > 0:
        x, w = np.polynomial.hermite_e.hermegauss(201)
        factors, weights = np.maximum(0.0, 1.0 + np.sqrt(k) * x), w / w.sum()
    raw = np.zeros((order + 1, order + 1))
    for factor, weight in zip(factors, weights):
        p_s, p_i, p11 = models.window_click_probs(params, spec_s, spec_i, factor)
        window = JointDist(np.array([[1.0 - p_s - p_i + p11, p_i - p11],
                                     [p_s - p11, p11]]), 0.0)
        raw += weight * raw_moments(compound_photocounts(window, n).table,
                                    order)
    return to_intensity_moments(raw)


def pump_moment_model(params: TwbParams, k: float, n: int) -> dict:
    """First two moments of the grouped paired intensity under pump drift.

    For ``n`` grouped windows the common-mode fluctuations leave the mean
    untouched and add ``k n(n-1) <W_p^w>^2`` to the second moment, with
    ``<W_p^w>`` the per-window paired mean.
    """
    if n < 1:
        raise InvalidParameterError("group size must be >= 1")
    w_window = params.m_p * params.b_p
    mean = n * w_window
    var = n * params.m_p * params.b_p ** 2
    second = var + mean ** 2 + k * n * (n - 1) * w_window ** 2
    return {"w_all_mean": mean, "w_all_sq": second}


def compound_photon_dist(params: TwbParams, n: int) -> JointDist:
    """Joint photon-number distribution of ``n`` combined constituting beams."""
    return joint_twb(params.scaled(n))


def convolve_power_1d(p: np.ndarray, n: int) -> np.ndarray:
    """``n``-fold discrete self-convolution of a 1-D weight vector."""
    if n == 0:
        return np.array([1.0])
    result = None
    power = np.asarray(p, dtype=float)
    k = n
    while k:
        if k & 1:
            result = power if result is None else np.convolve(result, power)
        k >>= 1
        if k:
            power = np.convolve(power, power)
    return result


def conditional_photon_dist(p_w: JointDist, spec_s: DetectorSpec, c_s: int,
                            n: int) -> MarginalDist:
    """Idler photon distribution after ``c_s`` signal clicks in ``n`` windows.

    Per window the joint weight of ``n_i`` idler photons with click outcome
    ``c`` is ``w_c(n_i) = sum_{n_s} T_s(c, n_s; 1) p_w(n_s, n_i)``.  All
    click patterns summing to ``c_s`` contribute the same convolution
    product, so the compound conditional is the normalized
    ``c_s``-fold convolution of ``w_1`` with the ``(n - c_s)``-fold
    convolution of ``w_0``.
    """
    if spec_s.pixels != 1:
        raise InvalidParameterError("conditioning detector must be a single pixel")
    if not 0 <= c_s <= n:
        raise InvalidParameterError(f"need 0 <= c_s <= {n}, got {c_s}")
    t_s = detection_matrix(spec_s, p_w.table.shape[0] - 1)
    w0 = t_s.entries[0] @ p_w.table
    w1 = t_s.entries[1] @ p_w.table
    # log of C(n, c_s) s1^c_s s0^(n - c_s); huge n must not overflow
    log_prob = math.lgamma(n + 1) - math.lgamma(c_s + 1) - math.lgamma(n - c_s + 1)
    for count, mass in ((c_s, w1.sum()), (n - c_s, w0.sum())):
        if count:
            log_prob += count * math.log(mass) if mass > 0 else -math.inf
    if not log_prob >= math.log(1e-300):
        raise ZeroProbabilityConditionError(
            f"conditioning on {c_s} clicks in {n} windows has probability "
            f"{math.exp(log_prob)}")
    weights = np.convolve(convolve_power_1d(w1, c_s),
                          convolve_power_1d(w0, n - c_s))
    total = weights.sum()
    return MarginalDist(weights / total, 0.0)


def grid_centers(g: IntensityGrid, axis: int) -> np.ndarray:
    """Midpoints of the grid's cells along ``axis`` (0 signal, 1 idler)."""
    n = g.values.shape[axis]
    w = (g.w_max_s, g.w_max_i)[axis]
    return (np.arange(n) + 0.5) * (w / n)


def grid_moments(g: IntensityGrid, k: int, l: int) -> float:
    """Riemann-sum intensity moment ``<W_s^k W_i^l>`` of the grid."""
    dws, dwi = g.dw
    ws = grid_centers(g, 0) ** k
    wi = grid_centers(g, 1) ** l
    return float(ws @ g.values @ wi * dws * dwi)


def raw_moments(table: np.ndarray, order: int) -> np.ndarray:
    """Raw counting moments ``<x_s^k x_i^l>`` of a 2-D distribution table,
    ``V_s.T @ table @ V_i``.

    ``V[n, k] = n^k`` is the Vandermonde matrix of each arm's counts.
    """
    vs, vi = (np.vander(np.arange(size, dtype=float), order + 1,
                        increasing=True) for size in table.shape)
    return vs.T @ table @ vi


def stirling_first(order: int) -> list:
    """Signed Stirling numbers of the first kind, ``s[k][m]`` as exact ints."""
    s = [[0] * (order + 1) for _ in range(order + 1)]
    s[0][0] = 1
    for k in range(1, order + 1):
        for m in range(k + 1):
            s[k][m] = (s[k - 1][m - 1] if m else 0) - (k - 1) * s[k - 1][m]
    return s


def stirling_second(order: int) -> list:
    """Stirling numbers of the second kind, ``S[k][m]`` as exact ints."""
    s = [[0] * (order + 1) for _ in range(order + 1)]
    s[0][0] = 1
    for k in range(1, order + 1):
        for m in range(1, k + 1):
            s[k][m] = s[k - 1][m - 1] + m * s[k - 1][m]
    return s


def _transform_2d(raw, matrix):
    """Apply one lower-triangular transform to both axes: ``A @ raw @ A.T``.

    Object-dtype (``Fraction``) tables get an object matrix and stay exact.
    """
    a = np.array(matrix, dtype=object if raw.dtype == object else None)
    return a @ raw @ a.T


def to_intensity_moments(raw: np.ndarray) -> np.ndarray:
    """Normally-ordered (factorial) moments from raw counting moments.

    ``(x)_k = sum_m s[k][m] x^m`` with signed Stirling numbers: an
    alternating sum, which cancels in floating point.
    """
    return _transform_2d(raw, stirling_first(raw.shape[0] - 1))


def from_intensity_moments(m: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_intensity_moments` (Stirling second kind)."""
    return _transform_2d(m, stirling_second(m.shape[0] - 1))


def to_s_ordered_by_matrix(m: np.ndarray, s) -> np.ndarray:
    """Intensity moments at ordering ``s``: ``A @ m @ A.T`` per ordering.

    ``A[k, a] = (k!)^2 / (a!^2 (k-a)!) t^(k-a)`` with ``t = (1 - s)/2``.  An
    array of orderings stacks one table per ordering along a last axis, as
    ``moments.to_s_ordered`` does.
    """
    f = math.factorial
    order = m.shape[0] - 1
    tables = []
    for t in np.atleast_1d((1.0 - np.asarray(s, dtype=float)) / 2.0):
        weighted = [[f(k) ** 2 // (f(a) ** 2 * f(k - a)) * t ** (k - a)
                     if a <= k else 0.0 for a in range(order + 1)]
                    for k in range(order + 1)]
        tables.append(_transform_2d(m, weighted))
    return tables[0] if np.ndim(s) == 0 else np.stack(tables, axis=-1)


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


@dataclass(frozen=True)
class EmConfig:
    """Stopping rule of an EM reconstruction (the matrices fix the support)."""

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


def em_joint(f: np.ndarray, t_s: np.ndarray, t_i: np.ndarray,
             cfg: EmConfig = EmConfig()) -> tuple[JointDist, EmResult]:
    """Expectation-maximization reconstruction of the joint photon numbers.

    The iteration of the paper,

        F(c_s, c_i)   = f(c_s, c_i) / sum_n T_s(c_s, n_s) T_i(c_i, n_i) p(n_s, n_i)
        p(n_s, n_i) <- p(n_s, n_i) sum_c F(c_s, c_i) T_s(c_s, n_s) T_i(c_i, n_i),

    from a uniform start, until no cell moves by ``cfg.tol``; ``f`` is the
    click table of counts or probabilities, divided by its sum.  Click rows
    and columns past the last observed count hold no data and are cut off
    first.  An iteration that lowers the data log-likelihood by more than
    round-off raises :class:`NumericError`, as EM cannot do so with
    nonnegative detection matrices.
    """
    for label, t, need in zip(("signal", "idler"), (t_s, t_i), f.shape):
        if len(t) < need:
            raise DataError(f"{label} matrix covers {len(t)} click values, "
                            f"data needs {need}")
    rows, cols = np.nonzero(f > 0)
    if rows.size == 0:
        raise DataError("no observed counts to reconstruct from")
    data = f[:rows.max() + 1, :cols.max() + 1] / f.sum()
    ts, ti = t_s[:data.shape[0]], t_i[:data.shape[1]]
    p = np.full((ts.shape[1], ti.shape[1]), 1.0 / (ts.shape[1] * ti.shape[1]))
    observed = data > 0
    weights = data[observed]
    projected = ts @ p @ ti.T
    history = [float(weights @ np.log(projected[observed]))]
    for it in range(1, cfg.max_iters + 1):
        ratio = np.where(observed, data / np.where(observed, projected, 1.0), 0.0)
        new = (ts.T @ ratio @ ti) * p
        change = float(np.abs(new - p).max())
        p = new
        projected = ts @ p @ ti.T
        history.append(float(weights @ np.log(projected[observed])))
        if history[-1] < history[-2] - 1e-10:
            raise NumericError(f"log-likelihood decreased at iteration {it}")
        if change < cfg.tol:
            break
    return JointDist(p, 0.0), EmResult(change < cfg.tol, it, change, history)


def em_conditional(f_ci: MarginalDist | np.ndarray, t_i: np.ndarray,
                   cfg: EmConfig = EmConfig()) -> tuple[MarginalDist, EmResult]:
    """One-dimensional reconstruction of a conditional photocount column.

    The joint EM with the column as a single idler column, detected through
    a 1x1 identity.
    """
    data = f_ci.probs if isinstance(f_ci, MarginalDist) else np.asarray(f_ci, float)
    dist, result = em_joint(data[:, None], t_i, np.ones((1, 1)), cfg)
    return MarginalDist(dist.table[:, 0], 0.0), result


def conditional_histogram(h: JointHistogram, c_s: int) -> MarginalDist:
    """Idler photocount distribution conditioned on a signal column."""
    if not 0 <= c_s < h.counts.shape[0]:
        raise InvalidParameterError(f"column {c_s} outside histogram")
    column = h.counts[c_s, :]
    total = column.sum()
    if total == 0:
        raise EmptyConditionError(f"no events with {c_s} signal clicks")
    return MarginalDist(column / total, 0.0)


def stream_of(codes, meta: dict | None = None,
              chunk: int = CHUNK) -> ClickStream:
    """A stream of the window ``codes`` held in memory, ``chunk`` at a time."""
    codes = np.asarray(codes, dtype=np.uint8)
    return ClickStream(len(codes), lambda: (codes[i:i + chunk] for i in
                                            range(0, len(codes), chunk)),
                       dict(meta or {}))


def codes_of(stream: ClickStream) -> np.ndarray:
    """Every window code of ``stream``, its chunks joined."""
    return np.concatenate([np.empty(0, np.uint8), *stream.chunks()])


def held(stream: ClickStream) -> ClickStream:
    """``stream`` drawn or read once and held in memory."""
    return stream_of(codes_of(stream), stream.meta)


def signal_bits(stream: ClickStream) -> np.ndarray:
    """The signal click bit of every window."""
    return codes_of(stream) & 1


def idler_bits(stream: ClickStream) -> np.ndarray:
    """The idler click bit of every window."""
    return (codes_of(stream) >> 1) & 1


def window_correlation(stream: ClickStream, arm: str, dj_max: int) -> np.ndarray:
    """Normalized correlation of click fluctuations at window shifts ``0..dj_max``.

    ``K[dj] = n_windows * sum_j dc_j dc_{j+dj} / (sum_j c_j)^2`` with the sum
    truncated at the end of the record (no wraparound).
    """
    bits = signal_bits(stream) if arm == "s" else idler_bits(stream)
    n = len(bits)
    if n <= dj_max:
        raise StreamTooShortError("stream shorter than the requested shift range")
    total = int(bits.sum())
    if total == 0:
        raise DegenerateStreamError(f"no clicks in arm {arm!r}")
    dc = bits.astype(np.float64) - total / n
    # One FFT gives every shift at once; the linear (non-circular) part is
    # exactly the truncated sum above.
    size = 1 << int(np.ceil(np.log2(n + dj_max + 1)))
    spec = np.fft.rfft(dc, size)
    corr = np.fft.irfft(spec * np.conj(spec), size)[:dj_max + 1]
    return n * corr / float(total) ** 2


def averaged_correlation(k: np.ndarray, delta_j: int) -> np.ndarray:
    """Centered moving average over ``2 delta_j + 1`` shifts, edges shrunk."""
    if delta_j < 0:
        raise InvalidParameterError("delta_j must be >= 0")
    k = np.asarray(k, dtype=float)
    width = 2 * delta_j + 1
    kernel = np.ones(width)
    sums = np.convolve(k, kernel)[delta_j:delta_j + len(k)]
    norm = np.convolve(np.ones_like(k), kernel)[delta_j:delta_j + len(k)]
    return sums / norm


def conditioned_sequences(stream: ClickStream) -> dict:
    """Reference and conditioned click sequences of both arms.

    ``conditioned_i`` keeps the idler bits of exactly those windows in which
    the signal detector clicked (and symmetrically for ``conditioned_s``).
    """
    if len(stream) == 0:
        raise StreamTooShortError("empty stream")
    s, i = signal_bits(stream), idler_bits(stream)
    return {
        "reference_s": s,
        "reference_i": i,
        # the bits are 0 or 1, so they select as booleans without a mask
        "conditioned_s": s[i.view(bool)],
        "conditioned_i": i[s.view(bool)],
    }


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


def in_memory_precision_improvement(stream: ClickStream, n: int,
                                    n_m: int) -> dict:
    """``metrology.precision_improvement`` with every sequence held whole."""
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
