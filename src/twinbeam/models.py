"""Closed-form models of single and grouped windows, used by the sweeps.

The probability generating function of the joint photon numbers,

    G(x, y) = (1 + b_s (1-x))^(-m_s) (1 + b_i (1-y))^(-m_i)
              (1 + b_p (1-x y))^(-m_p),

yields the four click chances of a window's two on/off detectors in closed
form (:func:`window_click_law`, the one place they are computed).  ``n``
grouped windows have the click PGF ``(w00 + w10 x + w01 y + w11 x y)^n``: its
expansion around ``x = y = 1`` gives every grouped-click moment in closed form
(:func:`compound_click_moments`, pump drift included), and setting ``x`` to
the signal outcome of each window gives the idler clicks heralded by ``c_s``
signal clicks as two independent binomials (:func:`postselection_stats`).
At a fixed signal outcome, the ``y``-derivatives of ``G`` give the heralded
idler photon mean and variance (:func:`heralded_photon_stats`).  The genuine
beam's click moments come from each arm's factorial click moments per photon
number, a recurrence in ``order + 1`` numbers (:func:`genuine_click_moments`).
No quantity needs a whole click table, a detection matrix or a convolution
power of photon tables.
"""

from __future__ import annotations

import math
import numbers
import sys

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import LOG_P0_MIN, TwbParams, _mr_law
from .detection import DetectorSpec, _binomial_pmf, click_factorials
from .errors import NumericError, UsageError, check_size
from .simulate import PumpCorrelation

#: Bundled demo parameter set: a weak beam of ten thermal modes per
#: component carrying ~0.102 photon pairs per window, watched by two fiber
#: coupled avalanche photodiodes.
NOMINAL_PARAMS = TwbParams(m_p=10.0, m_s=10.0, m_i=10.0,
                           b_p=1.0185e-2, b_s=8e-5, b_i=2e-5)
NOMINAL_SIGNAL = DetectorSpec(eta=0.282, dark=2.8e-3, pixels=1)
NOMINAL_IDLER = DetectorSpec(eta=0.330, dark=3.8e-3, pixels=1)
NOMINAL_PUMP = PumpCorrelation(k=0.965e-3, block_len=10_000)


def _log_dark(params: TwbParams, spec: DetectorSpec, m: float, b: float,
              pair_mean) -> float:
    """Log of the chance that an arm's dark count, its ``m`` noise modes of
    per-mode mean ``b`` and the pairs of per-mode mean ``pair_mean`` all miss
    it.  ``(1 + b eta)^-m`` is ``exp(-m log1p(b eta))``: many modes of tiny
    mean must not raise a rounded ``1 + b eta`` to a huge power."""
    return (math.log1p(-spec.dark) - m * math.log1p(b * spec.eta)
            - params.m_p * np.log1p(pair_mean * spec.eta))


def window_click_law(params: TwbParams, spec_s: DetectorSpec,
                     spec_i: DetectorSpec, pump_factor=1.0) -> tuple:
    """One window's click chances ``(w00, w10, w01, w11)``, ``w10`` a signal
    click with the idler dark; ``pump_factor`` (a number or an array) scales
    the pairs' per-mode mean ``a``.  With the idler dark the signal sees a
    pair mean of ``a (1 - eta_i) / (1 + a eta_i)``; both arms stay dark
    ``exp(tie)`` times likelier than independent ones.  No cell is a
    difference of numbers near 1."""
    a = params.b_p * pump_factor
    eta_s, eta_i = spec_s.eta, spec_i.eta
    log_s, s_given_i = (_log_dark(params, spec_s, params.m_s, params.b_s, u)
                        for u in (a, a * (1.0 - eta_i) / (1.0 + a * eta_i)))
    log_i, i_given_s = (_log_dark(params, spec_i, params.m_i, params.b_i, u)
                        for u in (a, a * (1.0 - eta_s) / (1.0 + a * eta_s)))
    tie = params.m_p * np.log1p(a * (1.0 + a) * eta_s * eta_i / (
        1.0 + a * (eta_s + eta_i - eta_s * eta_i)))
    return (np.exp(log_i + s_given_i), -np.exp(log_i) * np.expm1(s_given_i),
            -np.exp(log_s) * np.expm1(i_given_s),
            np.expm1(log_s) * np.expm1(log_i)
            + np.exp(log_s + log_i) * np.expm1(tie))


def window_click_probs(params: TwbParams, spec_s: DetectorSpec,
                       spec_i: DetectorSpec, pump_factor=1.0) -> tuple:
    """Single-window ``(p_s, p_i, p_coincidence)``: sums of the law's cells."""
    _, w10, w01, w11 = window_click_law(params, spec_s, spec_i, pump_factor)
    return w10 + w11, w01 + w11, w11


def genuine_click_moments(params: TwbParams, spec_s: DetectorSpec,
                          spec_i: DetectorSpec, n: int, order: int
                          ) -> np.ndarray:
    """Factorial click moments of the equally strong genuine beam.

    The beam has ``n`` times the modes of one window, but all its photons
    share one ``n``-pixel detector per arm: the comparison model for the
    compound beam.  Each arm's factorial click moments of ``m`` photons,
    ``F[k, m] = <(c)_k>``, follow a recurrence in ``m`` with no negative
    term (:func:`~twinbeam.detection.click_factorials`).  Summed over the
    pair number ``k``, ``pairs[k]`` weighs the outer product of the arms'
    moments on their noise laws shifted by ``k`` photons: no click table,
    detection matrix or joint photon table.  Orders above ``n`` are exact
    zeros.  Past the largest ``n`` whose component laws the Mandel-Rice
    recurrence can start (``log p(0) >= LOG_P0_MIN`` for each component),
    it raises :class:`NumericError` naming that ``n``.
    """
    check_size(n, "group size")
    check_size(order, "order")
    per_window = max(m * math.log1p(b) for m, b in (
        (params.m_p, params.b_p), (params.m_s, params.b_s),
        (params.m_i, params.b_i)))
    if n * per_window > -LOG_P0_MIN:
        raise NumericError(
            f"the photon table of {n} genuine windows leaves double range; "
            f"the largest feasible n is {math.floor(-LOG_P0_MIN / per_window)}")
    beam = params.scaled(n)
    pairs = _mr_law(beam.m_p, beam.b_p)
    # g[a, k]: <(c)_a> of k pairs and the arm's noise photons
    g_s, g_i = (sliding_window_view(click_factorials(
        DetectorSpec(spec.eta, spec.dark, n), len(pairs) + len(noise) - 2,
        order), len(noise), axis=1) @ noise for spec, noise in (
            (spec_s, _mr_law(beam.m_s, beam.b_s)),
            (spec_i, _mr_law(beam.m_i, beam.b_i))))
    return (g_s * pairs) @ g_i.T


#: A standard normal's trapezoid rule on -12..12 in steps of 0.05: its error
#: falls exponentially in the nodes for a smooth Gaussian-weighted integrand
#: (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)), and needs no eigen-solve.
_NORMAL_X = np.linspace(-12.0, 12.0, 481)
_NORMAL_W = np.exp(-0.5 * _NORMAL_X ** 2)
_NORMAL_W /= _NORMAL_W.sum()


def compound_click_moments(params: TwbParams, spec_s: DetectorSpec,
                           spec_i: DetectorSpec, n: int, order: int,
                           k: float = 0.0) -> np.ndarray:
    """Factorial (normally ordered) click moments of ``n`` grouped windows.

    ``F[a, b] = a! b! [u^a v^b] (1 + p_s u + p_i v + p11 u v)^n``, i.e.
    ``sum_c a! b! / ((a-c)! (b-c)! c!) perm(n, a+b-c) p_s^(a-c) p_i^(b-c)
    p11^c``, averaged for ``k > 0`` over the block's common pump factor
    ``max(0, 1 + sqrt(k) g)`` by a 481-node trapezoid rule in a standard
    normal ``g`` (the group sits inside one block).  Orders above ``n`` are
    exact zeros; a coefficient past double range is a :class:`NumericError`.
    """
    check_size(n, "group size")
    check_size(order, "order")
    PumpCorrelation(k)                      # rejects an inadmissible drift
    factors, weights = np.ones(1), np.ones(1)
    if k > 0:
        factors = np.maximum(0.0, 1.0 + np.sqrt(k) * _NORMAL_X)
        weights = _NORMAL_W
    p_s, p_i, p11 = (np.array([p ** j for j in range(order + 1)]) for p in
                     window_click_probs(params, spec_s, spec_i, factors))
    out = np.zeros((order + 1, order + 1))
    for a, b in np.ndindex(out.shape):
        for c in range(min(a, b) + 1):
            coeff = math.comb(a, c) * math.perm(b, c) * math.perm(n, a + b - c)
            if coeff > sys.float_info.max:
                raise NumericError(f"click moments of {n} windows overflow")
            out[a, b] += float(coeff) * (weights @ (
                p_s[a - c] * p_i[b - c] * p11[c]))
    return out


def postselection_stats(params: TwbParams, spec_s: DetectorSpec,
                        spec_i: DetectorSpec, n: int
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Occupancy, idler mean and idler variance of ``c_s = 0..n`` signal clicks.

    Windows are independent, so ``c_s`` is ``Binomial(n, p_s)`` and the idler
    count given ``c_s`` is ``Binomial(c_s, q1) + Binomial(n - c_s, q0)``, with
    ``q1 = w11 / p_s`` and ``q0 = w01 / (w00 + w01)`` the idler click
    chances of a window with and without a signal click: they and their
    complements ``w10 / p_s`` and ``w00 / (w00 + w01)`` are ratios of the
    window's cells, none a difference of numbers near 1.  More than 2^53
    windows, a count no double holds, are a :class:`NumericError`.
    """
    check_size(n, "group size")
    if n > 2 ** 53:
        raise NumericError(f"group size {n} > 2**53 leaves exact doubles")
    w00, w10, w01, w11 = window_click_law(params, spec_s, spec_i)
    p_s, no_s = w10 + w11, w00 + w01
    # a q of an impossible window outcome only meets rows of zero occupancy
    q1, not_q1 = (w11 / p_s, w10 / p_s) if p_s > 0 else (0.0, 1.0)
    q0, not_q0 = (w01 / no_s, w00 / no_s) if no_s > 0 else (0.0, 1.0)
    c = np.arange(n + 1)
    mean = c * q1 + (n - c) * q0
    var = c * q1 * not_q1 + (n - c) * q0 * not_q0
    return _binomial_pmf(n, p_s), mean, var


def heralded_photon_stats(params: TwbParams, spec_s: DetectorSpec, c_s: int,
                          n: int) -> tuple[float, float]:
    """Idler photon mean and variance after ``c_s`` signal clicks in ``n`` windows.

    A window's idler photons have the PGF ``H0(y) = (1 - dark_s) G(1 - eta_s,
    y)`` without a signal click and ``H1(y) = G(1, y) - H0(y)`` with one.
    Windows are independent: ``c_s`` windows add the mean and variance of
    ``H1 / H1(1)``, the other ``n - c_s`` those of ``H0 / H0(1)``.  ``H1``
    and its derivatives are sums of positive terms: no difference near 1.
    """
    check_size(n, "group size")
    if not (isinstance(c_s, numbers.Integral) and 0 <= c_s <= n):
        raise UsageError(f"need an integer 0 <= c_s <= {n}, got {c_s!r}")
    x = 1.0 - spec_s.eta

    def log_derivs(x: float) -> tuple[float, float, float]:
        # u(x) and the first two y-derivatives of log G(x, y) at y = 1,
        # whose pair term has b_p x where noise has b_i
        u = params.b_p * x / (1.0 + params.b_p * (1.0 - x))
        return (u, params.m_i * params.b_i + params.m_p * u,
                params.m_i * params.b_i ** 2 + params.m_p * u ** 2)

    u1, l1, l2 = log_derivs(1.0)
    ux, l1x, l2x = log_derivs(x)
    log_no_s = _log_dark(params, spec_s, params.m_s, params.b_s, params.b_p)
    no_s, p_s = math.exp(log_no_s), -math.expm1(log_no_s)
    h0 = no_s * np.array([1.0, l1x, l2x + l1x * l1x])
    # H1 = p_s G(1, y) + no_s (G(1, y) - G(x, y) / G(x, 1)); in the second
    # term l1 - l1x = m_p (u1 - ux) = m_p b_p (1 - x)(1 + b_p) /
    # (1 + b_p (1 - x)) and l2 + l1^2 - l2x - l1x^2 = that (u1 + ux + l1 + l1x)
    dl1 = params.m_p * params.b_p * (1.0 - x) * (1.0 + params.b_p) \
        / (1.0 + params.b_p * (1.0 - x))
    h1 = p_s * np.array([1.0, l1, l2 + l1 * l1]) \
        + no_s * dl1 * np.array([0.0, 1.0, u1 + ux + l1 + l1x])
    mean = var = 0.0
    for count, (h, d1, d2) in ((c_s, h1), (n - c_s, h0)):
        if count:                   # else h may be 0: no 0 * nan
            m = d1 / h
            mean += count * m
            var += count * (d2 / h + m - m * m)
    return mean, var
