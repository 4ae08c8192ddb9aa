"""Photon-number models of twin beams.

A twin beam is modelled as three independent multi-mode thermal components:
a paired component feeding both arms and one noise component per arm.  Each
component follows the Mandel-Rice law for ``m`` equally populated modes with
``b`` mean photons (or photon pairs) per mode.  The joint signal-idler
photon-number distribution is the two-fold convolution of the three
component distributions, the paired component entering both arms with the
same photon number.  Component laws and the joint table are plain arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericError, UsageError, check_size

#: Per-component truncation target used when growing supports automatically.
COMPONENT_TAIL = 1e-12

#: Largest component support grown automatically: no joint table that wide
#: fits in memory, and a tail that rounding holds above the target stops here.
MAX_SUPPORT = 1 << 20

#: Floor of ``log p(0)`` of a Mandel-Rice law: ``p(0) >= 1 / DBL_MAX`` keeps
#: every ratio product ``p(n) / p(0) <= 1 / p(0)`` finite.
LOG_P0_MIN = -float(np.log(np.finfo(float).max))


@dataclass(frozen=True)
class TwbParams:
    """Mode counts and per-mode means of the three twin-beam components.

    ``m_*`` are (real, positive) mode counts, ``b_*`` mean photon(-pair)
    numbers per mode for the paired (``p``), noise-signal (``s``) and
    noise-idler (``i``) components.
    """

    m_p: float
    m_s: float
    m_i: float
    b_p: float
    b_s: float
    b_i: float

    def __post_init__(self):
        for name in ("m_p", "m_s", "m_i"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0:
                raise UsageError(f"{name} must be finite and > 0, got {v}")
        for name in ("b_p", "b_s", "b_i"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise UsageError(f"{name} must be finite and >= 0, got {v}")

    @property
    def mean_signal(self) -> float:
        return self.m_p * self.b_p + self.m_s * self.b_s

    def scaled(self, n: int) -> "TwbParams":
        """Parameters of ``n`` such beams combined (mode counts scaled)."""
        return replace(self, m_p=self.m_p * n, m_s=self.m_s * n, m_i=self.m_i * n)


def mandel_rice(m: float, b: float, n_max: int) -> np.ndarray:
    """Photon-number distribution of ``m`` thermal modes with mean ``b`` each.

    Evaluated through the stable ratio recurrence
    ``p[n+1] = p[n] * (n + m)/(n + 1) * b/(1 + b)`` which avoids Gamma
    overflow for supports reaching into the thousands.  It starts from
    ``p[0] = (1 + b)^-m``; past :data:`LOG_P0_MIN` the products overflow,
    and it raises.
    """
    if not np.isfinite(m) or m <= 0:
        raise UsageError(f"mode count must be finite and > 0, got {m}")
    if not np.isfinite(b) or b < 0:
        raise UsageError(f"mean per mode must be finite and >= 0, got {b}")
    check_size(n_max, "n_max", 0)
    log_p0 = -m * np.log1p(b)
    if log_p0 < LOG_P0_MIN:
        raise NumericError(
            f"p(0) = exp({log_p0:.6g}) of {m:.6g} modes of mean {b:.6g} "
            "lies below double range")
    n = np.arange(n_max, dtype=float)
    ratios = (n + m) / (n + 1.0) * (b / (1.0 + b))
    p0 = np.exp(log_p0)
    probs = np.empty(n_max + 1)
    probs[0] = p0
    if n_max > 0:
        probs[1:] = p0 * np.cumprod(ratios)
    return probs


def _mr_law(m: float, b: float) -> np.ndarray:
    """A Mandel-Rice law on a support whose tail is below :data:`COMPONENT_TAIL`.

    Starts from a moment-based guess and grows geometrically (factor 1.5)
    until the requirement is met, so truncation never biases moments; past
    :data:`MAX_SUPPORT` it raises.
    """
    mean = m * b
    sd = np.sqrt(mean * (1.0 + b))
    n = int(np.ceil(mean + 10.0 * sd + 10))
    while 1.0 - (law := mandel_rice(m, b, n)).sum() > COMPONENT_TAIL:
        if n > MAX_SUPPORT:
            raise NumericError(
                f"the tail of {m:.6g} modes of mean {b:.6g} stays above "
                f"{COMPONENT_TAIL:g} on {n + 1} photon numbers")
        n = int(np.ceil(n * 1.5)) + 5
    return law


def joint_twb(params: TwbParams) -> np.ndarray:
    """Joint signal-idler photon-number table of a twin beam.

    ``p[n_s, n_i] = sum_n p_s(n_s - n) p_i(n_i - n) p_p(n)`` with the three
    components from :func:`mandel_rice`.  Component supports are grown until
    each truncated tail is below :data:`COMPONENT_TAIL`, so the table misses
    less than three times that of its mass.
    """
    pp = _mr_law(params.m_p, params.b_p)
    ps = _mr_law(params.m_s, params.b_s)
    pi = _mr_law(params.m_i, params.b_i)
    kp, ks, ki = len(pp) - 1, len(ps) - 1, len(pi) - 1

    full = np.zeros((kp + ks + 1, kp + ki + 1))
    cross = np.outer(ps, pi)
    for n in range(kp + 1):
        full[n:n + ks + 1, n:n + ki + 1] += pp[n] * cross
    return full
