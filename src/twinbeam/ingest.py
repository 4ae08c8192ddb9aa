"""Grouping click streams into compound-beam samples.

A joint histogram takes one pass: each window is coded ``signal * (n + 1) +
idler``, so a group's summed code ``c_s (n + 1) + c_i`` is the flat index of
its histogram cell, and a ``bincount`` of the sums counts the cells, one
chunk of the stream at a time.  The sums are differences of a running sum
taken in the narrowest signed dtype that holds ``n (n + 2)``: it wraps, but
each difference is a group's summed code in ``[0, n (n + 2)]``, and exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, UsageError, check_size
from .simulate import ClickStream

SLIDING = "sliding"
DISJOINT = "disjoint"


@dataclass
class JointHistogram:
    """Counts of (signal, idler) group sums over ``0..n`` squared, and the
    grouping mode; the group size ``n`` is ``counts.shape[0] - 1``."""

    counts: np.ndarray
    mode: str

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)

    @property
    def n_groups(self) -> int:
        return int(self.counts.sum())


def group_histogram(stream: ClickStream, n: int,
                    mode: str = SLIDING) -> JointHistogram:
    """Joint histogram of grouped signal and idler click numbers.

    A group is ``n`` subsequent windows.  Sliding groups reuse windows
    (every shift by one window starts a new group) and are therefore
    statistically dependent; disjoint groups are independent and preferred
    for variance-based statistics.  Groups are counted chunk by chunk as the
    stream yields them; the windows of a group that a chunk cuts (``n - 1``
    sliding, ``len % n`` disjoint) carry over to the next, so the memory
    stays bounded whatever the stream length.
    """
    check_size(n, "group size")
    if mode not in (SLIDING, DISJOINT):
        raise UsageError(f"unknown grouping mode {mode!r}")
    if len(stream) < n:
        raise DataError(
            f"stream of {len(stream)} windows cannot form groups of {n}")
    # windows between the starts of successive groups
    stride = n if mode == DISJOINT else 1
    # holds n (n + 2), the largest group sum (see the module docstring)
    dtype = np.min_scalar_type(-n * (n + 2) - 1)
    counts = np.zeros((n + 1) ** 2, dtype=np.int64)
    carry = np.empty(0, np.uint8)
    for chunk in stream.chunks():
        part = np.concatenate((carry, chunk))
        groups = max(0, (len(part) - n) // stride + 1)
        carry = part[groups * stride:]
        if not groups:
            continue
        # codes (<= 3, as chunks() checks) summed in place after csum[0] = 0;
        # a group's sum is csum's difference n windows apart, stride by stride
        csum = np.zeros(len(part) + 1, dtype)
        code = np.bitwise_and(part, 1, out=csum[1:])
        code *= n + 1
        code += part >> 1
        np.cumsum(code, out=code)
        found = np.bincount(csum[n:n + groups * stride:stride]
                            - csum[:groups * stride:stride])
        counts[:len(found)] += found
    return JointHistogram(counts.reshape(n + 1, n + 1), mode)
