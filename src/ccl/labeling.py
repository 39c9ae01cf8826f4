"""Small shared helpers for integer label vectors."""

from __future__ import annotations

import numpy as np


def relabel_contiguous(labels) -> np.ndarray:
    """Renumber arbitrary integer labels to 0..M-1 by first occurrence."""
    labels = np.asarray(labels, dtype=np.int64)
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def link_components(succ) -> np.ndarray:
    """Components of the functional graph i -> succ[i], numbered by first occurrence.

    Each component of a graph with one out-edge per node ends in exactly one
    cycle, so a component is named by the smallest node on its cycle. Pointer
    doubling finds it: after r rounds low[i] is the minimum over the 2^r nodes
    i, succ[i], ... and step[i] is the node 2^r edges on. Once 2^r > N, step[i]
    lies on the cycle and low[step[i]] spans all of it.
    """
    step = np.asarray(succ, dtype=np.int64)
    low = np.arange(step.size)
    for _ in range(step.size.bit_length()):
        low = np.minimum(low, low[step])
        step = step[step]
    return relabel_contiguous(low[step])
