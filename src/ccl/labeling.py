"""Small shared helpers for integer label vectors."""

from __future__ import annotations

import numpy as np


class UnionFind:
    """Disjoint sets over 0..n-1 with path halving and union by size."""

    def __init__(self, n: int):
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return int(x)

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True

    def labels(self) -> np.ndarray:
        """Component labels, renumbered by first occurrence."""
        roots = np.fromiter((self.find(i) for i in range(len(self.parent))),
                            dtype=np.int64, count=len(self.parent))
        return relabel_contiguous(roots)


def relabel_contiguous(labels) -> np.ndarray:
    """Renumber arbitrary integer labels to 0..M-1 by first occurrence."""
    labels = np.asarray(labels, dtype=np.int64)
    out = np.empty_like(labels)
    mapping: dict[int, int] = {}
    for i, lab in enumerate(labels.tolist()):
        code = mapping.get(lab)
        if code is None:
            code = len(mapping)
            mapping[lab] = code
        out[i] = code
    return out

