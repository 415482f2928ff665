"""Correctness check: every variant against a from-scratch reference.

The reference runs :func:`repro.core.cellgraph.cellgraph_dbscan` from
scratch for each variant (the cellgraph kernel is pinned byte-equal to
BFS ``dbscan``).  Labels are compared after canonical relabelling, so a
cluster-id permutation (lane chain partitioning) compares equal.

A from-scratch result (cellgraph root or sharded merge) must be
byte-equal to the reference.  A reused result (VariantDBSCAN with a
donor) is documented as not byte-equal: border points take whichever
cluster reaches them first, and interior core flags are conservative.
It must instead be DBSCAN-equivalent: the same noise points, core
points that are core in the reference, and the same partition of those
core points into clusters.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping

import numpy as np

from repro import VariantSet
from repro.core.cellgraph import cellgraph_dbscan
from repro.core.neighcache import NeighborhoodCache
from repro.core.variants import Variant
from repro.index.cellgraph import CellGraphIndex

#: Neighbourhood-cache budget for the reference (one cache per eps).
REFERENCE_CACHE_BYTES = 64 << 20

Clustering = tuple[np.ndarray, np.ndarray]  # (labels, core_mask)


def canonical(labels: np.ndarray) -> np.ndarray:
    """Renumber clusters by first appearance; noise (< 0) becomes -1."""
    labels = np.asarray(labels, dtype=np.int64)
    out = np.full(labels.shape, -1, dtype=np.int64)
    clustered = labels >= 0
    if clustered.any():
        ids, first, inverse = np.unique(
            labels[clustered], return_index=True, return_inverse=True
        )
        rank = np.empty(ids.size, dtype=np.int64)
        rank[np.argsort(first)] = np.arange(ids.size)
        out[clustered] = rank[inverse]
    return out


def digest(labels: np.ndarray, core_mask: np.ndarray) -> bytes:
    """Digest of one clustering, invariant to cluster-id permutation."""
    h = hashlib.blake2b(digest_size=16)
    h.update(canonical(labels).tobytes())
    h.update(np.asarray(core_mask, dtype=bool).tobytes())
    return h.digest()


def reference(points: np.ndarray, vset: VariantSet) -> dict[Variant, Clustering]:
    """From-scratch ``(labels, core_mask)`` for every variant.

    One :class:`CellGraphIndex` and one neighbourhood cache per eps;
    both are exact, so each result is what a cold call would return.
    """
    out: dict[Variant, Clustering] = {}
    for eps in sorted({v.eps for v in vset}):
        index = CellGraphIndex(points, eps)
        cache = NeighborhoodCache(capacity_bytes=REFERENCE_CACHE_BYTES)
        for v in vset:
            if v.eps == eps:
                r = cellgraph_dbscan(points, eps, v.minpts, index=index, cache=cache)
                out[v] = (r.labels, r.core_mask)
    return out


def verdict(ref: Clustering, got: Clustering, *, reused: bool) -> str | None:
    """``None`` when ``got`` is correct against ``ref``, else why not."""
    (ref_labels, ref_core), (labels, core) = ref, got
    if digest(labels, core) == digest(ref_labels, ref_core):
        return None
    if not reused:
        return "from-scratch result not byte-equal to the reference"
    if not np.array_equal(labels < 0, ref_labels < 0):
        return "noise points differ"
    if np.any(core & ~ref_core):
        return "core point that is not core in the reference"
    if not np.array_equal(
        canonical(np.where(core, labels, -1)), canonical(np.where(core, ref_labels, -1))
    ):
        return "core points partitioned differently"
    return None


def scramble_victim(clusterings: Mapping[Variant, Clustering]) -> Variant:
    """The variant with the most clusters (scrambling it must show)."""
    victim = max(
        clusterings,
        key=lambda v: (int(clusterings[v][0].max(initial=-1)), v.eps, v.minpts),
    )
    if clusterings[victim][0].max(initial=-1) < 1:
        raise ValueError("no variant has two clusters to scramble")
    return victim


def scramble(labels: np.ndarray, seed: int) -> np.ndarray:
    """A seeded permutation of the label positions."""
    return np.random.default_rng(seed).permutation(labels)


def mutation_self_test(ref: Mapping[Variant, Clustering], seed: int) -> int:
    """Failures counted when one reference variant's labels are scrambled.

    Every variant is judged by the lenient reused-result rule; a
    working check still counts exactly 1.
    """
    victim = scramble_victim(ref)
    got = dict(ref)
    got[victim] = (scramble(ref[victim][0], seed), ref[victim][1])
    return sum(verdict(ref[v], got[v], reused=True) is not None for v in ref)
