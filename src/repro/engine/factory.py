"""Memoized index construction — build ``T_high``/``T_low`` once, ever.

The paper's Algorithm 3 charges index construction to batch setup and
amortizes it over every variant; this module amortizes it further, over
every *run of the session*: an :class:`IndexFactory` memoizes built
indexes on ``(store fingerprint, index kind, params)``, so repeated
runs, benchmark iterations, and figure drivers over the same database
reuse the same objects instead of re-sorting and re-packing the trees.

Also here:

* :class:`IndexPair` — the two shared R-trees of Algorithm 3.
* :func:`share_index_pair` / :func:`attach_index_pair` — the shared-
  memory transport that lets process-pool workers *reattach* the
  parent's already-built trees (flat arrays, zero-copy views) instead
  of rebuilding both indexes per worker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.variant_dbscan import DEFAULT_LOW_RES_R
from repro.engine.shm import (
    ArrayPackHandle,
    attach_arrays,
    pack_arrays,
    release_segment,
)
from repro.engine.store import SPAN_SHM_ATTACH, PointStore
from repro.index.brute import BruteForceIndex
from repro.index.cellgraph import CellGraphIndex
from repro.index.grid import UniformGridIndex
from repro.index.kdtree import KDTree
from repro.index.rtree import RTree
from repro.util.tracing import Tracer, resolve_tracer

if TYPE_CHECKING:  # pragma: no cover
    from multiprocessing import shared_memory

    from repro.index.base import SpatialIndex

__all__ = [
    "INDEX_KINDS",
    "IndexFactory",
    "IndexPair",
    "IndexPairHandle",
    "SPAN_INDEX_BUILD",
    "attach_index_pair",
    "share_index_pair",
]

#: Span name emitted around every cache-miss index construction.
SPAN_INDEX_BUILD = "index_build"

#: Constructors for every bundled index kind, keyed by factory name.
INDEX_KINDS = {
    "rtree": RTree,
    "grid": UniformGridIndex,
    "kdtree": KDTree,
    "brute": BruteForceIndex,
    "cellgraph": CellGraphIndex,
}


@dataclass
class IndexPair:
    """The two shared R-trees of Algorithm 3 (``T_high`` and ``T_low``).

    Building them is part of a batch's setup cost and is done exactly
    once per database, whatever the number of variants or threads.
    """

    t_high: RTree
    t_low: RTree

    @classmethod
    def build(
        cls, points: np.ndarray, low_res_r: int = DEFAULT_LOW_RES_R, *, fanout: int = 16
    ) -> IndexPair:
        return cls(
            t_high=RTree(points, r=1, fanout=fanout),
            t_low=RTree(points, r=low_res_r, fanout=fanout),
        )


class IndexFactory:
    """Session-scoped cache of built spatial indexes.

    Memoization key: ``(store fingerprint, kind, sorted params)``.  A
    hit returns the *same object* (indexes are immutable after
    construction and safe to share across threads and runs); a miss
    builds under an ``index_build`` span so traces attribute setup cost
    correctly.  Mutating a database means a new store with a new
    fingerprint, which naturally misses.
    """

    def __init__(self) -> None:
        self._cache: dict[tuple, SpatialIndex] = {}

    def __len__(self) -> int:
        return len(self._cache)

    @staticmethod
    def _key(store: PointStore, kind: str, params: dict) -> tuple:
        return (store.fingerprint, kind, tuple(sorted(params.items())))

    def get(
        self,
        store: PointStore,
        kind: str,
        *,
        tracer: Tracer | None = None,
        **params,
    ) -> SpatialIndex:
        """The memoized index of ``kind`` over ``store`` with ``params``.

        ``kind`` is one of :data:`INDEX_KINDS`; ``params`` are the
        kind's constructor keywords (``r=``, ``cell_width=``,
        ``leaf_size=`` ...).  R-trees built here share the store's
        memoized bin-sort permutation.
        """
        if kind not in INDEX_KINDS:
            raise KeyError(
                f"unknown index kind {kind!r}; expected one of {sorted(INDEX_KINDS)}"
            )
        key = self._key(store, kind, params)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        tr = resolve_tracer(tracer)
        with tr.span(SPAN_INDEX_BUILD, kind=kind, n=store.n_points, **{
            k: v for k, v in params.items() if isinstance(v, (int, float, str))
        }):
            if kind == "rtree" and params.get("presort", True):
                bin_width = float(params.get("bin_width", 1.0))
                index = RTree(
                    store.points, order=store.binsort_order(bin_width), **params
                )
            else:
                index = INDEX_KINDS[kind](store.points, **params)
        self._cache[key] = index
        return index

    def index_pair(
        self,
        store: PointStore,
        low_res_r: int = DEFAULT_LOW_RES_R,
        *,
        fanout: int = 16,
        tracer: Tracer | None = None,
    ) -> IndexPair:
        """Memoized ``(T_high, T_low)`` pair for Algorithm 3."""
        return IndexPair(
            t_high=self.get(store, "rtree", r=1, fanout=fanout, tracer=tracer),
            t_low=self.get(
                store, "rtree", r=int(low_res_r), fanout=fanout, tracer=tracer
            ),
        )

    def clear(self) -> None:
        self._cache.clear()


# ----------------------------------------------------------------------
# shared-memory transport for a built IndexPair
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IndexPairHandle:
    """Picklable description of a shared, already-built index pair.

    Carries the scalar tree parameters plus one
    :class:`~repro.engine.shm.ArrayPackHandle` naming every flat array
    of both trees inside a single shared segment.
    """

    pack: ArrayPackHandle
    high_r: int
    low_r: int
    fanout: int
    bin_width: float


def share_index_pair(
    indexes: IndexPair, *, tracer: Tracer | None = None
) -> tuple[shared_memory.SharedMemory, IndexPairHandle]:
    """Pack a built pair's flat arrays into one owned shared segment.

    The two trees' bin-sort permutations are usually the same object
    (factory-built trees share the store's memoized order), in which
    case the pack stores the permutation once.  The caller owns the
    returned segment and must ``close()`` + ``unlink()`` it after the
    workers are done.
    """
    arrays: dict[str, np.ndarray] = {}
    for prefix, tree in (("high", indexes.t_high), ("low", indexes.t_low)):
        for key, arr in tree.shareable_arrays.items():
            arrays[f"{prefix}/{key}"] = arr
    tr = resolve_tracer(tracer)
    with tr.span(SPAN_SHM_ATTACH, what="indexes-create"):
        shm, pack = pack_arrays(arrays, "idx")
    return shm, IndexPairHandle(
        pack=pack,
        high_r=indexes.t_high.r,
        low_r=indexes.t_low.r,
        fanout=indexes.t_low.fanout,
        bin_width=indexes.t_low.bin_width,
    )


def attach_index_pair(
    handle: IndexPairHandle,
    points: np.ndarray,
    *,
    tracer: Tracer | None = None,
) -> tuple[shared_memory.SharedMemory, IndexPair]:
    """Reattach a shared pair as zero-copy tree shells in this process.

    ``points`` is the (typically also shared) database the trees were
    built over.  The caller must ``close()`` the returned segment when
    the trees are discarded — never ``unlink`` it.
    """
    tr = resolve_tracer(tracer)
    with tr.span(SPAN_SHM_ATTACH, segment=handle.pack.name, what="indexes"):
        shm, arrays = attach_arrays(handle.pack)
    try:
        trees = {}
        for prefix, r in (("high", handle.high_r), ("low", handle.low_r)):
            sub = {
                key[len(prefix) + 1:]: arr
                for key, arr in arrays.items()
                if key.startswith(prefix + "/")
            }
            trees[prefix] = RTree.from_arrays(
                points,
                r,
                fanout=handle.fanout,
                bin_width=handle.bin_width,
                arrays=sub,
            )
        return shm, IndexPair(t_high=trees["high"], t_low=trees["low"])
    except Exception:
        # A malformed pack must not leak this process's mapping of the
        # (caller-owned) segment.
        release_segment(shm)
        raise
