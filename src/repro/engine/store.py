"""The session's immutable point database (paper Section IV's ``D``).

A :class:`PointStore` is built once per dataset and shared by every
index, executor, and worker process that touches it:

* **Immutability + fingerprint.**  The store exposes a read-only view
  of the validated ``(n, 2)`` float64 array and a content fingerprint
  (BLAKE2 over bytes + shape).  The fingerprint is the memoization key
  of :class:`~repro.engine.factory.IndexFactory` — two stores over
  byte-identical databases share cached indexes; mutating your source
  array and building a new store changes the fingerprint and forces a
  rebuild.
* **Lazy shared memory.**  ``ensure_shared()`` materializes the array
  into a POSIX shared-memory segment on first use (the serial /
  simulated / thread backends never pay for it) and returns a small
  picklable :class:`PointStoreHandle`.  Worker processes attach with
  :meth:`PointStore.attach` — zero-copy, no pickled point array on the
  wire — which is the shared-``D`` economics of the paper's Algorithm 3
  restored for the process backend.
* **Explicit lifecycle.**  The creating process owns the segment:
  ``close()`` (or the context manager) unlinks it.  Attached stores
  only ever close their mapping.  A leaked segment outlives the
  process, so executors and :class:`~repro.engine.session.Session`
  close stores in ``finally`` blocks even when workers raise.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.engine.shm import (
    attach_shm,
    create_shm,
    destroy_segment,
    release_segment,
)
from repro.index.binsort import binsort_order
from repro.util.tracing import Tracer, resolve_tracer
from repro.util.validation import as_points_array

if TYPE_CHECKING:  # pragma: no cover
    from multiprocessing import shared_memory

__all__ = ["PointStore", "PointStoreHandle", "SPAN_SHM_ATTACH"]

#: Span name emitted when a process attaches a shared segment.
SPAN_SHM_ATTACH = "shm_attach"


def fingerprint_points(points: np.ndarray) -> str:
    """Content hash of a point database (bytes + shape, order-sensitive)."""
    h = hashlib.blake2b(digest_size=16)
    h.update(str(points.shape).encode())
    h.update(np.ascontiguousarray(points).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class PointStoreHandle:
    """Picklable pointer to a shared point database.

    Everything a worker needs to attach: segment name, array layout,
    and the fingerprint (so caches keyed on it agree across processes).
    """

    name: str
    shape: tuple
    dtype: str
    fingerprint: str


class PointStore:
    """Owning wrapper around one immutable, bin-sorted point database.

    Build with :meth:`from_points` in the owning process or
    :meth:`attach` in a worker.  Supports the context-manager protocol;
    exiting closes (and, for owners, unlinks) any shared segment.
    """

    def __init__(
        self,
        points: np.ndarray,
        *,
        fingerprint: str | None = None,
        _shm: shared_memory.SharedMemory | None = None,
        _owner: bool = True,
    ) -> None:
        base = as_points_array(points)
        view = base.view()
        view.flags.writeable = False
        self._points = view
        self._fingerprint = (
            fingerprint if fingerprint is not None else fingerprint_points(base)
        )
        self._shm = _shm
        self._owner = _owner
        self._closed = False
        self._orders: dict[float, np.ndarray] = {}

    # -- construction ---------------------------------------------------
    @classmethod
    def from_points(cls, points: np.ndarray | PointStore) -> PointStore:
        """Validate ``points`` and wrap them (no shared memory yet)."""
        if isinstance(points, PointStore):
            return points
        return cls(points)

    @classmethod
    def attach(cls, handle: PointStoreHandle, *, tracer: Tracer | None = None) -> PointStore:
        """Map a shared database created elsewhere (zero-copy, read-only).

        The returned store does **not** own the segment: closing it
        releases this process's mapping only.  Emits a
        ``shm_attach`` span on the resolved tracer.
        """
        tr = resolve_tracer(tracer)
        with tr.span(SPAN_SHM_ATTACH, segment=handle.name, what="points"):
            shm = attach_shm(handle.name)
            try:
                arr = np.ndarray(
                    handle.shape, dtype=np.dtype(handle.dtype), buffer=shm.buf
                )
                return cls(
                    arr, fingerprint=handle.fingerprint, _shm=shm, _owner=False
                )
            except Exception:
                # A bad handle (shape/dtype mismatch) must not leak the
                # mapping this process just opened.
                release_segment(shm)
                raise

    # -- data access ----------------------------------------------------
    @property
    def points(self) -> np.ndarray:
        """Read-only ``(n, 2)`` float64 view of the database."""
        return self._points

    @property
    def n_points(self) -> int:
        return int(self._points.shape[0])

    @property
    def fingerprint(self) -> str:
        """Stable content hash; the index/cache memoization key."""
        return self._fingerprint

    def binsort_order(self, bin_width: float = 1.0) -> np.ndarray:
        """Memoized bin-sort permutation (Section IV-A pre-sort).

        Both of a session's R-trees (``T_high``, ``T_low``) presort
        with the same bin width, so sharing the permutation halves the
        sort work and lets the shared-index transport ship one array
        instead of two.
        """
        key = float(bin_width)
        if key not in self._orders:
            order = binsort_order(self._points, bin_width=key)
            order.flags.writeable = False
            self._orders[key] = order
        return self._orders[key]

    # -- shared-memory lifecycle ----------------------------------------
    @property
    def is_shared(self) -> bool:
        return self._shm is not None

    @property
    def segment_name(self) -> str | None:
        """Name of the materialized shared segment, if any."""
        return self._shm.name if self._shm is not None else None

    @property
    def owns_segment(self) -> bool:
        return self._shm is not None and self._owner

    def ensure_shared(self, *, tracer: Tracer | None = None) -> PointStoreHandle:
        """Materialize the shared segment (idempotent) and describe it.

        First call copies the database into a fresh owned segment and
        rebinds :attr:`points` to the shared buffer, so subsequently
        built indexes view shared memory directly.  Later calls are
        free.
        """
        if self._closed:
            raise ValueError("PointStore is closed")
        if self._shm is None:
            tr = resolve_tracer(tracer)
            with tr.span(SPAN_SHM_ATTACH, what="points-create", n=self.n_points):
                shm = create_shm(max(1, self._points.nbytes), "pts")
                try:
                    shared = np.ndarray(
                        self._points.shape, dtype=self._points.dtype, buffer=shm.buf
                    )
                    shared[...] = self._points
                    shared.flags.writeable = False
                except Exception:
                    # We own this fresh segment; a failed copy must not
                    # orphan it under the repro_* prefix.
                    destroy_segment(shm)
                    raise
            self._shm = shm
            self._owner = True
            self._points = shared
        return PointStoreHandle(
            name=self._shm.name,
            shape=tuple(self._points.shape),
            dtype=self._points.dtype.str,
            fingerprint=self._fingerprint,
        )

    def close(self) -> None:
        """Release the segment: unmap always, unlink only if owned.

        Idempotent; the unlink tolerates a segment already removed (a
        crashed owner cleaned up by the OS or a test's explicit
        unlink).  The in-process array stays usable only when no shared
        segment was ever materialized.
        """
        if self._closed:
            return
        self._closed = True
        if self._shm is None:
            return
        # The store's own views point into the segment being torn down;
        # drop them so the mapping can actually be released.
        self._points = np.empty((0, 2))
        self._orders.clear()
        # A caller-held view (an index built over the shared buffer) may
        # still export the mapping; release tolerates that (the OS
        # reclaims at exit) and destroy still removes the segment name.
        release_segment(self._shm)
        if self._owner:
            destroy_segment(self._shm)
        self._shm = None

    def __enter__(self) -> PointStore:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "shared" if self.is_shared else "local"
        return (
            f"PointStore(n={self.n_points}, {mode}, "
            f"fingerprint={self._fingerprint[:8]}...)"
        )
