"""Sharded instance index: the user dimension split into bounded slabs.

The dense :class:`~repro.model.index.InstanceIndex` stores ``W``/``SI``/
``bid_mask`` as ``(|U|, |V|)`` matrices, which caps instances around
:data:`~repro.model.index.DENSE_CELL_CAP` (~10⁷) cells.  The LP (1)-(4) and
every arrangement move decompose by user, so the user dimension shards
cleanly with no loss of fidelity: :class:`ShardedInstanceIndex` partitions
user positions into contiguous shards of ``shard_size`` users and never
materializes a dense user-by-event matrix at all.

Storage:

* **shared event-side state** — ``conflict_matrix`` (and its float32 copy),
  ``event_capacity``, ``event_ids``/``event_pos`` and the bidder incidence
  are global, exactly as on the dense index;
* **per-pair state** lives in the CSR entry arrays (``bid_indices``,
  ``bid_si``, ``bid_weights``), ``O(bids)`` total;
* **per-shard dense slabs** (``shard.W``, ``shard.SI``, ``shard.bid_mask``)
  are materialized on demand from the CSR rows of the shard and not
  retained — each is at most ``shard_size × |V|`` cells (~10⁶ by default),
  so shard-major algorithm loops get vectorized dense inner loops at a
  bounded memory footprint.

The global coordinate map (``user_pos``/``event_pos`` and the position-based
accessors of :class:`~repro.model.index.BaseInstanceIndex`) is unchanged, so
existing position-based code runs on either index; the pair accessors
resolve through a sorted-key binary search over the CSR entries instead of
matrix lookups.  All values are bit-identical to the dense index
(``tests/integration/test_sharded_parity.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.model.index import BaseInstanceIndex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.model.instance import IGEPAInstance

#: Default per-shard dense-slab budget, in cells.  The default shard size is
#: chosen so one materialized ``shard_size × |V|`` slab stays under this.
DEFAULT_SHARD_CELLS = 1_000_000


def default_shard_size(num_users: int, num_events: int) -> int:
    """Users per shard so a dense slab stays under ~10⁶ cells."""
    size = DEFAULT_SHARD_CELLS // max(1, num_events)
    return max(1, min(size, max(1, num_users)))


class ShardedInstanceIndex(BaseInstanceIndex):
    """CSR-backed index over user shards (see module docstring).

    Args:
        instance: the instance to index.
        shard_size: users per shard; default keeps each dense slab under
            :data:`DEFAULT_SHARD_CELLS` cells.
    """

    PARITY_ARRAYS = BaseInstanceIndex.PARITY_ARRAYS

    def __init__(
        self, instance: "IGEPAInstance", shard_size: int | None = None
    ) -> None:
        self._build_primary(instance)
        self._shard_size = self._resolve_shard_size(shard_size)
        self.bid_indptr, self.bid_indices, self.bid_si = self._build_csr(instance)
        self._finalize()

    def _resolve_shard_size(self, shard_size: int | None) -> int:
        if shard_size is None:
            return default_shard_size(self.num_users, self.num_events)
        if shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        return int(shard_size)

    @classmethod
    def from_components(
        cls,
        instance: "IGEPAInstance",
        *,
        user_ids: np.ndarray,
        event_ids: np.ndarray,
        user_capacity: np.ndarray,
        event_capacity: np.ndarray,
        degrees: np.ndarray,
        conflict_matrix: np.ndarray,
        bid_indptr: np.ndarray,
        bid_indices: np.ndarray,
        bid_si: np.ndarray,
        shard_size: int | None = None,
    ) -> "ShardedInstanceIndex":
        """Assemble a sharded index from already-built primary arrays.

        The delta-maintenance constructor
        (:func:`repro.model.delta.apply_delta`): primary arrays are patched
        at the CSR-entry level — O(bids + delta), never O(cells) — and every
        derived array runs through the shared
        :meth:`~repro.model.index.BaseInstanceIndex._finalize`, so the
        patched index is bit-identical to a from-scratch build.
        """
        index = cls.__new__(cls)
        index.beta = instance.beta
        index.user_ids = user_ids
        index.event_ids = event_ids
        index.user_pos = {int(u): i for i, u in enumerate(user_ids.tolist())}
        index.event_pos = {int(e): j for j, e in enumerate(event_ids.tolist())}
        index.user_capacity = user_capacity
        index.event_capacity = event_capacity
        index.degrees = degrees
        index.conflict_matrix = conflict_matrix
        index.bid_indptr = bid_indptr
        index.bid_indices = bid_indices
        index.bid_si = bid_si
        index._shard_size = index._resolve_shard_size(shard_size)
        index._finalize()
        return index

    @property
    def shard_size(self) -> int:
        return self._shard_size

    def __repr__(self) -> str:
        return (
            f"ShardedInstanceIndex(users={self.num_users}, "
            f"events={self.num_events}, bids={self.num_bids}, "
            f"shards={self.num_shards}x{self._shard_size})"
        )
