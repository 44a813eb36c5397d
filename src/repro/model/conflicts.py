"""Conflict functions ``σ(l_v, l_v')`` (Definition 3).

A conflict function decides whether two events cannot both be attended by the
same user.  The paper uses two concrete realizations:

* synthetic data — an explicit random conflict relation with density ``p_cf``
  (here :class:`MatrixConflict`);
* real data — "if two events overlap in time, they conflict with each other"
  (here :class:`TimeIntervalConflict`).

All implementations are symmetric and irreflexive; :func:`conflict_matrix`
materializes the relation as a boolean matrix over an event list.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.model.entities import Event


class ConflictFunction(ABC):
    """Interface for σ: pairs of events -> {0, 1}."""

    @abstractmethod
    def conflicts(self, first: Event, second: Event) -> bool:
        """Whether the two events conflict (σ = 1)."""

    def __call__(self, first: Event, second: Event) -> bool:
        return self.conflicts(first, second)

    def to_dict(self) -> dict:
        """JSON-serializable representation (see :func:`conflict_from_dict`)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support serialization"
        )

    def matrix(self, events: Sequence[Event]) -> np.ndarray:
        """Boolean σ matrix over ``events`` (zero diagonal).

        The generic implementation evaluates every unordered pair; concrete
        conflict functions override it with a vectorized construction so the
        :class:`~repro.model.index.InstanceIndex` build stays cheap.
        """
        n = len(events)
        result = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                if self.conflicts(events[i], events[j]):
                    result[i, j] = True
                    result[j, i] = True
        return result


class NoConflict(ConflictFunction):
    """σ ≡ 0: no two events ever conflict (degenerates IGEPA to GEACC-like)."""

    def conflicts(self, first: Event, second: Event) -> bool:
        return False

    def matrix(self, events: Sequence[Event]) -> np.ndarray:
        return np.zeros((len(events), len(events)), dtype=bool)

    def to_dict(self) -> dict:
        return {"kind": "none"}


class AlwaysConflict(ConflictFunction):
    """σ ≡ 1 for distinct events: each user can attend at most one event."""

    def conflicts(self, first: Event, second: Event) -> bool:
        return first.event_id != second.event_id

    def matrix(self, events: Sequence[Event]) -> np.ndarray:
        ids = np.array([e.event_id for e in events], dtype=np.int64)
        return ids[:, None] != ids[None, :]

    def to_dict(self) -> dict:
        return {"kind": "always"}


class MatrixConflict(ConflictFunction):
    """An explicit symmetric conflict relation over event ids.

    This realizes the synthetic-data setting: "Two events conflict with each
    other with the probability ``p_cf``" — the sampled relation is stored as a
    set of unordered id pairs.
    """

    def __init__(self, conflicting_pairs: Iterable[tuple[int, int]]) -> None:
        self._pairs: set[frozenset[int]] = set()
        for u, v in conflicting_pairs:
            if u == v:
                raise ValueError(f"event {u} cannot conflict with itself")
            self._pairs.add(frozenset((int(u), int(v))))

    @classmethod
    def sample(
        cls,
        event_ids: Sequence[int],
        probability: float,
        rng: np.random.Generator,
    ) -> "MatrixConflict":
        """Sample each unordered pair as conflicting with ``probability``."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"conflict probability must be in [0, 1], got {probability}")
        ids = list(event_ids)
        pairs = []
        n = len(ids)
        if n >= 2 and probability > 0.0:
            iu, ju = np.triu_indices(n, k=1)
            mask = rng.random(iu.shape[0]) < probability
            pairs = [(ids[int(i)], ids[int(j)]) for i, j in zip(iu[mask], ju[mask])]
        return cls(pairs)

    def conflicts(self, first: Event, second: Event) -> bool:
        return self.conflicts_ids(first.event_id, second.event_id)

    def conflicts_ids(self, first_id: int, second_id: int) -> bool:
        """σ by event id, for callers that have no :class:`Event` objects."""
        if first_id == second_id:
            return False
        return frozenset((first_id, second_id)) in self._pairs

    def matrix(self, events: Sequence[Event]) -> np.ndarray:
        position = {e.event_id: i for i, e in enumerate(events)}
        result = np.zeros((len(events), len(events)), dtype=bool)
        for pair in self._pairs:
            first_id, second_id = tuple(pair)
            i = position.get(first_id)
            j = position.get(second_id)
            if i is not None and j is not None:
                result[i, j] = True
                result[j, i] = True
        return result

    @property
    def num_conflicting_pairs(self) -> int:
        return len(self._pairs)

    def pairs(self) -> list[tuple[int, int]]:
        """All conflicting pairs as sorted ``(low_id, high_id)`` tuples.

        Delta maintenance (:mod:`repro.model.delta`) derives a successor
        relation from it when conflicts churn.
        """
        return sorted(tuple(sorted(pair)) for pair in self._pairs)

    def with_edits(
        self,
        add: Iterable[tuple[int, int]] = (),
        remove: Iterable[tuple[int, int]] = (),
        drop_events: Mapping[int, Iterable[int]] | None = None,
    ) -> "MatrixConflict":
        """A successor relation with pairs added/removed and the pairs of
        closing events pruned.

        ``drop_events`` maps each closing event id to the ids of the events
        it conflicts with — every partner must be listed (an index's
        ``conflict_matrix`` row has them).  Their pairs leave in one set
        difference, so the Python-level work is O(edits + pruned) on top of
        one C-level copy of the pair set; no per-pair revalidation.
        Removing a pair that is not present is a silent no-op (``discard``
        semantics); callers needing strictness validate first, as
        :func:`repro.model.delta.apply_delta` does.
        """
        successor = MatrixConflict.__new__(MatrixConflict)
        successor._pairs = self._pairs - {
            frozenset((int(event_id), int(partner)))
            for event_id, partners in (drop_events or {}).items()
            for partner in partners
        }
        for u, v in remove:
            successor._pairs.discard(frozenset((int(u), int(v))))
        for u, v in add:
            if u == v:
                raise ValueError(f"event {u} cannot conflict with itself")
            successor._pairs.add(frozenset((int(u), int(v))))
        return successor

    def to_dict(self) -> dict:
        pairs = sorted(tuple(sorted(pair)) for pair in self._pairs)
        return {"kind": "matrix", "pairs": [list(p) for p in pairs]}


class TimeIntervalConflict(ConflictFunction):
    """σ = 1 iff the events' time intervals overlap (the real-data rule).

    Events lacking temporal attributes never conflict under this function.
    Touching intervals (one ends exactly when the other starts) do not
    overlap.
    """

    def conflicts(self, first: Event, second: Event) -> bool:
        if first.event_id == second.event_id:
            return False
        if first.start_time is None or second.start_time is None:
            return False
        return (
            first.start_time < second.end_time
            and second.start_time < first.end_time
        )

    def matrix(self, events: Sequence[Event]) -> np.ndarray:
        n = len(events)
        starts = np.array(
            [e.start_time if e.start_time is not None else np.nan for e in events]
        )
        ends = np.array(
            [e.end_time if e.end_time is not None else np.nan for e in events]
        )
        ids = np.array([e.event_id for e in events], dtype=np.int64)
        with np.errstate(invalid="ignore"):
            overlap = (starts[:, None] < ends[None, :]) & (
                starts[None, :] < ends[:, None]
            )
        return overlap & (ids[:, None] != ids[None, :])

    def to_dict(self) -> dict:
        return {"kind": "time-interval"}


class CompositeConflict(ConflictFunction):
    """σ = 1 iff *any* member function reports a conflict.

    Models multi-attribute conflicts (e.g. same time slot OR same venue).
    """

    def __init__(self, members: Sequence[ConflictFunction]) -> None:
        if not members:
            raise ValueError("CompositeConflict needs at least one member")
        self.members = list(members)

    def conflicts(self, first: Event, second: Event) -> bool:
        return any(member.conflicts(first, second) for member in self.members)

    def matrix(self, events: Sequence[Event]) -> np.ndarray:
        result = np.zeros((len(events), len(events)), dtype=bool)
        for member in self.members:
            result |= member.matrix(events)
        return result

    def to_dict(self) -> dict:
        return {
            "kind": "composite",
            "members": [member.to_dict() for member in self.members],
        }


def conflict_matrix(
    events: Sequence[Event], conflict: ConflictFunction
) -> np.ndarray:
    """Boolean matrix ``C[i, j] = σ(events[i], events[j])`` (zero diagonal)."""
    return conflict.matrix(events)


def validate_symmetry(
    events: Sequence[Event], conflict: ConflictFunction
) -> None:
    """Raise ``ValueError`` if σ is asymmetric or reflexive on ``events``.

    Definition 3 implies symmetry (conflicting is mutual); a custom
    :class:`ConflictFunction` can be checked with this helper before use.
    """
    for i, first in enumerate(events):
        if conflict.conflicts(first, first):
            raise ValueError(f"conflict function is reflexive on event {first.event_id}")
        for second in events[i + 1 :]:
            forward = conflict.conflicts(first, second)
            backward = conflict.conflicts(second, first)
            if forward != backward:
                raise ValueError(
                    "conflict function is asymmetric on events "
                    f"({first.event_id}, {second.event_id})"
                )


def conflict_from_dict(payload: dict) -> ConflictFunction:
    """Inverse of the ``to_dict`` methods above."""
    kind = payload.get("kind")
    if kind == "none":
        return NoConflict()
    if kind == "always":
        return AlwaysConflict()
    if kind == "matrix":
        return MatrixConflict([tuple(pair) for pair in payload["pairs"]])
    if kind == "time-interval":
        return TimeIntervalConflict()
    if kind == "composite":
        return CompositeConflict(
            [conflict_from_dict(member) for member in payload["members"]]
        )
    raise ValueError(f"unknown conflict function kind {kind!r}")
