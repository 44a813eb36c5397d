"""Event-participant arrangements (Definition 4) and their utility (Definition 7).

An :class:`Arrangement` is a mutable set of (event, user) pairs bound to an
:class:`~repro.model.instance.IGEPAInstance`.  Mutations check the three
feasibility constraints *incrementally* (O(c_u) per insert), so algorithm
implementations can build arrangements pair by pair and rely on the model to
reject violations:

* **Bid** — users only join events they bid for;
* **Capacity** — both ``c_v`` (attendees per event) and ``c_u`` (events per
  user);
* **Conflict** — no user attends two conflicting events.

State is array-backed through the instance's
:class:`~repro.model.index.InstanceIndex`: a boolean assignment matrix plus
per-event attendance and per-user load counters, so membership, capacity and
conflict checks are array lookups and ``utility()`` / the feasibility audit
are vectorized.  Pairs whose ids are unknown to the instance (only reachable
via ``add(..., check=False)``) are kept in a small side set so the audit can
still report them.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from itertools import chain

import numpy as np

from repro.model.errors import ArrangementError
from repro.model.instance import IGEPAInstance


class Arrangement:
    """A feasible (by construction) collection of event-user pairs.

    Use ``add(..., check=False)`` only when the caller guarantees
    feasibility; ``is_feasible()`` / ``violations()`` re-verify from scratch.
    """

    def __init__(self, instance: IGEPAInstance) -> None:
        self.instance = instance
        index = instance.index
        self._idx = index
        self._pairs: set[tuple[int, int]] = set()
        # Sanctioned dense storage: 1 byte/cell bool, the arrangement's own
        # representation (mirrors the LP variable grid, not a weight slab).
        self._assigned = np.zeros(  # igepa: ignore[IGP002]
            (index.num_users, index.num_events), dtype=bool
        )
        self._attendance = np.zeros(index.num_events, dtype=np.int64)
        self._load = np.zeros(index.num_users, dtype=np.int64)
        # Assigned event positions per user position, in insertion order.
        self._user_events: list[list[int]] = [[] for _ in range(index.num_users)]
        # Pairs referencing ids the instance does not know (check=False only).
        self._extra_pairs: set[tuple[int, int]] = set()
        # Count of assigned known pairs that violate the bid constraint.
        self._nonbid_count = 0

    # ------------------------------------------------------------------
    # Content
    # ------------------------------------------------------------------
    @property
    def pairs(self) -> set[tuple[int, int]]:
        """All ``(event_id, user_id)`` pairs (copy)."""
        return set(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return pair in self._pairs

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._pairs)

    def events_of(self, user_id: int) -> set[int]:
        """Events currently assigned to the user."""
        index = self._idx
        upos = index.user_pos.get(user_id)
        result: set[int] = set()
        if upos is not None:
            event_ids = index.event_ids
            result = {int(event_ids[p]) for p in self._user_events[upos]}
        if self._extra_pairs:
            result |= {e for e, u in self._extra_pairs if u == user_id}
        return result

    def users_of(self, event_id: int) -> set[int]:
        """Users currently assigned to the event."""
        index = self._idx
        vpos = index.event_pos.get(event_id)
        result: set[int] = set()
        if vpos is not None:
            result = {
                int(u) for u in index.user_ids[np.flatnonzero(self._assigned[:, vpos])]
            }
        if self._extra_pairs:
            result |= {u for e, u in self._extra_pairs if e == event_id}
        return result

    def attendance(self, event_id: int) -> int:
        """Number of users assigned to the event."""
        vpos = self._idx.event_pos.get(event_id)
        count = 0 if vpos is None else int(self._attendance[vpos])
        if self._extra_pairs:
            count += sum(1 for e, _ in self._extra_pairs if e == event_id)
        return count

    def load(self, user_id: int) -> int:
        """Number of events assigned to the user."""
        upos = self._idx.user_pos.get(user_id)
        count = 0 if upos is None else int(self._load[upos])
        if self._extra_pairs:
            count += sum(1 for _, u in self._extra_pairs if u == user_id)
        return count

    # ------------------------------------------------------------------
    # Array views (positions are InstanceIndex coordinates)
    # ------------------------------------------------------------------
    @property
    def attendance_counts(self) -> np.ndarray:
        """Per-event-position attendance — live view, do not mutate."""
        return self._attendance

    @property
    def load_counts(self) -> np.ndarray:
        """Per-user-position load — live view, do not mutate."""
        return self._load

    @property
    def assignment_matrix(self) -> np.ndarray:
        """Boolean (users × events) assignment — live view, do not mutate."""
        return self._assigned

    def assigned_event_positions(self, upos: int) -> list[int]:
        """Assigned event positions of a user position, in insertion order —
        live view, do not mutate."""
        return self._user_events[upos]

    def assigned_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Assigned ``(user position, event position)`` pairs as two aligned
        int64 arrays in row-major order — ``np.nonzero(assignment_matrix)``
        without the |U|·|V| scan.

        Built from the per-user lists (O(|U| + pairs log pairs)); each
        user's segment is sorted by event position whatever the insertion
        order.  Pairs with ids unknown to the instance are not included.
        """
        load = self._load
        rows = np.repeat(np.arange(load.size, dtype=np.int64), load)
        cols = np.fromiter(
            chain.from_iterable(self._user_events), dtype=np.int64, count=rows.size
        )
        # rows is already grouped, so the key order is (row, then column).
        return rows, cols[np.lexsort((cols, rows))]

    @classmethod
    def _from_positions(
        cls,
        instance: IGEPAInstance,
        rows: np.ndarray,
        cols: np.ndarray,
        pairs: set[tuple[int, int]],
    ) -> "Arrangement":
        """An arrangement of exactly the given pairs, in O(|U| + pairs).

        ``rows`` / ``cols`` are row-major ``(user position, event position)``
        arrays of distinct bid pairs (as :meth:`assigned_positions` returns),
        so each user's list comes out sorted by event position; ``pairs``
        holds the same pairs as ``(event_id, user_id)`` and is taken over,
        not copied.  The caller vouches for all of this, for feasibility and
        for the bid constraint: nothing is checked, exactly as for
        ``add(..., check=False)``.
        """
        arrangement = cls.__new__(cls)
        arrangement.instance = instance
        index = instance.index
        arrangement._idx = index
        num_users, num_events = index.num_users, index.num_events
        arrangement._assigned = np.zeros(  # igepa: ignore[IGP002]
            (num_users, num_events), dtype=bool
        )
        arrangement._assigned[rows, cols] = True
        arrangement._attendance = np.bincount(cols, minlength=num_events).astype(
            np.int64, copy=False
        )
        load = np.bincount(rows, minlength=num_users).astype(np.int64, copy=False)
        arrangement._load = load
        bounds = np.zeros(num_users + 1, dtype=np.int64)
        np.cumsum(load, out=bounds[1:])
        cols_list = cols.tolist()
        bounds_list = bounds.tolist()
        arrangement._user_events = [
            cols_list[start:stop]
            for start, stop in zip(bounds_list, bounds_list[1:])
        ]
        arrangement._pairs = pairs
        arrangement._extra_pairs = set()
        arrangement._nonbid_count = 0
        return arrangement

    def is_clean(self) -> bool:
        """All pairs are known bid pairs — the array views cover everything
        and the vectorized totals are exact."""
        return not self._extra_pairs and not self._nonbid_count

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _addition_violation(
        self, event_id: int, user_id: int, explain: bool
    ) -> str | None:
        """The single rule set behind ``can_add`` and checked ``add``.

        Returns None when the pair is addable; otherwise a violation marker —
        the full message when ``explain``, the empty string when the caller
        only needs a boolean (skipping the f-string work on hot paths).
        """
        index = self._idx
        vpos = index.event_pos.get(event_id)
        if vpos is None:
            return f"unknown event id {event_id}" if explain else ""
        upos = index.user_pos.get(user_id)
        if upos is None:
            return f"unknown user id {user_id}" if explain else ""
        if self._assigned[upos, vpos]:
            return (
                f"pair ({event_id}, {user_id}) already present" if explain else ""
            )
        if not index.is_bid_pair(upos, vpos):
            return (
                f"bid constraint: user {user_id} did not bid for event {event_id}"
                if explain
                else ""
            )
        if self._attendance[vpos] >= index.event_capacity[vpos]:
            return (
                f"capacity constraint: event {event_id} is full "
                f"(c_v = {int(index.event_capacity[vpos])})"
                if explain
                else ""
            )
        if self._load[upos] >= index.user_capacity[upos]:
            return (
                f"capacity constraint: user {user_id} is at capacity "
                f"(c_u = {int(index.user_capacity[upos])})"
                if explain
                else ""
            )
        row = index.conflict_matrix[vpos]
        for assigned in self._user_events[upos]:
            if row[assigned]:
                return (
                    f"conflict constraint: events {event_id} and "
                    f"{int(index.event_ids[assigned])} conflict for user {user_id}"
                    if explain
                    else ""
                )
        return None

    def can_add(self, event_id: int, user_id: int) -> bool:
        """Whether adding the pair keeps the arrangement feasible."""
        return self._addition_violation(event_id, user_id, explain=False) is None

    def _check_addition(self, event_id: int, user_id: int) -> None:
        problem = self._addition_violation(event_id, user_id, explain=True)
        if problem is not None:
            raise ArrangementError(problem)

    def add(self, event_id: int, user_id: int, check: bool = True) -> None:
        """Add a pair.

        Raises:
            ArrangementError: when ``check`` and the pair violates a
                constraint of Definition 4 (or is already present).
        """
        if check:
            self._check_addition(event_id, user_id)
        index = self._idx
        vpos = index.event_pos.get(event_id)
        upos = index.user_pos.get(user_id)
        self._pairs.add((event_id, user_id))
        if vpos is None or upos is None:
            self._extra_pairs.add((event_id, user_id))
            return
        if self._assigned[upos, vpos]:
            return  # unchecked re-add: keep set semantics, counters untouched
        self._assigned[upos, vpos] = True
        self._attendance[vpos] += 1
        self._load[upos] += 1
        self._user_events[upos].append(vpos)
        if not index.is_bid_pair(upos, vpos):
            self._nonbid_count += 1

    def remove(self, event_id: int, user_id: int) -> None:
        """Remove a pair.

        Raises:
            ArrangementError: if the pair is not present.
        """
        if (event_id, user_id) not in self._pairs:
            raise ArrangementError(f"pair ({event_id}, {user_id}) not in arrangement")
        self._pairs.discard((event_id, user_id))
        if (event_id, user_id) in self._extra_pairs:
            self._extra_pairs.discard((event_id, user_id))
            return
        index = self._idx
        vpos = index.event_pos[event_id]
        upos = index.user_pos[user_id]
        self._assigned[upos, vpos] = False
        self._attendance[vpos] -= 1
        self._load[upos] -= 1
        self._user_events[upos].remove(vpos)
        if not index.is_bid_pair(upos, vpos):
            self._nonbid_count -= 1

    @classmethod
    def from_pairs(
        cls,
        instance: IGEPAInstance,
        pairs: Iterable[tuple[int, int]],
        check: bool = True,
    ) -> "Arrangement":
        """Build an arrangement from ``(event_id, user_id)`` pairs."""
        arrangement = cls(instance)
        for event_id, user_id in pairs:
            arrangement.add(event_id, user_id, check=check)
        return arrangement

    # ------------------------------------------------------------------
    # Feasibility audit (full re-check, independent of incremental guards)
    # ------------------------------------------------------------------
    def _has_violation(self) -> bool:
        """Vectorized any-violation probe over the array state."""
        if self._extra_pairs or self._nonbid_count:
            return True
        index = self._idx
        if np.any(self._attendance > index.event_capacity):
            return True
        if np.any(self._load > index.user_capacity):
            return True
        multi = np.flatnonzero(self._load >= 2)
        if multi.size:
            # A user attends conflicting events iff their assignment row hits
            # the conflict matrix: (B C) ∘ B has a positive entry.  Only rows
            # with two or more events can hit, so the product is restricted
            # to them — O(multi · |V|²) instead of O(|U| · |V|²).
            rows = self._assigned[multi]
            hits = rows.astype(np.float32) @ index.conflict_f32
            if bool(np.any(hits[rows] > 0.0)):
                return True
        return False

    def violations(self) -> list[str]:
        """All constraint violations in the current pair set."""
        if not self._has_violation():
            return []
        instance = self.instance
        problems: list[str] = []
        for event_id, user_id in sorted(self._pairs):
            user = instance.user_by_id.get(user_id)
            if user is None:
                problems.append(f"unknown user {user_id}")
                continue
            if event_id not in instance.event_by_id:
                problems.append(f"unknown event {event_id}")
                continue
            if event_id not in user.bid_set:
                problems.append(
                    f"bid: user {user_id} assigned to non-bid event {event_id}"
                )
        by_event: dict[int, set[int]] = {}
        by_user: dict[int, set[int]] = {}
        for event_id, user_id in self._pairs:
            by_event.setdefault(event_id, set()).add(user_id)
            by_user.setdefault(user_id, set()).add(event_id)
        for event_id, users in sorted(by_event.items()):
            event = instance.event_by_id.get(event_id)
            if event is not None and len(users) > event.capacity:
                problems.append(
                    f"capacity: event {event_id} has {len(users)} attendees, "
                    f"c_v = {event.capacity}"
                )
        for user_id, events in sorted(by_user.items()):
            user = instance.user_by_id.get(user_id)
            if user is not None and len(events) > user.capacity:
                problems.append(
                    f"capacity: user {user_id} attends {len(events)} events, "
                    f"c_u = {user.capacity}"
                )
            ordered = sorted(e for e in events if e in instance.event_by_id)
            for i, first in enumerate(ordered):
                for second in ordered[i + 1 :]:
                    if instance.conflicts(first, second):
                        problems.append(
                            f"conflict: user {user_id} attends conflicting events "
                            f"{first} and {second}"
                        )
        return problems

    def is_feasible(self) -> bool:
        """Full feasibility audit (Definition 4)."""
        return not self._has_violation()

    # ------------------------------------------------------------------
    # Utility (Definition 7)
    # ------------------------------------------------------------------
    def utility(self) -> float:
        """``β·Σ SI + (1-β)·Σ D`` over all assigned pairs.

        The clean path gathers the pair weights from the index and sums them
        with :func:`math.fsum` — correctly rounded and independent of pair
        insertion order, so equal arrangements always report equal utility.
        """
        if not self._pairs:
            return 0.0
        if self.is_clean():
            return math.fsum(self._idx.assigned_weight_total(self._assigned))
        return sum(
            self.instance.weight(user_id, event_id)
            for event_id, user_id in self._pairs
        )

    def interest_total(self) -> float:
        """The Σ SI part of the utility (before the β weighting)."""
        if not self._pairs:
            return 0.0
        if self.is_clean():
            return math.fsum(self._idx.assigned_si_total(self._assigned))
        return sum(
            self.instance.interest_of(event_id, user_id)
            for event_id, user_id in self._pairs
        )

    def interaction_total(self) -> float:
        """The Σ D part of the utility (before the 1-β weighting)."""
        if not self._pairs:
            return 0.0
        if self.is_clean():
            return float(self._idx.degrees @ self._load)
        return sum(
            self.instance.degree(user_id) for _, user_id in self._pairs
        )

    def copy(self) -> "Arrangement":
        clone = Arrangement.__new__(Arrangement)
        clone.instance = self.instance
        clone._idx = self._idx
        clone._pairs = set(self._pairs)
        clone._assigned = self._assigned.copy()
        clone._attendance = self._attendance.copy()
        clone._load = self._load.copy()
        clone._user_events = [list(events) for events in self._user_events]
        clone._extra_pairs = set(self._extra_pairs)
        clone._nonbid_count = self._nonbid_count
        return clone

    def __repr__(self) -> str:
        return (
            f"Arrangement(pairs={len(self._pairs)}, "
            f"utility={self.utility():.4f})"
        )
