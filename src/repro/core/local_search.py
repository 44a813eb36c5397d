"""Local-search post-processing for arrangements.

Not part of the paper's algorithm, but a natural improvement layer a
production EBSN platform would bolt on: take any feasible arrangement and
apply utility-increasing moves until a local optimum.  Three move types:

* **add** — insert a feasible missing (event, user) pair (weights are
  nonnegative, so additions never hurt);
* **upgrade** — replace one of a user's assigned events with a strictly
  heavier bid of theirs that is feasible after the swap;
* **evict** — at a full event, replace its lightest attendee with a heavier
  waiting bidder (the evicted user keeps their other events).

Each accepted move raises the utility by at least ``min_gain``, so the
search terminates; a pass cap bounds the worst case.  Wrapped as
:class:`LocalSearch`, it composes with any base algorithm::

    LocalSearch(RandomU()).solve(instance)   # name: "random-u+ls"

The move scans run on a :class:`_SearchState` snapshot of the instance's
:class:`~repro.model.index.InstanceIndex` — bid weights, capacities and the
conflict matrix unpacked into plain Python lists once per ``improve`` call —
so feasibility probes are scalar lookups instead of the remove/`can_add`/
re-add cycles of the naive implementation.  Selection order is unchanged:
first maximum feasible gain in bid order (upgrade) or bidder order (evict).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.base import ArrangementAlgorithm
from repro.model.arrangement import Arrangement
from repro.model.instance import IGEPAInstance

_MIN_GAIN = 1e-9


class _SearchState:
    """Index data unpacked to Python lists plus live attendance/load mirrors.

    ``user_scope`` limits the per-user bid-list unpacking to the users the
    caller will actually scan (targeted churn repair touches a handful of
    users out of thousands); the remaining snapshots — ids, capacities, the
    conflict rows — stay whole because move candidates (evict bidders,
    upgrade targets) range over the full platform.
    """

    def __init__(
        self,
        instance: IGEPAInstance,
        arrangement: Arrangement,
        user_scope: Sequence[int] | None = None,
    ):
        index = instance.index
        self.instance = instance
        self.arrangement = arrangement
        self.index = index
        self.user_ids = index.user_ids.tolist()
        self.event_ids = index.event_ids.tolist()
        self.user_cap = index.user_capacity.tolist()
        self.event_cap = index.event_capacity.tolist()
        # list when unpacking every user, dict when scoped — both are
        # indexed as ``user_bid_positions[upos]`` by the move scans.  The
        # scoped branch slices the CSR arrays per user so cost stays
        # O(scope's bids), not O(total bids).
        if user_scope is None:
            indptr = index.bid_indptr.tolist()
            positions = index.bid_indices.tolist()
            weights = index.bid_weights.tolist()
            self.user_bid_positions = [
                positions[indptr[i] : indptr[i + 1]] for i in range(index.num_users)
            ]
            self.user_bid_weights = [
                weights[indptr[i] : indptr[i + 1]] for i in range(index.num_users)
            ]
        else:
            indptr = index.bid_indptr
            self.user_bid_positions = {
                i: index.bid_indices[indptr[i] : indptr[i + 1]].tolist()
                for i in user_scope
            }
            self.user_bid_weights = {
                i: index.bid_weights[indptr[i] : indptr[i + 1]].tolist()
                for i in user_scope
            }
        self.conflict_rows = index.conflict_matrix.tolist()
        # Mirrors of the arrangement counters, updated at each accepted move.
        self.attendance = arrangement.attendance_counts.tolist()
        self.load = arrangement.load_counts.tolist()

    def pair_weight(self, upos: int, vpos: int) -> float:
        """``w(u, v)`` of an *assigned* pair, tolerating non-bid assignments."""
        index = self.index
        if index.is_bid_pair(upos, vpos):
            return index.weight_at(upos, vpos)
        return self.instance.weight(self.user_ids[upos], self.event_ids[vpos])

    def apply_add(self, upos: int, vpos: int) -> None:
        self.arrangement.add(self.event_ids[vpos], self.user_ids[upos], check=False)
        self.attendance[vpos] += 1
        self.load[upos] += 1

    def apply_swap(self, upos: int, old_vpos: int, new_vpos: int) -> None:
        user_id = self.user_ids[upos]
        self.arrangement.remove(self.event_ids[old_vpos], user_id)
        self.arrangement.add(self.event_ids[new_vpos], user_id, check=False)
        self.attendance[old_vpos] -= 1
        self.attendance[new_vpos] += 1

    def apply_evict(self, vpos: int, out_upos: int, in_upos: int) -> None:
        event_id = self.event_ids[vpos]
        self.arrangement.remove(event_id, self.user_ids[out_upos])
        self.arrangement.add(event_id, self.user_ids[in_upos], check=False)
        self.load[out_upos] -= 1
        self.load[in_upos] += 1


def _try_add_moves(state: _SearchState, user_scan: Sequence[int]) -> int:
    arrangement = state.arrangement
    attendance = state.attendance
    load = state.load
    event_cap = state.event_cap
    conflict_rows = state.conflict_rows
    accepted = 0
    for upos in user_scan:
        capacity = state.user_cap[upos]
        if load[upos] >= capacity:
            continue
        assigned = arrangement.assigned_event_positions(upos)  # live view
        weights = state.user_bid_weights[upos]
        for offset, vpos in enumerate(state.user_bid_positions[upos]):
            if load[upos] >= capacity:
                break
            if weights[offset] <= _MIN_GAIN:
                continue
            if vpos in assigned:
                continue
            if attendance[vpos] >= event_cap[vpos]:
                continue
            row = conflict_rows[vpos]
            if any(row[p] for p in assigned):
                continue
            state.apply_add(upos, vpos)
            accepted += 1
    return accepted


def _try_refill_moves(state: _SearchState, event_scan: Sequence[int]) -> int:
    """Event-major add moves: fill free seats from the event's bidder pool.

    The user-major add scan only sees users in its scope; churn repair
    scopes to *touched* users, so a seat freed on a touched event would
    never be offered to its (untouched) bidders.  This scan closes that
    gap; weights are nonnegative, so every accepted refill is a gain.
    Disabled in the default full-scope search, where the user-major scan
    already covers every candidate (keeping move order — and therefore
    fixed-seed results — unchanged).
    """
    arrangement = state.arrangement
    index = state.index
    attendance = state.attendance
    load = state.load
    conflict_rows = state.conflict_rows
    accepted = 0
    for vpos in event_scan:
        capacity = state.event_cap[vpos]
        if attendance[vpos] >= capacity:
            continue
        assigned_column = arrangement.assignment_matrix[:, vpos]
        bidder_weights = index.event_bidder_weights(vpos).tolist()
        row = conflict_rows[vpos]
        for offset, bidder in enumerate(index.event_bidder_positions(vpos).tolist()):
            if attendance[vpos] >= capacity:
                break
            if assigned_column[bidder]:
                continue
            if bidder_weights[offset] <= _MIN_GAIN:
                continue
            if load[bidder] >= state.user_cap[bidder]:
                continue
            if any(row[p] for p in arrangement.assigned_event_positions(bidder)):
                continue
            state.apply_add(bidder, vpos)
            accepted += 1
    return accepted


def _try_upgrade_moves(state: _SearchState, user_scan: Sequence[int]) -> int:
    arrangement = state.arrangement
    attendance = state.attendance
    event_cap = state.event_cap
    conflict_rows = state.conflict_rows
    event_ids = state.event_ids
    accepted = 0
    for upos in user_scan:
        assigned = arrangement.assigned_event_positions(upos)  # live view
        if not assigned:
            continue
        if state.load[upos] - 1 >= state.user_cap[upos]:
            continue  # overloaded user: no swap can be feasible
        # Scan in event-id order, as the scalar pass did.
        snapshot = sorted(assigned, key=event_ids.__getitem__)
        bids = state.user_bid_positions[upos]
        weights = state.user_bid_weights[upos]
        for current in snapshot:
            current_weight = state.pair_weight(upos, current)
            best = None
            best_gain = _MIN_GAIN
            others = [p for p in assigned if p != current]
            for offset, candidate in enumerate(bids):
                gain = weights[offset] - current_weight
                if gain <= best_gain:
                    continue
                if candidate in assigned:
                    continue
                if attendance[candidate] >= event_cap[candidate]:
                    continue
                row = conflict_rows[candidate]
                if any(row[p] for p in others):
                    continue
                best = candidate
                best_gain = gain
            if best is not None:
                state.apply_swap(upos, current, best)
                accepted += 1
    return accepted


def _try_evict_moves(state: _SearchState, event_scan: Sequence[int]) -> int:
    if state.arrangement.is_clean():
        return _try_evict_moves_clean(state, event_scan)
    return _try_evict_moves_scalar(state, event_scan)


def _try_evict_moves_clean(state: _SearchState, event_scan: Sequence[int]) -> int:
    """Vectorized evict scan for clean arrangements (every pair a bid pair).

    Selects the same moves as the scalar scan: the lightest attendee by
    ``(w(u, v), user_id)`` and the first bidder (in bidder order) carrying
    the maximum feasible gain — realized here as a stable descending-gain
    sort probed until the first conflict-feasible candidate.
    """
    arrangement = state.arrangement
    index = state.index
    conflict_rows = state.conflict_rows
    assigned = arrangement.assignment_matrix
    load = arrangement.load_counts
    user_capacity = index.user_capacity
    user_ids = index.user_ids
    # Only an exactly-full event can take an eviction (below capacity the
    # add moves cover it; above, it stays full even after one), and an
    # eviction never changes attendance, so the full events are known up
    # front.  Their attendee groups come from one gather of just those
    # columns, O(|U|) per full event.  An eviction only rewrites its own
    # event's column, and no event repeats within a pass, so the snapshot
    # stays exact for every event still to scan.
    attendance = state.attendance
    event_cap = state.event_cap
    full = [vpos for vpos in event_scan if attendance[vpos] == event_cap[vpos]]
    if not full:
        return 0
    group_of, grouped_rows = np.nonzero(assigned.T[full])
    boundaries = np.searchsorted(group_of, np.arange(len(full) + 1)).tolist()
    accepted = 0
    for group, vpos in enumerate(full):
        attendees = grouped_rows[boundaries[group] : boundaries[group + 1]]
        if not attendees.size:
            continue
        weights = index.pair_weights(attendees, vpos)
        order = np.lexsort((user_ids[attendees], weights))
        lightest = int(attendees[order[0]])
        lightest_weight = float(weights[order[0]])

        bidders = index.event_bidder_positions(vpos)
        gains = index.event_bidder_weights(vpos) - lightest_weight
        mask = (
            (gains > _MIN_GAIN)
            & ~assigned[bidders, vpos]
            & (load[bidders] < user_capacity[bidders])
        )
        candidates = bidders[mask]
        if not candidates.size:
            continue
        row = conflict_rows[vpos]
        # Stable descending-gain order: the first conflict-feasible probe is
        # the first maximum-feasible-gain bidder of the scalar scan.
        for k in np.argsort(-gains[mask], kind="stable").tolist():
            bidder = int(candidates[k])
            if any(row[p] for p in arrangement.assigned_event_positions(bidder)):
                continue
            state.apply_evict(vpos, lightest, bidder)
            accepted += 1
            break
    return accepted


def _try_evict_moves_scalar(state: _SearchState, event_scan: Sequence[int]) -> int:
    """Reference evict scan; tolerates non-bid pairs via ``pair_weight``."""
    arrangement = state.arrangement
    index = state.index
    conflict_rows = state.conflict_rows
    accepted = 0
    for vpos in event_scan:
        if state.attendance[vpos] < state.event_cap[vpos]:
            continue  # not full: add moves already cover it
        if state.attendance[vpos] - 1 >= state.event_cap[vpos]:
            continue  # over capacity: even after an eviction the event is full
        attendees = np.flatnonzero(arrangement.assignment_matrix[:, vpos]).tolist()
        if not attendees:
            continue
        # min by (weight, user_id), as the scalar scan ordered it.
        lightest, lightest_weight = min(
            ((u, state.pair_weight(u, vpos)) for u in attendees),
            key=lambda item: (item[1], state.user_ids[item[0]]),
        )
        column = index.weight_column(vpos)
        best = None
        best_gain = _MIN_GAIN
        for bidder in index.event_bidder_positions(vpos).tolist():
            if arrangement.assignment_matrix[bidder, vpos]:
                continue
            gain = float(column[bidder]) - lightest_weight
            if gain <= best_gain:
                continue
            if state.load[bidder] >= state.user_cap[bidder]:
                continue
            row = conflict_rows[vpos]
            if any(row[p] for p in arrangement.assigned_event_positions(bidder)):
                continue
            best = bidder
            best_gain = gain
        if best is not None:
            state.apply_evict(vpos, lightest, best)
            accepted += 1
    return accepted


def improve(
    instance: IGEPAInstance,
    arrangement: Arrangement,
    max_passes: int = 20,
    user_positions: Sequence[int] | None = None,
    event_positions: Sequence[int] | None = None,
    refill_events: bool = False,
) -> dict:
    """Run add/upgrade/evict passes in place until a local optimum.

    Args:
        instance: the instance the arrangement belongs to.
        arrangement: improved in place.
        max_passes: cap on improvement passes.
        user_positions: restrict add/upgrade scans to these user positions
            (default: all users).  Targeted churn repair passes the touched
            users only.
        event_positions: restrict evict scans to these event positions
            (default: all events).
        refill_events: additionally run the event-major refill scan over
            ``event_positions`` (see :func:`_try_refill_moves`).  Needed by
            scoped repair; redundant — and off — for full-scope searches.

    Returns:
        Move counts: ``{"adds": ..., "refills": ..., "upgrades": ...,
        "evictions": ..., "passes": ...}``.
    """
    user_scan = (
        range(instance.index.num_users)
        if user_positions is None
        else sorted(user_positions)
    )
    state = _SearchState(
        instance,
        arrangement,
        user_scope=None if user_positions is None else user_scan,
    )
    event_scan = (
        range(instance.index.num_events)
        if event_positions is None
        else sorted(event_positions)
    )
    totals = {"adds": 0, "refills": 0, "upgrades": 0, "evictions": 0, "passes": 0}
    for _ in range(max_passes):
        adds = _try_add_moves(state, user_scan)
        refills = (
            _try_refill_moves(state, event_scan) if refill_events else 0
        )
        upgrades = _try_upgrade_moves(state, user_scan)
        evictions = _try_evict_moves(state, event_scan)
        moved = adds + refills + upgrades + evictions
        totals["adds"] += adds
        totals["refills"] += refills
        totals["upgrades"] += upgrades
        totals["evictions"] += evictions
        totals["passes"] += 1
        if moved == 0:
            break
    return totals


class LocalSearch(ArrangementAlgorithm):
    """Decorator algorithm: run ``base``, then local-search improve.

    Args:
        base: any arrangement algorithm whose output seeds the search.
        max_passes: cap on improvement passes.
    """

    def __init__(self, base: ArrangementAlgorithm, max_passes: int = 20):
        super().__init__(seed=base.seed)
        self.base = base
        self.max_passes = max_passes
        self.name = f"{base.name}+ls"

    def _solve(
        self, instance: IGEPAInstance, rng: np.random.Generator
    ) -> tuple[Arrangement, dict]:
        seed = int(rng.integers(2**31))
        base_result = self.base.solve(instance, seed=seed)
        arrangement = base_result.arrangement
        base_utility = base_result.utility
        moves = improve(instance, arrangement, max_passes=self.max_passes)
        details = dict(base_result.details)
        details.update(
            base_algorithm=self.base.name,
            base_utility=base_utility,
            local_search_moves=moves,
        )
        return arrangement, details
