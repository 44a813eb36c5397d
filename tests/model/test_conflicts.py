"""Unit tests for conflict functions."""

import numpy as np
import pytest

from repro.model import (
    AlwaysConflict,
    CompositeConflict,
    Event,
    MatrixConflict,
    NoConflict,
    TimeIntervalConflict,
    conflict_from_dict,
    conflict_matrix,
    validate_symmetry,
)


def _event(event_id, start=None, duration=None):
    return Event(event_id=event_id, capacity=5, start_time=start, duration=duration)


class TestTrivialFunctions:
    def test_no_conflict(self):
        f = NoConflict()
        assert not f.conflicts(_event(1), _event(2))
        assert not f(_event(1), _event(1))

    def test_always_conflict_distinct(self):
        f = AlwaysConflict()
        assert f.conflicts(_event(1), _event(2))
        assert not f.conflicts(_event(1), _event(1))


class TestMatrixConflict:
    def test_explicit_pairs(self):
        f = MatrixConflict([(1, 2)])
        assert f.conflicts(_event(1), _event(2))
        assert f.conflicts(_event(2), _event(1))
        assert not f.conflicts(_event(1), _event(3))

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError, match="itself"):
            MatrixConflict([(1, 1)])

    def test_same_event_never_conflicts(self):
        f = MatrixConflict([(1, 2)])
        assert not f.conflicts(_event(1), _event(1))

    def test_sample_density(self):
        rng = np.random.default_rng(0)
        ids = list(range(100))
        f = MatrixConflict.sample(ids, 0.3, rng)
        expected = 0.3 * 100 * 99 / 2
        assert abs(f.num_conflicting_pairs - expected) < 0.15 * expected

    def test_sample_extremes(self):
        rng = np.random.default_rng(0)
        assert MatrixConflict.sample(range(10), 0.0, rng).num_conflicting_pairs == 0
        assert MatrixConflict.sample(range(10), 1.0, rng).num_conflicting_pairs == 45

    def test_sample_invalid_probability(self):
        with pytest.raises(ValueError, match="probability"):
            MatrixConflict.sample(range(3), 2.0, np.random.default_rng(0))

    def test_with_edits_prunes_listed_partners(self):
        f = MatrixConflict.sample(range(12), 0.4, np.random.default_rng(3))
        before = f.pairs()
        assert any(2 in pair for pair in before)
        closing = {2: [], 7: []}
        for low, high in f.pairs():
            for event_id in closing:
                if event_id in (low, high):
                    closing[event_id].append(high if low == event_id else low)
        successor = f.with_edits(
            add=[(0, 11)] if not f.conflicts_ids(0, 11) else [],
            remove=[f.pairs()[0]],
            drop_events=closing,
        )
        expected = {
            pair
            for pair in f.pairs()[1:]
            if not set(pair) & set(closing)
        } | {(0, 11)}
        assert successor.pairs() == sorted(expected)
        assert successor.to_dict() == MatrixConflict(expected).to_dict()
        assert f.pairs() == before  # the predecessor is untouched

    def test_sample_deterministic(self):
        f1 = MatrixConflict.sample(range(20), 0.5, np.random.default_rng(7))
        f2 = MatrixConflict.sample(range(20), 0.5, np.random.default_rng(7))
        assert f1.to_dict() == f2.to_dict()


class TestTimeIntervalConflict:
    def test_overlap_conflicts(self):
        f = TimeIntervalConflict()
        assert f.conflicts(_event(1, 0.0, 2.0), _event(2, 1.0, 2.0))

    def test_containment_conflicts(self):
        f = TimeIntervalConflict()
        assert f.conflicts(_event(1, 0.0, 10.0), _event(2, 3.0, 1.0))

    def test_disjoint_do_not_conflict(self):
        f = TimeIntervalConflict()
        assert not f.conflicts(_event(1, 0.0, 1.0), _event(2, 5.0, 1.0))

    def test_touching_intervals_do_not_conflict(self):
        f = TimeIntervalConflict()
        assert not f.conflicts(_event(1, 0.0, 2.0), _event(2, 2.0, 2.0))

    def test_events_without_times_never_conflict(self):
        f = TimeIntervalConflict()
        assert not f.conflicts(_event(1), _event(2, 0.0, 5.0))
        assert not f.conflicts(_event(1), _event(2))

    def test_same_event_never_conflicts(self):
        f = TimeIntervalConflict()
        assert not f.conflicts(_event(1, 0.0, 2.0), _event(1, 0.0, 2.0))


class TestCompositeConflict:
    def test_or_semantics(self):
        f = CompositeConflict([MatrixConflict([(1, 2)]), TimeIntervalConflict()])
        assert f.conflicts(_event(1), _event(2))  # by matrix
        assert f.conflicts(_event(3, 0.0, 2.0), _event(4, 1.0, 1.0))  # by time
        assert not f.conflicts(_event(3), _event(4))

    def test_empty_members_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            CompositeConflict([])


class TestHelpers:
    def test_conflict_matrix(self):
        events = [_event(1, 0.0, 2.0), _event(2, 1.0, 2.0), _event(3, 9.0, 1.0)]
        matrix = conflict_matrix(events, TimeIntervalConflict())
        assert matrix[0, 1] and matrix[1, 0]
        assert not matrix[0, 2]
        assert not matrix.diagonal().any()

    def test_validate_symmetry_accepts_builtin(self):
        events = [_event(i, float(i), 1.5) for i in range(5)]
        validate_symmetry(events, TimeIntervalConflict())

    def test_validate_symmetry_rejects_asymmetric(self):
        class Broken(TimeIntervalConflict):
            def conflicts(self, first, second):
                return first.event_id < second.event_id

        with pytest.raises(ValueError, match="asymmetric"):
            validate_symmetry([_event(1), _event(2)], Broken())

    def test_validate_symmetry_rejects_reflexive(self):
        class Reflexive(TimeIntervalConflict):
            def conflicts(self, first, second):
                return True

        with pytest.raises(ValueError, match="reflexive"):
            validate_symmetry([_event(1)], Reflexive())


class TestSerialization:
    @pytest.mark.parametrize(
        "function",
        [
            NoConflict(),
            AlwaysConflict(),
            MatrixConflict([(1, 2), (3, 4)]),
            TimeIntervalConflict(),
            CompositeConflict([NoConflict(), MatrixConflict([(1, 5)])]),
        ],
        ids=["none", "always", "matrix", "time", "composite"],
    )
    def test_round_trip(self, function):
        restored = conflict_from_dict(function.to_dict())
        events = [_event(i, float(i % 3), 1.5) for i in range(1, 7)]
        for i, first in enumerate(events):
            for second in events[i + 1 :]:
                assert function.conflicts(first, second) == restored.conflicts(
                    first, second
                )

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown conflict"):
            conflict_from_dict({"kind": "martian"})
