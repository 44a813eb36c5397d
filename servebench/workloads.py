"""The benchmark's workloads: fixed-seed request traces plus service settings.

Each workload is a synthetic platform (``repro.datagen``) and a churn trace
exploded into timestamped requests, replayed through the public serving API
(``TickEngine`` + ``ArrangementService`` on a ``VirtualClock``).  The seed is
the only input that varies between runs; the program only ever sees the
generated trace.  README.md records why each workload exists and which layer
it stresses.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

from repro.datagen import (
    ChurnConfig,
    SyntheticConfig,
    generate_churn_trace,
    generate_synthetic,
)
from repro.datagen.churn import RequestTrace, generate_request_trace
from repro.service import (
    AdmissionPolicy,
    AdmitAll,
    ArrivalRequest,
    DeadlineQueue,
    DefragSchedule,
    PeriodicDefrag,
    ServiceConfig,
    TickEngine,
    VirtualClock,
)

# Seed of every workload's starting platform.  Fixing it keeps the spread
# across ``--seed`` values to what the traffic does, not to how lucky one
# synthetic platform's capacities are (README.md, "Noise").
PLATFORM_SEED = 20190408
# Micro-batcher size cap and age limit (decision-time seconds), shared by
# every workload.
MAX_BATCH = 64
MAX_WAIT = 0.25


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the service configuration it runs under.

    Attributes:
        name: the name ``--workload`` selects.
        users / events: initial platform size (|U|, |V|).
        churn: :class:`~repro.datagen.ChurnConfig` fields (Poisson rates per
            one-second window; ``num_batches`` is the trace horizon).
        arrival_span: share of each one-second window the arrivals occupy
            (from its start).  With ``arrival_span + MAX_WAIT < 1`` every
            arrival's tick is cut before the next window's churn request,
            so a departure never removes an arrival still waiting for its
            answer.
        queue: ``(max_serve, deadline)`` of a :class:`DeadlineQueue`
            admission policy; None admits every arrival.
        defrag_period: defragment every this many ticks (0: never); each
            defragmentation ends with the LP re-solve (rebuild + default
            backend), adopted on gain.
    """

    name: str
    users: int
    events: int
    churn: dict = field(default_factory=dict)
    arrival_span: float = 1.0
    queue: tuple[int, float] | None = None
    defrag_period: int = 0

    def request_trace(
        self, seed: int, *, poll: Callable[[], None] = lambda: None
    ) -> RequestTrace:
        """The workload's request trace for ``seed`` (same seed, same trace).

        The starting platform is the same for every seed; the seed draws the
        traffic (arrivals, their bids and timing, and every churn operation).
        ``poll`` is called between the generation steps (the benchmark's
        clock probes the host speed there).
        """
        instance = generate_synthetic(
            SyntheticConfig(num_users=self.users, num_events=self.events),
            seed=PLATFORM_SEED,
        )
        poll()
        churn = generate_churn_trace(
            instance, ChurnConfig(**self.churn), seed=seed + 1
        )
        poll()
        trace = generate_request_trace(churn, batch_seconds=1.0, seed=seed + 2)
        if self.arrival_span < 1.0:
            trace.requests = [
                replace(
                    request,
                    timestamp=math.floor(request.timestamp)
                    + (request.timestamp % 1.0) * self.arrival_span,
                )
                if isinstance(request, ArrivalRequest)
                else request
                for request in trace.requests
            ]
        return trace

    def admission(self) -> AdmissionPolicy:
        if self.queue is None:
            return AdmitAll()
        max_serve, deadline = self.queue
        return DeadlineQueue(max_serve, deadline=deadline)

    def service_config(self) -> ServiceConfig:
        return ServiceConfig(
            max_batch=MAX_BATCH, max_wait=MAX_WAIT, admission=self.admission()
        )

    def engine(
        self,
        trace: RequestTrace,
        seed: int,
        *,
        engine_cls: type[TickEngine] = TickEngine,
        check_parity: bool = False,
        **engine_kwargs,
    ) -> TickEngine:
        """A fresh engine on the trace's starting platform."""
        defrag = (
            PeriodicDefrag(self.defrag_period)
            if self.defrag_period
            else DefragSchedule()
        )
        return engine_cls(
            trace.initial,
            seed=seed,
            defrag=defrag,
            oracle_every=0,
            defrag_lp=bool(self.defrag_period),
            check_parity=check_parity,
            clock=VirtualClock(),
            **engine_kwargs,
        )


WORKLOADS: dict[str, Workload] = {
    # Arrival-heavy bursts under deadline-queue admission; no defrag, no LP.
    # Bursts overflow ``max_serve`` so arrivals requeue, but the deadline is
    # long enough that none expires, and no departure can remove a queued
    # arrival.  Many moderate bursts rather than a few large ones: the p90
    # lies in the burst backlogs, and averages over more of them.
    "arrivals": Workload(
        name="arrivals",
        users=2000,
        events=300,
        churn=dict(
            num_batches=38,
            user_arrival_rate=60.0,
            user_departure_rate=0.0,
            rebid_rate=8.0,
            event_open_rate=0.0,
            event_close_rate=0.0,
            conflict_toggle_rate=1.0,
            burst_every=4,
            burst_user_multiplier=2.5,
            burst_event_close_fraction=0.0,
        ),
        queue=(40, 8.0),
    ),
    # Moderate |U|, defrag (local search + LP rebuild/solve) on every tick,
    # admit-all: every arrival waits behind exactly one LP.
    "defrag-lp": Workload(
        name="defrag-lp",
        users=400,
        events=80,
        churn=dict(
            num_batches=18,
            user_arrival_rate=15.0,
            user_departure_rate=0.0,
            rebid_rate=10.0,
            event_open_rate=0.0,
            event_close_rate=0.0,
            conflict_toggle_rate=1.0,
        ),
        defrag_period=1,
    ),
    # Large |U|, mutation-heavy deltas (rebids, drift, capacity shocks,
    # departures, event open/close, conflict toggles), arrivals one
    # operation in nine, no LP.
    # Arrivals fill the first 0.7 s of each second (see ``arrival_span``).
    "churn": Workload(
        name="churn",
        users=5000,
        events=500,
        churn=dict(
            num_batches=20,
            user_arrival_rate=40.0,
            user_departure_rate=30.0,
            rebid_rate=100.0,
            event_open_rate=2.0,
            event_close_rate=2.0,
            conflict_toggle_rate=5.0,
            drift_rate=150.0,
            capacity_shock_rate=8.0,
            user_capacity_shock_rate=25.0,
        ),
        arrival_span=0.7,
    ),
}
