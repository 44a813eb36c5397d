"""Closed-loop serving benchmark: replay a workload's trace, report metrics.

One in-process client submits each request of a fixed-seed trace to an
``ArrangementService`` as soon as the previous ``submit`` returns, then
drains.  A *round* is one full replay of one trace on a freshly set-up
engine; rounds, each on its own trace drawn from ``--seed``, repeat until
``--seconds`` of serving time have been measured.  Every decision reads
virtual time only, so every replay of a trace produces the same answers and
the same determinism fingerprint.  Every timing is read from a
host-speed-corrected clock (``clock.py``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` follows each
untraced round with a traced replay of its trace and reports the per-layer
metrics (README.md).  After the timed rounds of a traced run, an untimed
verification round replays the first trace with the patched-vs-rebuilt
index parity audit on.  The last line of standard output
is one JSON object; the exit code is non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import resource
import statistics

import numpy as np

from repro.service import ArrangementService, ArrivalRequest
from servebench.clock import HostClock
from servebench.tracing import GcMonitor, TracedEngine, Tracer, patched
from servebench.workloads import WORKLOADS, Workload

FAILED_OUTCOMES = ("rejected", "expired")
# The tail percentile reported as ``answer_p90_ms``.
TAIL = 0.9
# Fewest timed rounds per run.  Each round replays its own trace, so a run
# averages over this many traffic draws at least; the exact metrics
# (utility, accept and served shares) come from these first rounds only, so
# they do not depend on how many rounds the time allowed.
MIN_ROUNDS = 2
# ``setup_s`` is the median of at least ``SETUPS`` set-ups and of as many as
# make ``SETUP_SECONDS`` of set-up time (a sub-second set-up on its own is
# noisy).  Every timed round sets up once; extra set-ups make up the rest.
SETUPS = 7
SETUP_SECONDS = 2.0
# Fewest distinct ticks a run's answers slower than the tail cut must come
# from: fewer would make ``answer_p90_ms`` the wait of a handful of ticks.
TAIL_TICKS = 10


def fingerprint(report) -> str:
    payload = json.dumps(report.determinism_fingerprint(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


async def _closed_loop(
    service: ArrangementService, requests: list, clock: HostClock
) -> dict:
    """Submit each request when the previous ``submit`` returns; drain.

    The host-speed probe runs between submits; its time is left out of
    every reading, latencies included.
    """
    sent: dict[int, float] = {}
    latencies: list[tuple[float, int]] = []
    outcomes: list = []
    duplicates = 0

    def collect(responses) -> None:
        nonlocal duplicates
        now = clock.now()
        for response in responses:
            submitted = sent.pop(response.user_id, None)
            if submitted is None:
                duplicates += 1
                continue
            latencies.append((now - submitted, response.tick))
            outcomes.append(response)

    started, started_raw = clock.now(), clock.wall()
    for request in requests:
        clock.poll()
        if isinstance(request, ArrivalRequest):
            sent[request.user.user_id] = clock.now()
        collect(await service.submit(request))
    collect(await service.drain())
    return {
        "wall": clock.now() - started,
        "wall_raw": clock.wall() - started_raw,
        "latencies": latencies,
        "outcomes": outcomes,
        "unanswered": len(sent),
        "duplicates": duplicates,
    }


def set_up(
    workload: Workload,
    seed: int,
    clock: HostClock,
    *,
    tracer: Tracer | None = None,
    check_parity: bool = False,
) -> tuple:
    """Generate the trace, build the engine and bootstrap the service.

    Returns ``(service, trace, datagen_seconds, setup_seconds)``, read from
    ``clock``.  Collects garbage first, so earlier rounds' garbage is not
    collected on the set-up's time.
    """
    gc.collect()
    clock.poll()
    started = clock.now()
    trace = workload.request_trace(seed, poll=clock.poll)
    clock.poll()
    datagen = clock.now() - started
    if tracer is None:
        engine = workload.engine(trace, seed, check_parity=check_parity)
    else:
        engine = workload.engine(
            trace, seed, engine_cls=TracedEngine, tracer=tracer
        )
    service = ArrangementService(engine, workload.service_config())
    service.bootstrap()
    clock.poll()
    return service, trace, datagen, clock.now() - started


def run_round(
    workload: Workload,
    seed: int,
    clock: HostClock,
    *,
    tracer: Tracer | None = None,
    check_parity: bool = False,
) -> dict:
    """Set up from scratch, then replay the whole trace once."""
    service, trace, datagen, setup = set_up(
        workload, seed, clock, tracer=tracer, check_parity=check_parity
    )
    gc.collect()

    gc_monitor = GcMonitor()
    if tracer is None:
        served = asyncio.run(_closed_loop(service, trace.requests, clock))
    else:
        with patched(tracer), gc_monitor.watching():
            served = asyncio.run(_closed_loop(service, trace.requests, clock))
    report = service.report
    arrivals = sum(1 for r in trace.requests if isinstance(r, ArrivalRequest))
    outcomes = served["outcomes"]
    return {
        "setup": setup,
        "datagen": datagen,
        "bootstrap": setup - datagen,
        "wall": served["wall"],
        "wall_raw": served["wall_raw"],
        "latencies": served["latencies"],
        "arrivals": arrivals,
        "ticks": len(report.records),
        "answered": len(outcomes),
        "unanswered": served["unanswered"],
        "duplicates": served["duplicates"],
        "with_events": sum(1 for r in outcomes if r.events),
        "failed": sum(1 for r in outcomes if r.outcome in FAILED_OUTCOMES)
        + served["unanswered"],
        "feasible": report.all_feasible,
        "parity": report.all_parity,
        "utility": report.final_utility,
        "fingerprint": fingerprint(report),
        "report": report,
        "gc": gc_monitor,
    }


def check_round(round_: dict, reference: dict | None) -> list[str]:
    """Correctness problems of one round (empty: all good)."""
    problems = []
    if round_["unanswered"]:
        problems.append(f"{round_['unanswered']} arrivals never answered")
    if round_["duplicates"]:
        problems.append(
            f"{round_['duplicates']} answers matched no unanswered arrival"
        )
    if not round_["feasible"]:
        problems.append("a tick failed the Definition 4 feasibility audit")
    if not round_["parity"]:
        problems.append("patched index differs from a from-scratch rebuild")
    if reference is not None and round_["fingerprint"] != reference["fingerprint"]:
        problems.append(
            f"fingerprint {round_['fingerprint']} != {reference['fingerprint']}"
        )
    return problems


def tail_support(rounds: list[dict], cut: float) -> int:
    """Distinct (round, tick) pairs with an answer slower than ``cut``."""
    return len(
        {
            (number, tick)
            for number, round_ in enumerate(rounds)
            for latency, tick in round_["latencies"]
            if latency > cut
        }
    )


def pooled_latencies(rounds: list[dict]) -> list[float]:
    return [latency for r in rounds for latency, _ in r["latencies"]]


def round_seed(seed: int, number: int) -> int:
    """Seed of a run's ``number``-th trace: distinct across runs and rounds."""
    return seed * 1000 + number


def end_to_end(
    rounds: list[dict], setups: list[float], peak_rss_mb: float
) -> dict:
    p50, p90 = np.quantile(pooled_latencies(rounds), [0.5, TAIL])
    exact = rounds[:MIN_ROUNDS]
    arrivals = sum(r["arrivals"] for r in exact)
    return {
        "answer_p50_ms": (float(p50) * 1e3, "ms"),
        "answer_p90_ms": (float(p90) * 1e3, "ms"),
        "arrivals_per_s": (
            sum(r["answered"] for r in rounds) / sum(r["wall"] for r in rounds),
            "1/s",
        ),
        "utility": (statistics.fmean(r["utility"] for r in exact), "utility"),
        "accept_rate": (
            sum(r["with_events"] for r in exact) / arrivals,
            "fraction",
        ),
        "served_share": (
            1.0 - sum(r["failed"] for r in exact) / arrivals,
            "fraction",
        ),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(
    traced: list[dict],
    untraced: list[dict],
    tracers: list[Tracer],
    clock: HostClock,
) -> tuple[dict, list[str]]:
    """Per-layer metrics: medians over the traced rounds."""
    problems: list[str] = []
    samples: dict[str, list[float]] = {}
    units: dict[str, str] = {}

    def put(name: str, value: float, unit: str) -> None:
        samples.setdefault(name, []).append(float(value))
        units[name] = unit

    for round_, tracer in zip(traced, tracers):
        self_ms, calls, top_level_ms = tracer.self_ms()
        records = round_["report"].records
        # The program times each tick's admission + serve stage itself
        # (``ServeTickRecord.seconds``); the delta and serve spans lie
        # inside it.  More span time than stage time means the spans
        # measure something other than the calls they wrap.
        stage_ms = sum(record.seconds for record in records) * 1e3
        in_stage_ms = self_ms.get("delta.apply", 0.0) + self_ms.get(
            "online.serve", 0.0
        )
        if in_stage_ms > stage_ms:
            problems.append(
                f"delta and serve spans ({in_stage_ms:.1f} ms) exceed the "
                f"tick stages they lie in ({stage_ms:.1f} ms)"
            )
        # Spans and GC pauses are raw timer readings; the round's corrected
        # over raw wall puts them on the clock of every other timing.
        scale = round_["wall"] / round_["wall_raw"]

        def ms(name: str) -> float:
            return self_ms.get(name, 0.0) * scale

        delta_ops = sum(sum(record.operations.values()) for record in records)
        repair_moves = sum(
            sum(
                record.repair_moves.get(key, 0)
                for key in ("adds", "refills", "upgrades", "evictions")
            )
            for record in records
            if record.repair_moves
        )
        defrags = [record.defrag_moves for record in records if record.defrag_moves]
        lp_solves = calls.get("lp.build", 0)
        serve_calls = calls.get("online.serve", 0)

        put("delta.apply_ms", ms("delta.apply"), "ms")
        put("delta.ops", delta_ops, "count")
        put("delta.us_per_op", ms("delta.apply") * 1e3 / max(delta_ops, 1), "us")
        put("online.serve_ms", ms("online.serve"), "ms")
        put("online.serve_calls", serve_calls, "count")
        put(
            "online.nonempty_share",
            tracer.counters["online.nonempty"] / max(serve_calls, 1),
            "fraction",
        )
        put("admission.requeued", sum(r.requeued for r in records), "count")
        put("admission.expired", sum(r.expired for r in records), "count")
        put("repair.ms", ms("repair"), "ms")
        put("repair.moves", repair_moves, "count")
        put("defrag.improve_ms", ms("defrag.improve"), "ms")
        put("defrag.passes", sum(d.get("passes", 0) for d in defrags), "count")
        put(
            "defrag.moves",
            sum(
                d.get(key, 0)
                for d in defrags
                for key in ("adds", "refills", "upgrades", "evictions")
            ),
            "count",
        )
        for stage in ("build", "presolve", "solve", "sample", "adopt"):
            put(f"lp.{stage}_ms", ms(f"lp.{stage}"), "ms")
        put("lp.solves", lp_solves, "count")
        put(
            "lp.variables_mean",
            tracer.counters["lp.variables"] / max(lp_solves, 1),
            "count",
        )
        put(
            "lp.adopted_share",
            sum(1 for d in defrags if d.get("lp_adopted"))
            / max(calls.get("lp.adopt", 0), 1),
            "fraction",
        )
        put("audit.ms", ms("audit"), "ms")
        put("utility.ms", ms("utility"), "ms")
        put(
            "service.self_ms",
            (round_["wall_raw"] * 1e3 - top_level_ms) * scale,
            "ms",
        )
        put("gc.pause_ms", round_["gc"].pause_ms * scale, "ms")
        put("gc.gen2", round_["gc"].gen2, "count")
        put("setup.datagen_ms", round_["datagen"] * 1e3, "ms")
        put("setup.bootstrap_ms", round_["bootstrap"] * 1e3, "ms")
        put("serve.ticks", round_["ticks"], "count")

    metrics = {
        name: (statistics.median(values), units[name])
        for name, values in samples.items()
    }
    traced_wall = statistics.median(r["wall"] for r in traced)
    untraced_wall = statistics.median(r["wall"] for r in untraced)
    metrics["trace.overhead_share"] = (traced_wall / untraced_wall - 1.0, "fraction")
    cut = np.quantile(pooled_latencies(untraced), TAIL)
    metrics["answer.p90_ticks_beyond"] = (
        tail_support(untraced, cut) / len(untraced),
        "count",
    )
    metrics["host.ref_ms"] = (statistics.median(clock.probe_ms), "ms")
    return metrics, problems


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    tail_ticks: int = TAIL_TICKS,
) -> dict:
    """Run one benchmark invocation and return its result object.

    Untraced: timed rounds, each on its own trace, until ``seconds`` of
    serving are measured (at least ``MIN_ROUNDS``).  Traced: each untraced
    round is followed by a traced replay of the same trace, until
    ``seconds`` are measured; then the untimed verification round replays
    the first trace with the index parity audit on.  Replays of one trace
    must give one fingerprint.  Fewer than ``tail_ticks`` distinct ticks
    beyond the p90 cut of the untraced rounds is a failure.
    """
    clock = HostClock()
    rounds: list[dict] = []
    traced: list[dict] = []
    tracers: list[Tracer] = []
    measured = 0.0
    problems: list[str] = []
    while measured < seconds or len(rounds) + len(traced) < MIN_ROUNDS:
        trace_seed = round_seed(seed, len(rounds))
        round_ = run_round(workload, trace_seed, clock)
        problems += check_round(round_, None)
        rounds.append(round_)
        measured += round_["wall"]
        if trace:
            tracer = Tracer()
            traced_round = run_round(workload, trace_seed, clock, tracer=tracer)
            problems += check_round(traced_round, round_)
            traced.append(traced_round)
            tracers.append(tracer)
            measured += traced_round["wall"]

    if trace:
        metrics, trace_problems = per_layer(traced, rounds, tracers, clock)
        problems += trace_problems
        verification = run_round(
            workload, round_seed(seed, 0), clock, check_parity=True
        )
        problems += check_round(verification, rounds[0])
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [r["setup"] for r in rounds]
        while len(setups) < SETUPS or sum(setups) < SETUP_SECONDS:
            trace_seed = round_seed(seed, len(setups) % len(rounds))
            setups.append(set_up(workload, trace_seed, clock)[3])
        metrics = end_to_end(rounds, setups, peak_rss_mb)

    beyond = tail_support(rounds, np.quantile(pooled_latencies(rounds), TAIL))
    if beyond < tail_ticks:
        problems.append(
            f"only {beyond} ticks beyond the p90 cut (fewer than {tail_ticks})"
        )
    print(
        f"servebench {workload.name} seed={seed}: rounds={len(rounds)} "
        f"arrivals/round={statistics.median(r['arrivals'] for r in rounds)} "
        f"ticks/round={statistics.median(r['ticks'] for r in rounds)} "
        f"round_s={statistics.median(r['wall'] for r in rounds):.2f} "
        f"ticks beyond p90={beyond} "
        f"fingerprints={','.join(r['fingerprint'] for r in rounds)} "
        f"host.ref_ms={statistics.median(clock.probe_ms):.3f} "
        f"corrected/raw wall={statistics.median(r['wall'] / r['wall_raw'] for r in rounds):.3f}"
    )
    for problem in problems:
        print(f"servebench: FAILED: {problem}")
    return {
        "correct": not problems,
        "attempted": sum(r["arrivals"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1
