"""Traced run: every workload replayed stage by stage in one process.

All spans are recorded here, around calls into each layer's public
functions; nothing inside ``src/`` is changed.  Where a layer is only
reachable from inside another call (a cache write inside ``run_all``, a
session built inside ``run_one_strike``), the module attribute or method
the program looks up at call time is replaced by a timing wrapper for the
life of this process.

Phases, in order (each is a root span ``phase.<name>``):

``reference``
    The untraced operations the replay must reproduce byte for byte: one
    ``child.py`` per workload and a fixed-length HTTP stream.
``sweep.replay``
    Every figure 5-8 simulation, serially: trace synthesis, session
    build, functional warmup, the Python kernel, packaging, then the same
    session on the vector kernel (whose result must be identical); then
    the artefacts are rendered.
``sweep.pool`` / ``sweep.warm``
    ``run_all`` with two workers on an empty cache dir, then again with a
    fresh ``ResultCache`` on that dir (every read must hit).
``live.replay`` / ``live.pool``
    ``golden_run``, then ``draw_strike`` + ``run_one_strike`` strike by
    strike; then ``run_live_campaign`` with two workers and a batch cache.
``service.replay``
    The reference stream's specs through an in-process
    ``CampaignScheduler`` whose ``ArtifactStore`` and ``ServiceJournal``
    have their write, read and record calls wrapped.

Spans are kept in memory as (id, name, start, end, parent, trace id,
phase, attributes) and written to ``out/spans-seed<N>.json`` at the end.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import shutil
import statistics
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import common
from service_client import Server, run_stream

import child  # noqa: E402  (puts src/ on sys.path)

from repro.config import DEFAULT_CONFIG  # noqa: E402
from repro.experiments import reproduce, runner  # noqa: E402
from repro.experiments.parallel import (  # noqa: E402
    followup_jobs_for, smt_jobs_for)
from repro.experiments.runner import ExperimentScale, ResultCache  # noqa: E402
from repro.faultinject import live  # noqa: E402
from repro.fetch.registry import POLICY_NAMES  # noqa: E402
from repro.resilience.supervisor import Supervisor  # noqa: E402
from repro.service.journal import (  # noqa: E402
    SERVICE_JOURNAL_NAME, ServiceJournal)
from repro.service.scheduler import CampaignScheduler  # noqa: E402
from repro.service.store import ArtifactStore  # noqa: E402
from repro.sim import session as session_mod  # noqa: E402
from repro.structures.strike import entry_bits  # noqa: E402

#: The layers self time is reported for: a span belongs to the layer
#: named before the first dot of its name.
LAYERS = ("workload", "session", "kernel", "faultinject", "experiments",
          "io", "resilience", "service")
CONTEXT_POLICIES = ([(1, "ICOUNT"), (2, "ICOUNT")]
                    + [(n, p) for n in (4, 8) for p in POLICY_NAMES])
TIMED_OUTCOMES = ("MASKED", "MASKED_IDLE", "SDC")
ALL_OUTCOMES = ("MASKED", "MASKED_IDLE", "SDC", "DUE", "HANG", "CORRECTED")

# Originals, taken before any wrapper is installed: the replays call
# these inside their own spans.
_SimSession = session_mod.SimSession
_functional_warmup = session_mod.functional_warmup
_package_result = session_mod.package_result
_golden_run = live.golden_run
_run_one_strike = live.run_one_strike


class Tracer:
    """Spans in memory.  A span opened on a thread with nothing open is
    parented to the innermost span open on the main thread: a service
    campaign thread works while the client waits on it."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.phase = ""
        self._ids = itertools.count(1)
        self._main: List[dict] = []
        self._local = threading.local()

    def _stack(self) -> List[dict]:
        if threading.current_thread() is threading.main_thread():
            return self._main
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, trace: Optional[str] = None, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main[-1] if self._main
                                          else None)
        if trace is None and parent is not None:
            trace = parent["trace"]
        record = {"id": next(self._ids), "name": name,
                  "parent": parent["id"] if parent else None,
                  "trace": trace, "phase": self.phase, "attrs": attrs,
                  "start": time.perf_counter()}
        stack.append(record)
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            # A trace id known only once the call returns (a campaign id
            # from ``submit``) arrives as the ``trace`` attribute.
            record["trace"] = attrs.pop("trace", record["trace"])
            stack.pop()
            self.spans.append(record)

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace ``owner.attr`` with a function timing each call.

        ``describe(args, result)`` returns extra attributes, optionally
        with a ``trace`` id.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            with self.span(name) as attrs:
                result = original(*args, **kwargs)
                if describe is not None:
                    attrs.update(describe(args, result))
                return result

        setattr(owner, attr, timed)


def install(tracer: Tracer) -> None:
    """Wrap the layer calls the program makes internally."""
    tracer.wrap(session_mod, "build_traces", "workload.trace",
                lambda a, r: {"contexts": len(r),
                              "instrs": sum(len(t.instrs) for t in r)})
    tracer.wrap(live, "SimSession", "session.build",
                lambda a, r: {"backend": r.backend})
    tracer.wrap(live, "functional_warmup", "session.warmup",
                lambda a, r: {"backend": "python"})
    tracer.wrap(ResultCache, "get", "experiments.cache_get",
                lambda a, r: {"hit": r is not None})
    tracer.wrap(ResultCache, "put", "experiments.cache_put")
    tracer.wrap(runner, "atomic_write_json", "io.atomic_write")
    for name in common.SWEEP_ARTEFACTS:
        render = reproduce.ARTEFACTS[name]
        reproduce.ARTEFACTS[name] = _timed_render(tracer, name, render)

    original_run = Supervisor.run

    @functools.wraps(original_run)
    def supervised(self, *args, **kwargs):
        retried = self.retried
        with tracer.span("resilience.run") as attrs:
            outcome = original_run(self, *args, **kwargs)
            attrs.update(jobs=outcome.executed + outcome.skipped,
                         retries=self.retried - retried,
                         failures=len(outcome.report.failures))
            return outcome

    Supervisor.run = supervised


def _timed_render(tracer: Tracer, name: str, render):
    def timed(*args):
        with tracer.span("experiments.render", artefact=name):
            return render(*args)
    return timed


# -- phases ------------------------------------------------------------------------


def _sweep_scale(seed: int) -> ExperimentScale:
    return ExperimentScale(instructions_per_thread=common.SWEEP_SCALE,
                           seed=seed)


def _run_session(tracer: Tracer, job, traces, backend: str):
    """One simulation, stage by stage (what ``SimSession.run`` does)."""
    with tracer.span("session.build", backend=backend):
        session = _SimSession(job.workload(), policy=job.policy,
                              config=job.config, sim=job.sim,
                              traces=traces, backend=backend)
    if job.sim.functional_warmup:
        with tracer.span("session.warmup", backend=backend):
            _functional_warmup(session.core, session.traces)
    with tracer.span(f"kernel.{backend}", contexts=len(traces),
                     policy=job.policy) as attrs:
        cycles = session.core.run()
        attrs["cycles"] = cycles
    with tracer.span("session.package", backend=backend):
        return _package_result(session.core, session.workload,
                               session.names, session.policy, cycles,
                               auditor=session.auditor,
                               phase_tracker=session.phase_tracker)


def sweep_replay(tracer: Tracer, seed: int,
                 ref: dict) -> Tuple[int, int, int]:
    """Returns (operations, failures, instructions fetched)."""
    scale = _sweep_scale(seed)
    cache = ResultCache()
    records: Dict[str, str] = {}
    fetched = failed = 0
    for stage in (smt_jobs_for, None):
        if stage is None:
            jobs = [j for n in common.SWEEP_ARTEFACTS
                    for j in followup_jobs_for(n, scale, cache)]
        else:
            jobs = [j for n in common.SWEEP_ARTEFACTS
                    for j in stage(n, scale, cache.config)]
        unique = {job.digest(): job for job in jobs}
        for digest, job in unique.items():
            with tracer.span("replay.job", trace=digest[:16]):
                traces = session_mod.build_traces(job.workload(), job.sim)
                result = _run_session(tracer, job, traces, "python")
                vector = _run_session(tracer, job, traces, "vector")
                failed += vector.to_payload() != result.to_payload()
                cache.put(digest, result)
            payload = result.to_payload()
            records[digest] = common.job_record_digest(payload)
            fetched += sum(t.fetched for t in result.threads)
    artefacts = {name: common.sha((reproduce.ARTEFACTS[name](scale, cache)
                                   + "\n").encode())
                 for name in common.SWEEP_ARTEFACTS}
    failed += (common.count_mismatches(records, ref["records"])
               + common.count_mismatches(artefacts, ref["artefacts"]))
    return len(records) + len(artefacts), failed, fetched


def sweep_pool(seed: int, work: Path, ref: dict) -> Tuple[int, int]:
    """The real cold pass, then the warm pass; returns (ops, failures)."""
    scale = _sweep_scale(seed)
    names = list(common.SWEEP_ARTEFACTS)
    cold = ResultCache(cache_dir=work / "cache")
    reproduce.run_all(work / "cold", scale=scale, only=names,
                      jobs=common.WORKERS, cache=cold)
    records = {p.stem: common.job_record_digest(
                   json.loads(p.read_text())["result"])
               for p in (work / "cache").glob("*.json")}
    failed = (common.count_mismatches(records, ref["records"])
              + common.count_mismatches(
                  child.artefact_digests(work / "cold"), ref["artefacts"]))
    return cold.simulated, failed


def sweep_warm(seed: int, work: Path, ref: dict) -> Tuple[int, int]:
    warm = ResultCache(cache_dir=work / "cache")
    reproduce.run_all(work / "warm", scale=_sweep_scale(seed),
                      only=list(common.SWEEP_ARTEFACTS),
                      jobs=common.WORKERS, cache=warm)
    failed = warm.simulated + common.count_mismatches(
        child.artefact_digests(work / "warm"), ref["artefacts"])
    return len(common.SWEEP_ARTEFACTS), failed


def live_replay(tracer: Tracer, seed: int, ref: dict) -> Tuple[int, int]:
    args = child.live_args(seed, 0)
    workload, sim = args["workload"], args["sim"]
    with tracer.span("faultinject.golden"):
        golden = _golden_run(workload, "ICOUNT", DEFAULT_CONFIG, sim)
    batches: Dict[str, str] = {}
    for job in live.plan_live_batches(**args):
        capacity = live.machine_capacity(job.structure, job.config,
                                         len(golden.names))
        bits = entry_bits(job.structure)
        records = []
        with tracer.span("replay.batch", trace=job.label):
            for index in job.indices:
                with tracer.span("faultinject.strike",
                                 structure=job.structure.value) as attrs:
                    spec = live.draw_strike(job.seed, job.structure, index,
                                            golden.cycles, capacity, bits,
                                            job.mbu)
                    record = _run_one_strike(
                        spec, workload, job.policy, job.config, job.sim,
                        golden, job.protection, job.live)
                    attrs["outcome"] = record.outcome.name
                records.append(record.to_payload())
        batches[job.label] = common.records_digest(records)
    return len(batches), common.count_mismatches(batches, ref["batches"])


def live_pool(seed: int, work: Path, ref: dict) -> Tuple[int, int]:
    result = live.run_live_campaign(**child.live_args(seed, 0),
                                    jobs=common.WORKERS,
                                    cache_dir=work / "batches")
    batches = child.live_batch_digests(result, seed, 0)
    return len(batches), common.count_mismatches(batches, ref["batches"])


def service_replay(tracer: Tracer, seed: int, work: Path,
                   ref_ops: List[dict]) -> Tuple[int, int, List[dict]]:
    """Returns (operations, failures, per-campaign journal timings)."""
    store = ArtifactStore(work / "service")
    journal = ServiceJournal(store.root / SERVICE_JOURNAL_NAME)
    events: Dict[str, Dict[str, float]] = defaultdict(dict)

    def by_digest(a, r):
        return {"trace": a[0][:16]}

    for attr in ("write_artifact", "write_manifest"):
        tracer.wrap(store, attr, "service.store_write", by_digest)
    for attr in ("read_artifact", "verified_artifact_bytes"):
        tracer.wrap(store, attr, "service.store_read", by_digest)

    def journaled(a, r):
        events[a[0]].setdefault(a[1], time.perf_counter())
        return {"trace": a[0], "event": a[1]}

    tracer.wrap(journal, "record", "service.journal_record", journaled)
    scheduler = CampaignScheduler(store, workers=common.WORKERS,
                                  journal=journal)
    failed = 0
    try:
        for op in ref_ops:
            spec = common.service_spec(seed, op["index"])
            with tracer.span("service.submit") as attrs:
                status, dedup = scheduler.submit(spec)
                cid = status["id"]
                attrs.update(trace=cid, dedup=dedup)
            with tracer.span("service.wait", trace=cid):
                final = scheduler.wait(cid, timeout=120)
            with tracer.span("service.result", trace=cid):
                raw = scheduler.result_bytes(cid)
            digest = common.sha(raw) if raw else None
            failed += (final["state"] != "done"
                       or dedup != (op["kind"] == "repeat")
                       or digest != op["digest"])
    finally:
        scheduler.shutdown()
    timings = [e for e in events.values()
               if all(k in e for k in ("submitted", "running", "done"))]
    return len(ref_ops), failed, timings


# -- metrics -----------------------------------------------------------------------


def _self_times(spans: List[dict]) -> Dict[int, float]:
    """Each span's duration minus the part its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    result = {}
    for s in spans:
        covered, cursor = 0.0, s["start"]
        for c in sorted(children[s["id"]], key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[s["id"]] = s["end"] - s["start"] - covered
    return result


class Query:
    """Sums and counts over recorded spans, filtered by name, phase and
    attributes."""

    def __init__(self, spans: List[dict]) -> None:
        self.spans = spans

    def select(self, name: str, phases=None, **attrs) -> List[dict]:
        return [s for s in self.spans if s["name"] == name
                and (phases is None or s["phase"] in phases)
                and all(s["attrs"].get(k) == v for k, v in attrs.items())]

    def total(self, name: str, phases=None, **attrs) -> float:
        return sum(s["end"] - s["start"]
                   for s in self.select(name, phases, **attrs))

    def mean(self, name: str, phases=None, **attrs) -> float:
        chosen = self.select(name, phases, **attrs)
        return (sum(s["end"] - s["start"] for s in chosen) / len(chosen)
                if chosen else 0.0)


def per_layer_metrics(spans, wall_s, host_s, fetched, service_timings):
    q = Query(spans)
    replay = ("sweep.replay",)
    sessions = ("sweep.replay", "live.replay")
    m: Dict[str, Tuple[float, str]] = {"host.loop_s": (host_s, "s")}

    selfs = _self_times(spans)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        layer = s["name"].split(".")[0]
        if layer in layer_self:
            layer_self[layer] += selfs[s["id"]]
    reference_s = q.total("phase.reference")
    m["trace.wall_s"] = (wall_s, "s")
    m["trace.reference_s"] = (reference_s, "s")
    m["trace.unattributed_s"] = (
        wall_s - reference_s - sum(layer_self.values()), "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")

    for n in (1, 2, 4, 8):
        m[f"workload.trace_s.c{n}"] = (
            q.total("workload.trace", replay, contexts=n), "s")
    generated = sum(s["attrs"]["instrs"]
                    for s in q.select("workload.trace", replay))
    m["workload.instrs_generated"] = (generated, "count")
    m["workload.fetch_ratio"] = (fetched / generated, "ratio")

    m["session.build_s"] = (
        q.total("session.build", sessions, backend="python"), "s")
    m["session.warmup_s"] = (
        q.total("session.warmup", sessions, backend="python"), "s")
    m["session.package_s"] = (
        q.total("session.package", replay, backend="python"), "s")

    for backend in ("python", "vector"):
        for n, policy in CONTEXT_POLICIES:
            m[f"kernel.{backend}_s.c{n}.{policy}"] = (
                q.total(f"kernel.{backend}", replay, contexts=n,
                        policy=policy), "s")
    cycles = sum(s["attrs"]["cycles"]
                 for s in q.select("kernel.python", replay))
    m["kernel.cycles"] = (cycles, "count")
    m["kernel.ns_per_cycle"] = (
        q.total("kernel.python", replay) / cycles * 1e9, "ns")

    strikes = q.select("faultinject.strike", ("live.replay",))
    outcomes = Counter(s["attrs"]["outcome"] for s in strikes)
    m["faultinject.golden_s"] = (
        q.total("faultinject.golden", ("live.replay",)), "s")
    for outcome in TIMED_OUTCOMES:
        m[f"faultinject.strike_s.{outcome}"] = (
            q.mean("faultinject.strike", ("live.replay",), outcome=outcome),
            "s")
    for outcome in ALL_OUTCOMES:
        m[f"faultinject.strikes.{outcome}"] = (outcomes[outcome], "count")
    m["faultinject.idle_share"] = (
        outcomes["MASKED_IDLE"] / len(strikes), "ratio")

    gets = q.select("experiments.cache_get", ("sweep.warm",))
    m["experiments.cache_put_s"] = (
        q.total("experiments.cache_put", ("sweep.pool",)), "s")
    m["experiments.cache_get_s"] = (
        q.total("experiments.cache_get", ("sweep.warm",)), "s")
    m["experiments.cache_hit_ratio"] = (
        sum(s["attrs"]["hit"] for s in gets) / len(gets), "ratio")
    m["experiments.render_s"] = (
        q.total("experiments.render", ("sweep.pool", "sweep.warm")), "s")
    m["io.atomic_writes"] = (len(q.select("io.atomic_write")), "count")
    m["io.atomic_write_s"] = (q.total("io.atomic_write"), "s")

    runs = q.select("resilience.run")
    m["resilience.run_s"] = (q.total("resilience.run"), "s")
    for key in ("jobs", "retries", "failures"):
        m[f"resilience.{key}"] = (sum(s["attrs"][key] for s in runs),
                                  "count")

    service = ("service.replay",)
    submits = q.select("service.submit", service)
    records = q.select("service.journal_record", service)
    m["service.submit_ms"] = (q.mean("service.submit", service) * 1e3, "ms")
    m["service.queue_s"] = (statistics.mean(
        t["running"] - t["submitted"] for t in service_timings), "s")
    m["service.run_s"] = (statistics.mean(
        t["done"] - t["running"] for t in service_timings), "s")
    m["service.result_ms"] = (q.mean("service.result", service) * 1e3, "ms")
    m["service.store_write_ms"] = (
        q.mean("service.store_write", service) * 1e3, "ms")
    m["service.store_read_ms"] = (
        q.mean("service.store_read", service) * 1e3, "ms")
    m["service.journal_record_ms"] = (
        q.mean("service.journal_record", service) * 1e3, "ms")
    m["service.journal_records"] = (len(records), "count")
    m["service.dedup_ratio"] = (
        sum(s["attrs"]["dedup"] for s in submits) / len(submits), "ratio")
    return m, outcomes


def absent_notes(outcomes: Counter) -> Dict[str, str]:
    """Why each listed quantity that this run cannot report is missing."""
    notes = {
        "kernel.ledger_s": "residency-ledger accrual runs inside "
                           "core.run(); it cannot be timed apart from the "
                           "kernel from outside the program",
    }
    for outcome in ALL_OUTCOMES:
        if not outcomes[outcome]:
            shown = (" (reported as 0)" if outcome in TIMED_OUTCOMES
                     else "")
            notes[f"faultinject.strike_s.{outcome}"] = (
                f"no strike of the unprotected campaign ended {outcome} "
                f"on this seed{shown}")
    return notes


def _summary(spans: List[dict]) -> List[dict]:
    selfs = _self_times(spans)
    rows: Dict[Tuple[str, str], dict] = {}
    for s in spans:
        row = rows.setdefault((s["phase"], s["name"]),
                              {"phase": s["phase"], "name": s["name"],
                               "count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += selfs[s["id"]]
    return sorted(rows.values(), key=lambda r: -r["self_s"])


# -- entry point -------------------------------------------------------------------


def run(seed: int, work: Path, host_s: float):
    """The traced run; returns (attempted, failed, metrics, detail)."""
    started = time.perf_counter()
    tracer = Tracer()
    install(tracer)
    attempted = failed = 0

    def phase(name: str):
        tracer.phase = name
        return tracer.span(f"phase.{name}")

    with phase("reference"):
        _, sweep_ref = common.spawn_child("paper-sweep", seed, 0,
                                          work / "ref1")
        _, live_ref = common.spawn_child("live-strikes", seed, 0,
                                         work / "ref2")
        server = Server(work / "ref-service")
        try:
            ref_ops = run_stream(
                server, seed, common.service_ops(seed),
                lambda fresh: fresh < common.SERVICE_TRACED_FRESH)
        finally:
            server.stop()
    pins = (common.load_pins() if seed == common.DEFAULT_SEED else {})
    if pins:
        failed += (common.count_mismatches(
                       sweep_ref["records"], pins["paper-sweep"]["records"])
                   + common.count_mismatches(
                       sweep_ref["artefacts"],
                       pins["paper-sweep"]["artefacts"])
                   + common.count_mismatches(
                       live_ref["batches"],
                       pins["live-strikes"]["campaigns"][0])
                   + sum(op["digest"] != pins["service-stream"]["fresh"][
                       op["index"]] for op in ref_ops))
    failed += sum(not op["ok"] for op in ref_ops)

    with phase("sweep.replay"):
        ops, bad, fetched = sweep_replay(tracer, seed, sweep_ref)
        attempted, failed = attempted + ops, failed + bad
    with phase("sweep.pool"):
        ops, bad = sweep_pool(seed, work / "pool", sweep_ref)
        attempted, failed = attempted + ops, failed + bad
    with phase("sweep.warm"):
        ops, bad = sweep_warm(seed, work / "pool", sweep_ref)
        attempted, failed = attempted + ops, failed + bad
    shutil.rmtree(work / "pool", ignore_errors=True)
    with phase("live.replay"):
        ops, bad = live_replay(tracer, seed, live_ref)
        attempted, failed = attempted + ops, failed + bad
    with phase("live.pool"):
        ops, bad = live_pool(seed, work / "live", live_ref)
        attempted, failed = attempted + ops, failed + bad
    with phase("service.replay"):
        ops, bad, timings = service_replay(tracer, seed, work, ref_ops)
        attempted, failed = attempted + ops, failed + bad
    wall_s = time.perf_counter() - started

    metrics, outcomes = per_layer_metrics(tracer.spans, wall_s, host_s,
                                          fetched, timings)
    # The warm pass must read every result from disk: otherwise the warm
    # figure is timing simulation.
    failed += metrics["experiments.cache_hit_ratio"][0] != 1.0
    notes = absent_notes(outcomes)
    spans_path = common.BENCH_DIR / "out" / f"spans-seed{seed}.json"
    spans_path.write_text(json.dumps({
        "seed": seed, "absent": notes, "summary": _summary(tracer.spans),
        "spans": tracer.spans}, indent=None, sort_keys=True))
    query = Query(tracer.spans)
    detail = {"spans": str(spans_path.relative_to(common.ROOT)),
              "absent": notes,
              "strike_s_by_outcome": {
                  o: query.mean("faultinject.strike", ("live.replay",),
                                outcome=o)
                  for o in ALL_OUTCOMES if outcomes[o]}}
    return attempted, failed, metrics, detail
