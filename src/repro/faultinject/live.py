"""Live bit-flip fault injection with golden-run differential classification.

The timeline campaign (:mod:`repro.faultinject.campaign`) classifies
strikes *post hoc* from residency intervals; this module actually flips a
bit in a live structure mid-run and watches what the machine does.  One
golden (fault-free) run per campaign configuration is memoized; each
strike then re-simulates the same traces with three extra observers on the
probe bus:

* a :class:`StrikeInjector` that calls the struck structure's
  ``inject_bit`` hook at the sampled cycle,
* a :class:`~repro.faultinject.classify.Watchdog` bounding the run by the
  golden run's cycle count (hang containment),
* a :class:`~repro.faultinject.classify.DigestRecorder` folding commits
  into the architectural digest that is diffed against the golden one.

Outcomes (:class:`~repro.faultinject.campaign.InjectionOutcome`):
``MASKED_IDLE`` (struck slot empty), ``MASKED`` (digest identical),
``SDC`` (digest diverged), ``DUE`` (parity detected the flip, or the
corrupted simulator raised and was contained), ``HANG`` (watchdog),
``CORRECTED`` (ECC).  A campaign never aborts on a strike outcome — hangs
and crashes are the *measurement*, not failures.

Determinism: every strike draws its (cycle, slot, bit) from its own seeded
RNG substream — ``SeedSequence([campaign seed, structure, strike index])``
— so results are byte-identical regardless of worker count or completion
order.  Records are assembled sorted by (structure, index).

Protection is a per-structure :class:`~repro.protection.ProtectionConfig`
(every call site also accepts a bare scheme, meaning that scheme
everywhere), and strikes may be clustered multi-bit upsets: with an
:class:`~repro.structures.strike.MbuConfig`, each strike draws a cluster
length *after* its cycle/slot/bit draws on the same substream (so the
single-bit default draws stay byte-identical to the historical goldens),
and outcomes resolve per (scheme, effective cluster length) — parity
misses even clusters, SECDED corrects 1 / detects 2 / misses 3.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.avf.bits import structure_capacity
from repro.avf.structures import PRIVATE_STRUCTURES, Structure
from repro.config import DEFAULT_CONFIG, MachineConfig, SimConfig
from repro.errors import HangDetected, ReproError
from repro.faultinject.campaign import (
    CAMPAIGN_SCHEMA_VERSION,
    INJECTABLE,
    InjectionOutcome,
    StructureCampaign,
)
from repro.faultinject.classify import (
    DigestRecorder,
    Watchdog,
    _StrikeDetected,
    _StrikeIdle,
)
from repro.metrics.reliability import wilson_interval
from repro.protection import ProtectionConfig, ProtectionScheme
from repro.protection.config import CoercibleProtection
from repro.sim.session import SimSession, functional_warmup
from repro.store import open_dir, read_entry, stable_digest, write_entry
from repro.structures.strike import MbuConfig, burst_bits
from repro.structures.strike import entry_bits as strike_entry_bits
from repro.workload.mixes import (
    WorkloadLike,
    resolve_workload,
    workload_label,
    workload_programs,
)

#: Seed-substream index per structure (order is part of the RNG contract;
#: never reorder).
_STRUCT_SEED = {s: i for i, s in enumerate(INJECTABLE)}

#: Forced-outcome kinds the campaign can exercise (CI smoke coverage).
FORCED_KINDS = ("hang", "crash", "due")


@dataclass(frozen=True)
class LiveConfig:
    """Watchdog and batching knobs for one live campaign."""

    budget_factor: float = 2.0
    """Faulty runs may take this multiple of the golden run's cycles."""

    budget_slack: int = 200
    """Absolute extra cycles on top of the scaled budget (short runs)."""

    progress_window: int = 1500
    """Cycles without a single commit before the watchdog trips (0 = off)."""

    strike_batch: int = 8
    """Strikes per supervised task (amortises the worker's golden run)."""


@dataclass(frozen=True)
class StrikeSpec:
    """One sampled strike point.

    ``length`` is the *sampled* cluster length (1 outside MBU mode); the
    effective length after field-boundary clipping is what protection
    resolution and the record's ``cluster_len`` use.
    """

    structure: Structure
    index: int
    cycle: int
    slot: int
    bit: int
    length: int = 1

    @property
    def effective_length(self) -> int:
        return len(burst_bits(self.structure, self.bit, self.length))


@dataclass
class LiveStrikeRecord:
    """One classified strike."""

    structure: Structure
    index: int
    cycle: int
    slot: int
    bit: int
    outcome: InjectionOutcome
    target: str = ""
    detail: str = ""
    cluster_len: int = 1
    """Effective (post-clipping) cluster length of the burst."""

    def to_payload(self) -> Dict[str, object]:
        payload = {"structure": self.structure.value, "index": self.index,
                   "cycle": self.cycle, "slot": self.slot, "bit": self.bit,
                   "outcome": self.outcome.name, "target": self.target,
                   "detail": self.detail}
        if self.cluster_len != 1:
            # Omitted for single-bit strikes so default-path record bytes
            # stay identical to the pre-MBU goldens.
            payload["cluster_len"] = self.cluster_len
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "LiveStrikeRecord":
        return cls(structure=Structure(payload["structure"]),
                   index=int(payload["index"]), cycle=int(payload["cycle"]),
                   slot=int(payload["slot"]), bit=int(payload["bit"]),
                   outcome=InjectionOutcome[str(payload["outcome"])],
                   target=str(payload.get("target", "")),
                   detail=str(payload.get("detail", "")),
                   cluster_len=int(payload.get("cluster_len", 1)))


@dataclass
class GoldenRun:
    """The memoized fault-free reference run."""

    digest: str
    cycles: int            # total simulated cycles (the watchdog's base)
    measured_cycles: int
    committed: int
    names: List[str]
    traces: List[object]
    avf: Dict[Structure, float]


# -- golden-run memo ---------------------------------------------------------------

_GOLDEN_MEMO: "OrderedDict[str, GoldenRun]" = OrderedDict()
_GOLDEN_MEMO_CAP = 4


def _golden_key(programs: Sequence[str], policy: str, config: MachineConfig,
                sim: SimConfig) -> str:
    return stable_digest({"programs": list(programs), "policy": policy,
                          "machine": asdict(config), "sim": asdict(sim)})


def golden_run(workload: WorkloadLike, policy: str,
               config: MachineConfig, sim: SimConfig) -> GoldenRun:
    """Run (or recall) the fault-free reference for one configuration.

    The run executes with taint propagation *enabled* so its timing and
    observer wiring are identical to the faulty runs'; a fault-free run
    must end taint-clean, which is asserted — a dirty golden run means the
    taint model leaked and every classification would be garbage.
    """
    key = _golden_key(workload_programs(workload), policy, config, sim)
    hit = _GOLDEN_MEMO.get(key)
    if hit is not None:
        _GOLDEN_MEMO.move_to_end(key)
        return hit

    recorder = DigestRecorder()
    session = SimSession(workload, policy=policy, config=config, sim=sim,
                         observers=(recorder,), taint=True)
    if sim.functional_warmup:
        functional_warmup(session.core, session.traces)
    measured = session.core.run()
    if not recorder.clean:
        raise ReproError("golden run is not taint-clean: the taint model "
                         "injected state without a strike")
    golden = GoldenRun(digest=recorder.digest(), cycles=session.core.cycle,
                       measured_cycles=measured,
                       committed=session.core.total_committed,
                       names=list(session.names), traces=session.traces,
                       avf=dict(session.engine.report(measured).avf))
    _GOLDEN_MEMO[key] = golden
    while len(_GOLDEN_MEMO) > _GOLDEN_MEMO_CAP:
        _GOLDEN_MEMO.popitem(last=False)
    return golden


# -- strike sampling ---------------------------------------------------------------


def machine_capacity(structure: Structure, config: MachineConfig,
                     num_threads: int) -> int:
    """Machine-wide slot count (private structures x contexts)."""
    capacity = structure_capacity(structure, config, num_threads)
    if structure in PRIVATE_STRUCTURES:
        capacity *= num_threads
    return capacity


def draw_strike(seed: int, structure: Structure, index: int, cycles: int,
                capacity: int, bits: int,
                mbu: Optional[MbuConfig] = None) -> StrikeSpec:
    """Sample strike ``index`` of ``structure`` from its own substream.

    The substream is keyed by (campaign seed, structure, index) alone, so
    the draw is independent of worker count, batch shape and completion
    order — the root of the campaign's byte-for-byte reproducibility.

    The MBU cluster length (when ``mbu`` enables bursts) is drawn *after*
    cycle/slot/bit, so enabling MBU extends the draw sequence instead of
    perturbing it — single-bit campaigns stay byte-identical to the
    pre-MBU goldens, and MBU campaigns keep the same strike points as
    their single-bit twins.
    """
    seq = np.random.SeedSequence([seed, _STRUCT_SEED[structure], index])
    rng = np.random.Generator(np.random.PCG64(seq))
    cycle = int(rng.integers(1, cycles + 1))
    slot = int(rng.integers(0, capacity))
    bit = int(rng.integers(0, bits))
    length = 1
    if mbu is not None and mbu.enabled:
        length = mbu.sample_length(rng)
    return StrikeSpec(structure=structure, index=index, cycle=cycle,
                      slot=slot, bit=bit, length=length)


# -- faulty-run observers ----------------------------------------------------------


class StrikeInjector:
    """Fires one ``inject_bit`` at the sampled cycle (probe-bus observer).

    With ``retry_until_applied`` (forced-DUE mode) an idle slot is retried
    every cycle until something lives there; otherwise an idle strike ends
    the run immediately via :class:`_StrikeIdle` — its outcome is decided.
    A protection scheme that detects the flip undoes the mutation and ends
    the run via :class:`_StrikeDetected`.
    """

    def __init__(self, structure: Structure, slot: int, bit: int, cycle: int,
                 protection: CoercibleProtection,
                 retry_until_applied: bool = False,
                 length: int = 1) -> None:
        self.structure = structure
        self.slot = slot
        self.bit = bit
        self.cycle = cycle
        self.protection = ProtectionConfig.coerce(protection)
        self.retry_until_applied = retry_until_applied
        self.length = length
        self.cluster_len = len(burst_bits(structure, bit, length))
        self.receipt = None
        self._armed = True

    def on_cycle(self, core) -> None:
        if not self._armed or core.cycle < self.cycle:
            return
        receipt = core.inject_bit(self.structure, self.slot, self.bit,
                                  self.length)
        self.receipt = receipt
        if not receipt.applied:
            if self.retry_until_applied:
                return
            self._armed = False
            raise _StrikeIdle()
        self._armed = False
        resolution = self.protection.resolve(self.structure, self.cluster_len)
        if resolution is not None:
            receipt.undo()
            raise _StrikeDetected(resolution)


class _ForcedHang:
    """Un-completes a finished ROB head: a guaranteed, unsquashable hang.

    The head is the oldest instruction of its thread, so no squash can
    remove it, and its writeback event has already been consumed — nothing
    will ever set ``completed_at`` again.  The thread stalls; once the
    remaining threads drain, total commits go flat and the watchdog trips.
    """

    def __init__(self, after_cycle: int = 2) -> None:
        self.after_cycle = after_cycle
        self.done = False
        self.target = ""

    def on_cycle(self, core) -> None:
        if self.done or core.cycle < self.after_cycle:
            return
        for t in core.threads:
            head = t.rob.head()
            if head is not None and head.completed_at >= 0 \
                    and not head.wrong_path:
                head.completed_at = -1
                self.target = f"ROB[t{t.id}] head #{head.seq}"
                self.done = True
                return


class _ForcedCrash:
    """Redirects an in-flight destination to an unallocated physical
    register: writeback (or squash) raises :class:`StructureError`, which
    the strike runner must contain as DUE — never let escape."""

    _BOGUS_PHYS = 1 << 30

    def __init__(self, after_cycle: int = 2) -> None:
        self.after_cycle = after_cycle
        self.done = False
        self.target = ""

    def on_cycle(self, core) -> None:
        if self.done or core.cycle < self.after_cycle:
            return
        for instr in core.issue_queue.entries():
            if instr.phys_dest is not None and not instr.squashed:
                instr.phys_dest = self._BOGUS_PHYS
                self.target = f"IQ t{instr.thread_id}#{instr.seq}"
                self.done = True
                return


# -- one faulty run ----------------------------------------------------------------


def _contained_run(workload: WorkloadLike, policy: str,
                   config: MachineConfig, sim: SimConfig, golden: GoldenRun,
                   live: LiveConfig, extra_observers: Sequence[object],
                   ) -> Tuple[Optional[InjectionOutcome], str, DigestRecorder]:
    """Run one faulty simulation with full outcome containment.

    Returns ``(outcome, detail, recorder)``; ``outcome`` is None when the
    run finished normally and the caller should classify by digest diff.
    Nothing a strike does — hang, raise, corrupt — escapes this function,
    so no strike can abort a campaign.
    """
    limit = int(golden.cycles * live.budget_factor) + live.budget_slack
    faulty_sim = replace(sim, max_cycles=limit + 16)
    recorder = DigestRecorder()
    watchdog = Watchdog(limit, live.progress_window)
    observers = (recorder, watchdog, *extra_observers)
    session = SimSession(workload, policy=policy, config=config,
                         sim=faulty_sim, traces=golden.traces,
                         observers=observers, taint=True)
    try:
        if faulty_sim.functional_warmup:
            functional_warmup(session.core, golden.traces)
        session.core.run()
    except _StrikeIdle:
        return InjectionOutcome.MASKED_IDLE, "", recorder
    except _StrikeDetected as sig:
        outcome = (InjectionOutcome.DUE if sig.resolution == "due"
                   else InjectionOutcome.CORRECTED)
        return outcome, f"protection: {sig.resolution}", recorder
    except HangDetected as exc:
        return InjectionOutcome.HANG, str(exc), recorder
    except (KeyboardInterrupt, SystemExit, MemoryError):
        raise
    except Exception as exc:  # noqa: BLE001 - containment is the contract
        # The corrupted simulator failed loudly (a StructureError, an
        # IndexError in a perturbed queue, ...): the hardware analogue of
        # a machine-check — detected, unrecoverable, contained.
        detail = f"contained {type(exc).__name__}: {exc}"
        return InjectionOutcome.DUE, detail, recorder
    return None, "", recorder


def run_one_strike(spec: StrikeSpec,
                   workload: WorkloadLike, policy: str,
                   config: MachineConfig, sim: SimConfig, golden: GoldenRun,
                   protection: CoercibleProtection,
                   live: LiveConfig) -> LiveStrikeRecord:
    """Inject one strike, classify it, and leave the traces pristine."""
    injector = StrikeInjector(spec.structure, spec.slot, spec.bit,
                              spec.cycle, protection, length=spec.length)
    try:
        outcome, detail, recorder = _contained_run(
            workload, policy, config, sim, golden, live, (injector,))
    finally:
        # Trace objects are shared across strikes: restore any struck
        # trace-owned field (e.g. a flipped mem_addr).  Pipeline-owned
        # fields reset at the next run's fetch.
        if injector.receipt is not None:
            injector.receipt.undo()
    if outcome is None:
        if recorder.digest() == golden.digest:
            outcome = InjectionOutcome.MASKED
        else:
            outcome = InjectionOutcome.SDC
    target = injector.receipt.target if injector.receipt is not None else ""
    return LiveStrikeRecord(structure=spec.structure, index=spec.index,
                            cycle=spec.cycle, slot=spec.slot, bit=spec.bit,
                            outcome=outcome, target=target, detail=detail,
                            cluster_len=injector.cluster_len)


def run_forced_strike(kind: str,
                      workload: WorkloadLike,
                      policy: str, config: MachineConfig, sim: SimConfig,
                      golden: GoldenRun, live: LiveConfig) -> LiveStrikeRecord:
    """Run one guaranteed-outcome strike (watchdog / containment probes).

    ``hang`` must classify HANG, ``crash`` and ``due`` must classify DUE —
    the CI smoke target asserts exactly that, proving the watchdog and the
    exception containment on every push.
    """
    if kind == "hang":
        hook: object = _ForcedHang()
        injector = None
    elif kind == "crash":
        hook = _ForcedCrash()
        injector = None
    elif kind == "due":
        hook = injector = StrikeInjector(Structure.IQ, slot=0, bit=0, cycle=1,
                                         protection=ProtectionScheme.PARITY,
                                         retry_until_applied=True)
    else:
        raise ReproError(f"unknown forced strike kind {kind!r}; "
                         f"known: {', '.join(FORCED_KINDS)}")
    try:
        outcome, detail, recorder = _contained_run(
            workload, policy, config, sim, golden, live, (hook,))
    finally:
        if injector is not None and injector.receipt is not None:
            injector.receipt.undo()
    if outcome is None:
        # A forced hook that never found a target (should not happen on
        # any real workload) falls through to digest classification.
        outcome = (InjectionOutcome.MASKED
                   if recorder.digest() == golden.digest
                   else InjectionOutcome.SDC)
    target = getattr(hook, "target", "") or (
        injector.receipt.target if injector is not None
        and injector.receipt is not None else "")
    return LiveStrikeRecord(structure=Structure.IQ, index=-1, cycle=0,
                            slot=0, bit=0, outcome=outcome,
                            target=f"forced:{kind} {target}".strip(),
                            detail=detail)


# -- campaign ----------------------------------------------------------------------


@dataclass
class LiveCampaignResult:
    """All structures' live campaigns plus validation statistics."""

    workload: str
    cycles: int
    injections_per_structure: int
    protection: ProtectionConfig
    mbu: MbuConfig = field(default_factory=MbuConfig)
    structures: Dict[Structure, StructureCampaign] = field(default_factory=dict)
    records: List[LiveStrikeRecord] = field(default_factory=list)
    forced: Dict[str, LiveStrikeRecord] = field(default_factory=dict)
    batches_cached: int = 0
    """Batches answered by the per-batch cache (recovery observability:
    a resumed campaign must show its finished batches here, recomputing
    none of them)."""
    batches_executed: int = 0
    """Batches actually simulated in this run."""

    def interval(self, structure: Structure,
                 z: float = 1.959963984540054) -> Tuple[float, float]:
        """Wilson CI of the structure's injection-estimated AVF."""
        campaign = self.structures[structure]
        sdc = campaign.outcomes.get(InjectionOutcome.SDC, 0)
        return wilson_interval(sdc, campaign.injections, z=z)

    def agrees(self, structure: Structure) -> bool:
        """Does the ACE-computed AVF fall inside the live estimate's CI?"""
        lo, hi = self.interval(structure)
        return lo <= self.structures[structure].reported_avf <= hi

    def verdict(self, structure: Structure) -> str:
        """Per-structure comparison of the ACE AVF with the live CI.

        ``agree`` — inside the interval; ``conservative`` — ACE above the
        interval, the expected direction (ACE analysis upper-bounds true
        vulnerability: ex-ACE state like a load's LSQ data copy after
        writeback stays in the ledger's ACE window but cannot corrupt a
        live run); ``ANOMALY`` — ACE *below* the interval, which an
        upper-bound analysis can never legitimately produce.
        """
        lo, hi = self.interval(structure)
        avf = self.structures[structure].reported_avf
        if lo <= avf <= hi:
            return "agree"
        return "conservative" if avf > hi else "ANOMALY"

    def summary(self) -> str:
        # ACE AVF validation only makes sense for the unprotected
        # single-bit campaign: protection removes SDCs by design, and a
        # multi-bit burst upper-bounds the per-bit AVF the ledger reports.
        validating = self.protection.is_none and not self.mbu.enabled
        mbu_note = (f", mbu<=len {self.mbu.max_len}" if self.mbu.enabled
                    else "")
        lines = [
            f"Live fault injection — {self.workload} "
            f"({self.injections_per_structure} strikes/structure, golden "
            f"{self.cycles} cycles, protection {self.protection.label()}"
            f"{mbu_note})",
            f"{'structure':<10} {'ACE AVF':>8} {'live est':>9} "
            f"{'95% CI':>17} {'masked':>7} {'due':>6} {'hang':>6} "
            f"{'verdict':>12}",
        ]
        for s, c in self.structures.items():
            lo, hi = self.interval(s)
            verdict = self.verdict(s) if validating else "n/a"
            lines.append(
                f"{s.value:<10} {c.reported_avf:8.4f} {c.sdc_rate:9.4f} "
                f"[{lo:6.4f}, {hi:6.4f}] {c.masked_rate:7.3f} "
                f"{c.due_rate:6.3f} {c.hang_rate:6.3f} {verdict:>12}")
        for kind, record in self.forced.items():
            lines.append(f"forced {kind:<6} -> {record.outcome.name:<9} "
                         f"({record.target})")
        return "\n".join(lines)


@dataclass(frozen=True)
class LiveBatchJob:
    """One batch of strikes on one structure as a supervised task.

    Picklable: the worker re-derives the golden run from the campaign
    parameters (memoized per process, so a worker pays for it once) and
    runs its strikes.  The digest covers every outcome-affecting input, so
    the supervisor's journal and the per-batch cache key resumed work
    correctly.
    """

    workload_name: str
    programs: Tuple[str, ...]
    policy: str
    config: MachineConfig
    sim: SimConfig
    seed: int
    protection: ProtectionConfig
    live: LiveConfig
    structure: Structure
    indices: Tuple[int, ...]
    mbu: MbuConfig = MbuConfig()

    @property
    def label(self) -> str:
        lo = min(self.indices) if self.indices else 0
        hi = max(self.indices) if self.indices else 0
        return (f"live/{self.workload_name}/{self.structure.value}"
                f"/{lo}-{hi}")

    def key(self) -> Dict[str, object]:
        key = {
            "live_schema": CAMPAIGN_SCHEMA_VERSION,
            "workload": self.workload_name,
            "programs": list(self.programs),
            "policy": self.policy,
            "machine": asdict(self.config),
            "sim": asdict(self.sim),
            "seed": self.seed,
            "protection": self.protection.label(),
            "watchdog": asdict(self.live),
            "structure": self.structure.value,
            "indices": list(self.indices),
        }
        # Only present when bursts are on, so every historical single-bit
        # digest — and with it the batch cache and supervisor journals —
        # stays valid across the MBU upgrade.
        if self.mbu.enabled:
            key["mbu"] = self.mbu.to_payload()
        if self.protection.scrub_interval_cycles is not None:
            key["scrub"] = self.protection.scrub_interval_cycles
        return key

    def digest(self) -> str:
        return stable_digest(self.key())

    def run(self) -> Dict[str, object]:
        workload = resolve_workload(self.workload_name, self.programs)
        golden = golden_run(workload, self.policy, self.config, self.sim)
        num_threads = len(golden.names)
        capacity = machine_capacity(self.structure, self.config, num_threads)
        bits = strike_entry_bits(self.structure)
        records = []
        for index in self.indices:
            spec = draw_strike(self.seed, self.structure, index,
                               golden.cycles, capacity, bits, self.mbu)
            record = run_one_strike(spec, workload, self.policy, self.config,
                                    self.sim, golden, self.protection,
                                    self.live)
            records.append(record.to_payload())
        return {"records": records}

    def validate(self, payload: Dict[str, object]) -> None:
        records = payload["records"]
        if len(records) != len(self.indices):
            raise ValueError(f"{len(records)} records for "
                             f"{len(self.indices)} strikes")
        for entry in records:
            record = LiveStrikeRecord.from_payload(entry)
            if record.structure is not self.structure:
                raise ValueError(f"record for {record.structure.value}, "
                                 f"expected {self.structure.value}")


def _batched(indices: Sequence[int], batch: int) -> List[Tuple[int, ...]]:
    batch = max(1, batch)
    return [tuple(indices[i:i + batch])
            for i in range(0, len(indices), batch)]


def plan_live_batches(workload: WorkloadLike,
                      injections: int = 24,
                      structures: Sequence[Structure] = INJECTABLE,
                      policy: str = "ICOUNT",
                      config: Optional[MachineConfig] = None,
                      sim: Optional[SimConfig] = None,
                      seed: int = 42,
                      protection: CoercibleProtection = ProtectionScheme.NONE,
                      live: Optional[LiveConfig] = None,
                      mbu: Optional[MbuConfig] = None,
                      ) -> List[LiveBatchJob]:
    """Shard a live campaign into supervised :class:`LiveBatchJob` units.

    This is the batch-submission API: validation, normalization and
    batching with *no* execution, so a caller that schedules work itself
    (the campaign service) can plan a campaign, count its batches, and
    feed the jobs to its own supervisor.  :func:`run_live_campaign` plans
    through here, so both paths shard identically — same digests, same
    per-batch cache entries.
    """
    config = config or DEFAULT_CONFIG
    base_sim = sim or SimConfig(max_instructions=600)
    live = live or LiveConfig()
    protection = ProtectionConfig.coerce(protection)
    mbu = mbu or MbuConfig()
    policy_name = policy if isinstance(policy, str) else policy.name
    unsupported = [s for s in structures if s not in INJECTABLE]
    if unsupported:
        raise ReproError(f"cannot inject into {unsupported}; "
                         f"supported: {list(INJECTABLE)}")
    if injections < 0:
        raise ReproError("injections must be >= 0")
    return [
        LiveBatchJob(workload_name=workload_label(workload),
                     programs=workload_programs(workload),
                     policy=policy_name, config=config, sim=base_sim,
                     seed=seed, protection=protection, live=live,
                     structure=structure, indices=batch, mbu=mbu)
        for structure in structures
        for batch in _batched(range(injections), live.strike_batch)
    ]


def run_live_campaign(workload: WorkloadLike,
                      injections: int = 24,
                      structures: Sequence[Structure] = INJECTABLE,
                      policy: str = "ICOUNT",
                      config: Optional[MachineConfig] = None,
                      sim: Optional[SimConfig] = None,
                      seed: int = 42,
                      protection: CoercibleProtection = ProtectionScheme.NONE,
                      live: Optional[LiveConfig] = None,
                      mbu: Optional[MbuConfig] = None,
                      forced: Sequence[str] = (),
                      jobs: int = 1,
                      supervisor=None,
                      cache_dir: Optional[Union[str, Path]] = None,
                      on_batch=None,
                      ) -> LiveCampaignResult:
    """Run a live injection campaign over ``structures``.

    ``injections`` strikes per structure are sampled, injected and
    classified against the golden run; ``forced`` adds guaranteed-outcome
    probe strikes (:data:`FORCED_KINDS`) reported separately.  With
    ``jobs > 1`` or an explicit ``supervisor``, strike batches execute on
    the supervised worker pool (timeouts, retries, resume via the
    supervisor's journal); results are identical either way.  ``cache_dir``
    persists each batch as ``live-<digest>.json``.  ``on_batch(job,
    payload)`` fires as each batch lands (including batches answered by
    the cache) — the campaign service streams partial Wilson intervals
    from it.
    """
    config = config or DEFAULT_CONFIG
    base_sim = sim or SimConfig(max_instructions=600)
    live = live or LiveConfig()
    protection = ProtectionConfig.coerce(protection)
    mbu = mbu or MbuConfig()
    policy_name = policy if isinstance(policy, str) else policy.name
    unknown = [k for k in forced if k not in FORCED_KINDS]
    if unknown:
        raise ReproError(f"unknown forced kinds {unknown}; "
                         f"known: {list(FORCED_KINDS)}")
    # Planning validates the structures and the strike count.
    jobs_list = plan_live_batches(workload, injections=injections,
                                  structures=structures, policy=policy_name,
                                  config=config, sim=base_sim, seed=seed,
                                  protection=protection, live=live, mbu=mbu)

    golden = golden_run(workload, policy_name, config, base_sim)

    cache_root = open_dir(cache_dir) if cache_dir is not None else None

    def load_cached(job: LiveBatchJob) -> Optional[Dict[str, object]]:
        if cache_root is None:
            return None

        def decode(entry: Dict[str, object]) -> Dict[str, object]:
            job.validate(entry)
            return entry

        return read_entry(cache_root / f"live-{job.digest()}.json",
                          CAMPAIGN_SCHEMA_VERSION, decode)

    def store_cached(job: LiveBatchJob, payload: Dict[str, object]) -> None:
        if cache_root is not None:
            write_entry(cache_root / f"live-{job.digest()}.json",
                        {"records": payload["records"]},
                        CAMPAIGN_SCHEMA_VERSION)

    by_key: Dict[Tuple[int, int], LiveStrikeRecord] = {}
    order = {s: i for i, s in enumerate(structures)}

    def commit(job: LiveBatchJob, payload: Dict[str, object]) -> None:
        for entry in payload["records"]:
            record = LiveStrikeRecord.from_payload(entry)
            by_key[(order[record.structure], record.index)] = record
        store_cached(job, payload)
        if on_batch is not None:
            on_batch(job, payload)

    def already_done(job: LiveBatchJob) -> bool:
        entry = load_cached(job)
        if entry is None:
            return False
        for raw in entry["records"]:
            record = LiveStrikeRecord.from_payload(raw)
            by_key[(order[record.structure], record.index)] = record
        if on_batch is not None:
            on_batch(job, {"records": list(entry["records"])})
        return True

    # Imported here: the pool machinery is start-up time a process that
    # only imports this package should not pay.
    from repro.resilience.supervisor import RetryPolicy, run_tasks

    outcome = run_tasks(jobs_list, commit, already_done, jobs=jobs,
                        supervisor=supervisor,
                        policy=RetryPolicy(retries=1, max_failures=0))

    result = LiveCampaignResult(workload=workload_label(workload),
                                cycles=golden.cycles,
                                injections_per_structure=injections,
                                protection=protection, mbu=mbu,
                                batches_cached=outcome.skipped,
                                batches_executed=outcome.executed)
    result.records = [by_key[key] for key in sorted(by_key)]
    for structure in structures:
        campaign = StructureCampaign(
            structure=structure, injections=injections,
            reported_avf=float(golden.avf[structure]))
        for record in result.records:
            if record.structure is structure:
                campaign.outcomes[record.outcome] = (
                    campaign.outcomes.get(record.outcome, 0) + 1)
        result.structures[structure] = campaign

    for kind in forced:
        result.forced[kind] = run_forced_strike(
            kind, workload, policy_name, config, base_sim, golden, live)
    return result
