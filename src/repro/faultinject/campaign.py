"""Injection campaign: timeline reconstruction and outcome sampling."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from enum import Enum, auto
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.avf.structures import SHARED_STRUCTURES, Structure
from repro.config import DEFAULT_CONFIG, MachineConfig, SimConfig
from repro.errors import ReproError
from repro.fetch.base import FetchPolicy
from repro.fetch.registry import create_policy
from repro.sim.session import SimSession
from repro.store import open_dir, read_entry, stable_digest, write_entry
from repro.workload.mixes import TABLE2_MIXES, WorkloadMix

#: Structures the campaign can inject into (interval-logged pipeline state).
INJECTABLE = (Structure.IQ, Structure.ROB, Structure.LSQ_TAG,
              Structure.LSQ_DATA, Structure.REG, Structure.FU)


class InjectionOutcome(Enum):
    # Timeline (post-hoc) classification:
    MASKED_IDLE = auto()    # the struck slot held nothing
    MASKED_UNACE = auto()   # it held state that cannot affect the outcome
    SDC = auto()            # it held ACE state: silent data corruption
    # Live (differential) classification adds:
    MASKED = auto()         # the faulty run's architectural digest matched
    DUE = auto()            # detected (parity) or contained simulator failure
    HANG = auto()           # the watchdog tripped: forward progress stopped
    CORRECTED = auto()      # ECC repaired the flip in place


#: Outcomes with no architectural consequence (the error rate's complement).
MASKED_OUTCOMES = frozenset({
    InjectionOutcome.MASKED_IDLE,
    InjectionOutcome.MASKED_UNACE,
    InjectionOutcome.MASKED,
    InjectionOutcome.CORRECTED,
})

#: Version of the on-disk campaign-result layout; entries recorded under a
#: different schema are re-run rather than misread.  v2: live-injection
#: outcome classes (MASKED/DUE/HANG/CORRECTED) joined the enum.
CAMPAIGN_SCHEMA_VERSION = 2


@dataclass
class StructureCampaign:
    """Outcome counts for one structure."""

    structure: Structure
    injections: int
    outcomes: Dict[InjectionOutcome, int] = field(default_factory=dict)
    reported_avf: float = 0.0

    @property
    def sdc_rate(self) -> float:
        """Injection-estimated AVF: the fraction of strikes that corrupt."""
        if not self.injections:
            return 0.0
        return self.outcomes.get(InjectionOutcome.SDC, 0) / self.injections

    @property
    def masked_rate(self) -> float:
        """Fraction of strikes with no architectural consequence.

        Counted from the masked outcome classes, not ``1 - sdc_rate``:
        the old complement form both mislabelled live DUE/HANG strikes as
        masked and reported a vacuous 1.0 for a zero-strike campaign (no
        strikes happened, so none were masked).
        """
        if not self.injections:
            return 0.0
        masked = sum(self.outcomes.get(o, 0) for o in MASKED_OUTCOMES)
        return masked / self.injections

    @property
    def due_rate(self) -> float:
        if not self.injections:
            return 0.0
        return self.outcomes.get(InjectionOutcome.DUE, 0) / self.injections

    @property
    def hang_rate(self) -> float:
        if not self.injections:
            return 0.0
        return self.outcomes.get(InjectionOutcome.HANG, 0) / self.injections


@dataclass
class InjectionCampaignResult:
    """All structures' campaigns plus run metadata."""

    workload: str
    cycles: int
    injections_per_structure: int
    structures: Dict[Structure, StructureCampaign] = field(default_factory=dict)

    def summary(self) -> str:
        lines = [f"Fault injection campaign — {self.workload} "
                 f"({self.injections_per_structure} strikes/structure, "
                 f"{self.cycles} cycles)",
                 f"{'structure':<10} {'AVF':>8} {'SDC rate':>9} "
                 f"{'idle':>7} {'un-ACE':>7}"]
        for s, c in self.structures.items():
            idle = c.outcomes.get(InjectionOutcome.MASKED_IDLE, 0)
            unace = c.outcomes.get(InjectionOutcome.MASKED_UNACE, 0)
            # Zero-strike campaigns print an all-zero row (same guard as
            # sdc_rate) instead of dividing by zero.
            denom = c.injections or 1
            lines.append(f"{s.value:<10} {c.reported_avf:8.4f} {c.sdc_rate:9.4f} "
                         f"{idle / denom:7.3f} {unace / denom:7.3f}")
        return "\n".join(lines)


def _occupancy_timelines(sources: Sequence[object], cycles: int) -> tuple:
    """Per-cycle ACE and occupied entry counts from raw intervals.

    Each source is either a :class:`VulnerabilityAccount` recorded with
    ``record_intervals=True`` or a raw interval list (as produced by
    :class:`repro.instrument.IntervalRecorder`).

    Uses difference arrays: an interval [start, end) bumps its class's
    count at ``start`` and drops it at ``end``.  This path is independent
    of the summed ledgers, so sampling it cross-validates them.
    """
    ace_diff = np.zeros(cycles + 1, dtype=np.int64)
    occ_diff = np.zeros(cycles + 1, dtype=np.int64)
    for source in sources:
        intervals = getattr(source, "intervals", source)
        if intervals is None:
            raise ReproError(
                "fault injection needs SimConfig(record_intervals=True)")
        for _thread, start, end, ace in intervals:
            lo, hi = max(start, 0), min(end, cycles)
            if hi <= lo:
                continue
            occ_diff[lo] += 1
            occ_diff[hi] -= 1
            if ace:
                ace_diff[lo] += 1
                ace_diff[hi] -= 1
    return np.cumsum(ace_diff)[:cycles], np.cumsum(occ_diff)[:cycles]


@dataclass(frozen=True)
class ClassifyTask:
    """One structure's strike classification as a supervised task.

    Pure arithmetic over already-recorded residency intervals, packaged
    for the :class:`repro.resilience.Supervisor` task protocol so the
    campaign's per-structure fan-out rides the same supervised pool as
    every other parallel path in the framework (timeouts, retries,
    broken-pool rebuilds) instead of a bare thread pool.
    """

    structure: Structure
    strike_cycles: Tuple[int, ...]
    strike_slots: Tuple[int, ...]
    intervals: Tuple[Tuple[int, int, int, bool], ...]
    cycles: int

    @property
    def label(self) -> str:
        return f"classify/{self.structure.value}"

    def digest(self) -> str:
        return stable_digest([self.structure.value, self.strike_cycles,
                              self.strike_slots, self.intervals, self.cycles])

    def run(self) -> Dict[str, object]:
        ace_at, occ_at = _occupancy_timelines([list(self.intervals)],
                                              self.cycles)
        cyc = np.asarray(self.strike_cycles, dtype=np.int64)
        slots = np.asarray(self.strike_slots, dtype=np.int64)
        # A strike below the ACE count corrupts; below the occupancy count
        # it lands in an un-ACE entry; otherwise the slot was idle.  ACE
        # intervals are a subset of occupancy, so the counts nest exactly
        # as a per-strike if/elif chain would classify them.
        sdc = int(np.count_nonzero(slots < ace_at[cyc]))
        occupied = int(np.count_nonzero(slots < occ_at[cyc]))
        return {"structure": self.structure.value,
                "sdc": sdc, "occupied": occupied}

    def validate(self, payload: Dict[str, object]) -> None:
        if payload.get("structure") != self.structure.value:
            raise ValueError(
                f"payload for {payload.get('structure')!r}, "
                f"expected {self.structure.value!r}")
        sdc, occupied = int(payload["sdc"]), int(payload["occupied"])
        if not 0 <= sdc <= occupied <= len(self.strike_cycles):
            raise ValueError(f"inconsistent counts sdc={sdc} "
                             f"occupied={occupied}")


def _campaign_sim(base_sim: SimConfig) -> SimConfig:
    """The campaign's run config: the caller's, plus interval recording.

    ``dataclasses.replace`` carries every field over — a hand-rolled
    field-by-field copy silently dropped anything it did not name (it lost
    ``phase_window_cycles``, and would have lost every future field).
    """
    return replace(base_sim, record_intervals=True)


# -- persistent campaign cache ---------------------------------------------------


def _campaign_key(name: str, programs: Sequence[str], policy_name: str,
                  config: MachineConfig, run_sim: SimConfig,
                  injections: int, structures: Sequence[Structure],
                  seed: int) -> Dict[str, object]:
    """Canonical identity of one campaign — every input that can change
    its outcome (and nothing that cannot, e.g. worker/thread counts)."""
    return {
        "workload": name,
        "programs": list(programs),
        "policy": policy_name,
        "machine": asdict(config),
        "sim": asdict(run_sim),
        "injections": injections,
        "structures": [s.value for s in structures],
        "seed": seed,
    }


def _campaign_payload(result: InjectionCampaignResult) -> Dict[str, object]:
    return {
        "workload": result.workload,
        "cycles": result.cycles,
        "injections_per_structure": result.injections_per_structure,
        # A list, not a dict keyed by structure: the summary prints
        # structures in campaign order, which sort_keys would destroy.
        "structures": [
            {
                "structure": s.value,
                "injections": c.injections,
                "reported_avf": c.reported_avf,
                "outcomes": {o.name: n for o, n in c.outcomes.items()},
            }
            for s, c in result.structures.items()
        ],
    }


def _campaign_from_payload(payload: Dict[str, object]) -> InjectionCampaignResult:
    result = InjectionCampaignResult(
        workload=str(payload["workload"]),
        cycles=int(payload["cycles"]),
        injections_per_structure=int(payload["injections_per_structure"]),
    )
    for entry in payload["structures"]:
        structure = Structure(entry["structure"])
        result.structures[structure] = StructureCampaign(
            structure=structure,
            injections=int(entry["injections"]),
            reported_avf=float(entry["reported_avf"]),
            outcomes={InjectionOutcome[o]: int(n)
                      for o, n in entry["outcomes"].items()},
        )
    return result


def run_campaign(workload: Union[WorkloadMix, Sequence[str]],
                 injections: int = 2000,
                 structures: Sequence[Structure] = INJECTABLE,
                 policy: Union[str, FetchPolicy] = "ICOUNT",
                 config: Optional[MachineConfig] = None,
                 sim: Optional[SimConfig] = None,
                 seed: int = 42,
                 jobs: int = 1,
                 cache_dir: Optional[Union[str, Path]] = None) -> InjectionCampaignResult:
    """Run one simulation, then bombard it with random transient strikes.

    Each injection picks a uniformly random (cycle, entry slot) point in the
    structure and classifies the strike by what the reconstructed occupancy
    timeline says lived there.  Entries are interchangeable, so sampling a
    slot index against the per-cycle counts is exact.

    ``jobs`` bounds the worker threads reconstructing the per-structure
    occupancy timelines (they are independent once the run finishes);
    ``cache_dir`` persists the campaign result keyed by a content hash of
    every input, so repeating an identical campaign is instant.
    """
    config = config or DEFAULT_CONFIG
    base_sim = sim or SimConfig(max_instructions=4000)
    run_sim = _campaign_sim(base_sim)
    unsupported = [s for s in structures if s not in INJECTABLE]
    if unsupported:
        raise ReproError(f"cannot inject into {unsupported}; "
                         f"supported: {list(INJECTABLE)}")
    if jobs < 1:
        raise ReproError("jobs must be >= 1")

    policy_obj = create_policy(policy) if isinstance(policy, str) else policy
    name = workload.name if isinstance(workload, WorkloadMix) else "+".join(workload)

    cache_path: Optional[Path] = None
    if cache_dir is not None:
        key = _campaign_key(
            name,
            workload.programs if isinstance(workload, WorkloadMix) else workload,
            policy_obj.name, config, run_sim, injections, structures, seed)
        cache_path = open_dir(cache_dir) / f"campaign-{stable_digest(key)}.json"
        cached = read_entry(cache_path, CAMPAIGN_SCHEMA_VERSION,
                            _campaign_from_payload)
        if cached is not None:
            return cached

    session = SimSession(workload, policy=policy_obj, config=config,
                         sim=run_sim)
    sim_result = session.run()
    cycles = sim_result.cycles
    report = sim_result.avf
    engine = session.engine
    recorder = session.recorder

    rng = np.random.Generator(np.random.PCG64(seed))
    result = InjectionCampaignResult(workload=name, cycles=cycles,
                                     injections_per_structure=injections)
    # Draw every structure's strikes first, in structure order, so the RNG
    # stream (and hence the outcome counts) is independent of how the
    # classification below is scheduled.
    tasks: Dict[Structure, ClassifyTask] = {}
    for structure in structures:
        if structure in SHARED_STRUCTURES:
            capacity = engine.account(structure).capacity
        else:
            capacity = (engine.account(structure, 0).capacity
                        * session.core.num_threads)
        strike_cycles = rng.integers(0, cycles, size=injections)
        strike_slots = rng.integers(0, capacity, size=injections)
        intervals = tuple(tuple(iv) for iv in recorder.intervals(structure))
        tasks[structure] = ClassifyTask(
            structure=structure,
            strike_cycles=tuple(int(c) for c in strike_cycles),
            strike_slots=tuple(int(s) for s in strike_slots),
            intervals=intervals, cycles=cycles)

    counts: Dict[Structure, Dict[str, object]] = {}
    if jobs == 1 or len(tasks) <= 1:
        for structure, task in tasks.items():
            counts[structure] = task.run()
    else:
        # Classification is pure arithmetic on the drawn strikes, so the
        # supervised pool cannot change outcomes — only survive workers.
        from repro.resilience import RetryPolicy, Supervisor

        by_digest = {task.digest(): structure
                     for structure, task in tasks.items()}
        supervisor = Supervisor(max_workers=min(jobs, len(tasks)),
                                policy=RetryPolicy(retries=1, max_failures=0))
        supervisor.run(
            list(tasks.values()),
            commit=lambda task, payload:
                counts.__setitem__(by_digest[task.digest()], payload))
    # Assemble in the caller's structure order, independent of completion
    # order, so summaries and cache payloads are deterministic.
    for structure in structures:
        payload = counts[structure]
        sdc, occupied = int(payload["sdc"]), int(payload["occupied"])
        campaign = StructureCampaign(structure=structure,
                                     injections=injections,
                                     reported_avf=report.avf[structure])
        for outcome, count in ((InjectionOutcome.SDC, sdc),
                               (InjectionOutcome.MASKED_UNACE, occupied - sdc),
                               (InjectionOutcome.MASKED_IDLE,
                                injections - occupied)):
            if count:
                campaign.outcomes[outcome] = count
        result.structures[structure] = campaign

    if cache_path is not None:
        write_entry(cache_path, _campaign_payload(result),
                    CAMPAIGN_SCHEMA_VERSION)
    return result


# -- supervised campaign execution ------------------------------------------------


@dataclass(frozen=True)
class CampaignJob:
    """One whole injection campaign as a supervised task (picklable).

    Implements the task protocol of :class:`repro.resilience.Supervisor`
    (``label``/``digest``/``run``/``validate``).  The digest is the same
    content hash :func:`run_campaign` keys its on-disk cache with, so the
    supervised path and the legacy path share ``campaign-<digest>.json``
    files interchangeably.  ``classify_jobs`` (worker threads for the
    per-structure timeline reconstruction, inside the worker process) is
    excluded from the key: it cannot change the outcome.
    """

    workload_name: str
    programs: Tuple[str, ...]
    policy: str
    config: MachineConfig
    sim: SimConfig  # the base sim config; run_campaign adds interval recording
    injections: int
    structures: Tuple[Structure, ...]
    seed: int
    classify_jobs: int = 1

    @property
    def label(self) -> str:
        return f"campaign/{self.workload_name}/{self.policy}"

    def _workload(self) -> Union[WorkloadMix, List[str]]:
        mix = TABLE2_MIXES.get(self.workload_name)
        if mix is not None and mix.programs == self.programs:
            return mix
        return list(self.programs)

    def key(self) -> Dict[str, object]:
        return _campaign_key(self.workload_name, self.programs, self.policy,
                             self.config, _campaign_sim(self.sim),
                             self.injections, self.structures, self.seed)

    def digest(self) -> str:
        return stable_digest(self.key())

    def run(self) -> Dict[str, object]:
        result = run_campaign(self._workload(), injections=self.injections,
                              structures=self.structures, policy=self.policy,
                              config=self.config, sim=self.sim,
                              seed=self.seed, jobs=self.classify_jobs,
                              cache_dir=None)
        return _campaign_payload(result)

    def validate(self, payload: Dict[str, object]) -> None:
        _campaign_from_payload(payload)


def run_campaign_supervised(
        workload: Union[WorkloadMix, Sequence[str]],
        supervisor,
        injections: int = 2000,
        structures: Sequence[Structure] = INJECTABLE,
        policy: str = "ICOUNT",
        config: Optional[MachineConfig] = None,
        sim: Optional[SimConfig] = None,
        seed: int = 42,
        classify_jobs: int = 1,
        cache_dir: Optional[Union[str, Path]] = None,
) -> Optional[InjectionCampaignResult]:
    """:func:`run_campaign` under a :class:`~repro.resilience.Supervisor`.

    The campaign runs in a worker process with the supervisor's per-job
    timeout, retry/backoff and chaos exposure; its result is published to
    the same ``campaign-<digest>.json`` cache entry the legacy path uses,
    and completion is checkpointed in the supervisor's journal so an
    interrupted ``inject --resume`` skips a finished campaign entirely.
    Returns ``None`` when the campaign failed permanently within the
    supervisor's failure budget (the caller reads the particulars off
    ``supervisor.report``); raises
    :class:`~repro.errors.ExecutionFailed` beyond it.
    """
    config = config or DEFAULT_CONFIG
    base_sim = sim or SimConfig(max_instructions=4000)
    name = (workload.name if isinstance(workload, WorkloadMix)
            else "+".join(workload))
    programs = tuple(workload.programs if isinstance(workload, WorkloadMix)
                     else workload)
    job = CampaignJob(workload_name=name, programs=programs, policy=policy,
                      config=config, sim=base_sim, injections=injections,
                      structures=tuple(structures), seed=seed,
                      classify_jobs=classify_jobs)

    cache_path: Optional[Path] = None
    if cache_dir is not None:
        cache_path = open_dir(cache_dir) / f"campaign-{job.digest()}.json"

    collected: Dict[str, InjectionCampaignResult] = {}

    def commit(task: CampaignJob, payload: Dict[str, object]) -> None:
        result = _campaign_from_payload(payload)
        collected[task.digest()] = result
        if cache_path is not None:
            write_entry(cache_path, _campaign_payload(result),
                        CAMPAIGN_SCHEMA_VERSION)

    def already_done(task: CampaignJob) -> bool:
        if cache_path is None:
            return False
        cached = read_entry(cache_path, CAMPAIGN_SCHEMA_VERSION,
                            _campaign_from_payload)
        if cached is None:
            return False
        collected[task.digest()] = cached
        return True

    supervisor.run([job], commit=commit, already_done=already_done)
    return collected.get(job.digest())
