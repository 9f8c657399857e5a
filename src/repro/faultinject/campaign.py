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
from repro.workload.mixes import (
    WorkloadLike,
    resolve_workload,
    workload_label,
    workload_programs,
)

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


@dataclass(frozen=True)
class CampaignJob:
    """One whole interval campaign as a task (picklable).

    Implements the task protocol of :func:`repro.resilience.run_tasks`
    (``label``/``digest``/``run``/``validate``).  The digest is the
    content hash the ``campaign-<digest>.json`` cache entry is keyed by.
    ``policy`` is a registry name or a :class:`FetchPolicy` instance (the
    RMT coverage study passes its slack-fetch policy).
    """

    workload_name: str
    programs: Tuple[str, ...]
    policy: Union[str, FetchPolicy]
    config: MachineConfig
    sim: SimConfig  # the base sim config; the run adds interval recording
    injections: int
    structures: Tuple[Structure, ...]
    seed: int

    def _fetch_policy(self) -> FetchPolicy:
        if isinstance(self.policy, str):
            return create_policy(self.policy)
        return self.policy

    @property
    def label(self) -> str:
        return f"campaign/{self.workload_name}/{self._fetch_policy().name}"

    def key(self) -> Dict[str, object]:
        return _campaign_key(self.workload_name, self.programs,
                             self._fetch_policy().name, self.config,
                             _campaign_sim(self.sim), self.injections,
                             self.structures, self.seed)

    def digest(self) -> str:
        return stable_digest(self.key())

    def run(self) -> Dict[str, object]:
        session = SimSession(
            resolve_workload(self.workload_name, self.programs),
            policy=self._fetch_policy(), config=self.config,
            sim=_campaign_sim(self.sim))
        sim_result = session.run()
        cycles = sim_result.cycles
        engine = session.engine
        rng = np.random.Generator(np.random.PCG64(self.seed))
        result = InjectionCampaignResult(
            workload=self.workload_name, cycles=cycles,
            injections_per_structure=self.injections)
        for structure in self.structures:
            if structure in SHARED_STRUCTURES:
                capacity = engine.account(structure).capacity
            else:
                capacity = (engine.account(structure, 0).capacity
                            * session.core.num_threads)
            strike_cycles = rng.integers(0, cycles, size=self.injections)
            strike_slots = rng.integers(0, capacity, size=self.injections)
            ace_at, occ_at = _occupancy_timelines(
                [session.recorder.intervals(structure)], cycles)
            # A strike below the ACE count corrupts; below the occupancy
            # count it lands in an un-ACE entry; otherwise the slot was
            # idle.  ACE intervals are a subset of occupancy, so the
            # counts nest exactly as a per-strike if/elif chain would
            # classify them.
            sdc = int(np.count_nonzero(strike_slots < ace_at[strike_cycles]))
            occupied = int(np.count_nonzero(
                strike_slots < occ_at[strike_cycles]))
            campaign = StructureCampaign(
                structure=structure, injections=self.injections,
                reported_avf=sim_result.avf.avf[structure])
            for outcome, count in (
                    (InjectionOutcome.SDC, sdc),
                    (InjectionOutcome.MASKED_UNACE, occupied - sdc),
                    (InjectionOutcome.MASKED_IDLE,
                     self.injections - occupied)):
                if count:
                    campaign.outcomes[outcome] = count
            result.structures[structure] = campaign
        return _campaign_payload(result)

    def validate(self, payload: Dict[str, object]) -> None:
        _campaign_from_payload(payload)


def run_campaign(workload: WorkloadLike,
                 injections: int = 2000,
                 structures: Sequence[Structure] = INJECTABLE,
                 policy: Union[str, FetchPolicy] = "ICOUNT",
                 config: Optional[MachineConfig] = None,
                 sim: Optional[SimConfig] = None,
                 seed: int = 42,
                 cache_dir: Optional[Union[str, Path]] = None,
                 supervisor=None) -> Optional[InjectionCampaignResult]:
    """Run one simulation, then bombard it with random transient strikes.

    Each injection picks a uniformly random (cycle, entry slot) point in the
    structure and classifies the strike by what the reconstructed occupancy
    timeline says lived there.  Entries are interchangeable, so sampling a
    slot index against the per-cycle counts is exact.

    The campaign is one :class:`CampaignJob` run through
    :func:`~repro.resilience.run_tasks`: in-process by default, or in a
    worker under ``supervisor`` (its per-job timeout, retries and chaos
    exposure).  ``cache_dir`` persists the result as
    ``campaign-<digest>.json``, keyed by a content hash of every input,
    so repeating an identical campaign either way is instant — and a
    killed campaign resumes by rerunning on the same ``cache_dir``.
    ``repro-sim inject`` and the campaign service reach this through
    :func:`repro.service.runner.run_spec`, so both draw strikes from the
    spec's seed.
    Returns ``None`` only when a supervised campaign failed permanently
    within the supervisor's failure budget (the particulars are on
    ``supervisor.report``); beyond it
    :class:`~repro.errors.ExecutionFailed` is raised.
    """
    # Imported here: the pool machinery is start-up time a process that
    # only imports this package should not pay.
    from repro.resilience.supervisor import run_tasks

    unsupported = [s for s in structures if s not in INJECTABLE]
    if unsupported:
        raise ReproError(f"cannot inject into {unsupported}; "
                         f"supported: {list(INJECTABLE)}")
    job = CampaignJob(workload_name=workload_label(workload),
                      programs=workload_programs(workload), policy=policy,
                      config=config or DEFAULT_CONFIG,
                      sim=sim or SimConfig(max_instructions=4000),
                      injections=injections, structures=tuple(structures),
                      seed=seed)
    cache_path = (open_dir(cache_dir) / f"campaign-{job.digest()}.json"
                  if cache_dir is not None else None)
    results: List[InjectionCampaignResult] = []

    def already_done(task: CampaignJob) -> bool:
        if cache_path is None:
            return False
        cached = read_entry(cache_path, CAMPAIGN_SCHEMA_VERSION,
                            _campaign_from_payload)
        if cached is None:
            return False
        results.append(cached)
        return True

    def commit(task: CampaignJob, payload: Dict[str, object]) -> None:
        results.append(_campaign_from_payload(payload))
        if cache_path is not None:
            write_entry(cache_path, payload, CAMPAIGN_SCHEMA_VERSION)

    run_tasks([job], commit, already_done, supervisor=supervisor)
    return results[0] if results else None
