"""Shared experiment plumbing: scaling, run requests, caching, averaging.

A :class:`SimJob` is the only way an experiment asks for a simulation,
and :func:`run_jobs` is the only code that executes one.  The
:class:`ResultCache` reads jobs: from memory (so figures sharing runs —
1↔2, 6↔7↔8 — never repeat them within a process), then, when given a
``cache_dir``, from disk, keyed by the job's stable content hash of the
full (machine config, sim config, workload, policy) tuple, so repeated CLI
invocations skip simulation entirely; a miss goes to :func:`run_jobs`.
Entries are checksummed envelopes in the shared content store
(:mod:`repro.store`): stale or corrupt files are deleted or quarantined
and recomputed, never misread.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.avf.structures import Structure
from repro.config import DEFAULT_CONFIG, MachineConfig, SimConfig
from repro.errors import ConfigError, ExecutionFailed, MissingResultError
from repro.resilience import FailureReport, RetryPolicy, Supervisor, run_tasks
from repro.sim.results import SimResult
from repro.sim.simulator import simulate
from repro.store import (
    atomic_write,
    canonical_bytes,
    open_dir,
    read_entry,
    stable_digest,
    write_entry,
)
from repro.workload.mixes import (
    WorkloadLike,
    WorkloadMix,
    resolve_workload,
    workload_label,
    workload_programs,
)

#: Environment knob for benchmark runs: per-thread instruction budget.
SCALE_ENV_VAR = "REPRO_SCALE"

#: Environment knob for runtime auditing: invariant-check interval in
#: cycles (0/unset = off), read by :meth:`ExperimentScale.from_env`.
#: Workers get the interval inside each job's :class:`SimConfig`.
AUDIT_ENV_VAR = "REPRO_CHECK_INVARIANTS"

MIX_TYPES = ("CPU", "MIX", "MEM")

#: Version of the on-disk cache entry layout.  Bump whenever the
#: :meth:`SimResult.to_payload` schema (or anything the simulator measures)
#: changes: readers drop entries whose recorded schema differs, so stale
#: results are re-simulated instead of misread.
CACHE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExperimentScale:
    """Run-length/seed settings shared by a family of experiment runs."""

    instructions_per_thread: int = 2500
    seed: int = 1
    check_invariants: int = 0

    @classmethod
    def from_env(cls) -> "ExperimentScale":
        """Scale from ``REPRO_SCALE`` (per-thread instructions), default 2500.

        ``REPRO_CHECK_INVARIANTS`` (cycles between runtime audits, 0 = off)
        rides along the same way.  Raises :class:`ConfigError` for
        non-integer or non-positive values — a zero/negative budget would
        silently produce empty runs.
        """
        check_invariants = cls._env_int(AUDIT_ENV_VAR, minimum=0, default=0)
        raw = os.environ.get(SCALE_ENV_VAR)
        if raw is None or not raw.strip():
            return cls(check_invariants=check_invariants)
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(
                f"{SCALE_ENV_VAR} must be an integer instruction count, "
                f"got {raw!r}") from None
        if value <= 0:
            raise ConfigError(
                f"{SCALE_ENV_VAR} must be a positive instruction count, "
                f"got {value}")
        return cls(instructions_per_thread=value,
                   check_invariants=check_invariants)

    @staticmethod
    def _env_int(name: str, minimum: int, default: int) -> int:
        raw = os.environ.get(name)
        if raw is None or not raw.strip():
            return default
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"{name} must be an integer, got {raw!r}") from None
        if value < minimum:
            raise ConfigError(f"{name} must be >= {minimum}, got {value}")
        return value

    def sim_config(self, num_threads: int) -> SimConfig:
        return SimConfig(
            max_instructions=self.instructions_per_thread * num_threads,
            seed=self.seed,
            check_invariants=self.check_invariants,
        )


def job_key(config: MachineConfig, sim: SimConfig,
            workload: WorkloadLike, policy: str) -> Dict[str, object]:
    """Canonical identity of one simulation, as a JSON-safe dict.

    Covers every input that can change the result: the complete machine
    configuration, the complete sim configuration (including the seed), the
    workload label and program list, and the fetch policy.
    """
    return {
        "workload": workload_label(workload),
        "programs": list(workload_programs(workload)),
        "policy": policy,
        "machine": asdict(config),
        "sim": asdict(sim),
    }


@dataclass(frozen=True)
class SimJob:
    """One request for a simulation: everything ``simulate`` needs, picklable.

    Figures read a job through :meth:`ResultCache.result`, sweeps a batch
    through :meth:`ResultCache.results`, and the ``reproduce`` planners
    prewarm the same jobs, so a planned job and the renderer's read share
    one digest by construction.
    """

    workload_name: str
    programs: Tuple[str, ...]
    policy: str
    config: MachineConfig
    sim: SimConfig
    #: The mix the job was built from, if any: a custom
    #: :class:`WorkloadMix` cannot be rebuilt from its name.
    mix: Optional[WorkloadMix] = None

    @classmethod
    def of(cls, workload: WorkloadLike, policy: str = "ICOUNT",
           config: Optional[MachineConfig] = None,
           sim: Optional[SimConfig] = None) -> "SimJob":
        """The job for ``simulate(workload, policy, config, sim)``."""
        return cls(workload_name=workload_label(workload),
                   programs=workload_programs(workload), policy=policy,
                   config=config or DEFAULT_CONFIG, sim=sim or SimConfig(),
                   mix=workload if isinstance(workload, WorkloadMix) else None)

    @classmethod
    def smt(cls, mix: WorkloadMix, policy: str, scale: ExperimentScale,
            config: MachineConfig) -> "SimJob":
        """``mix`` under ``policy`` at the scale's per-context budget."""
        return cls.of(mix, policy, config, scale.sim_config(mix.num_threads))

    @classmethod
    def single_thread(cls, program: str, committed: int,
                      scale: ExperimentScale,
                      config: MachineConfig) -> "SimJob":
        """The equal-work reference run of one SMT thread.

        ``program`` runs alone for the ``committed`` instructions it
        retired under SMT (at least 100), as Figures 3, 4 and 8 and the
        SMT-vs-superscalar verdict compare; ``sim.max_instructions`` is
        that work.
        """
        return cls.of([program], "ICOUNT", config,
                      SimConfig(max_instructions=max(committed, 100),
                                seed=scale.seed,
                                check_invariants=scale.check_invariants))

    def workload(self) -> WorkloadLike:
        """The mix the job was built from, else the Table 2 mix the name
        matches, else the program list."""
        if self.mix is not None:
            return self.mix
        return resolve_workload(self.workload_name, self.programs)

    def digest(self) -> str:
        return stable_digest(
            job_key(self.config, self.sim, self.workload(), self.policy))

    # -- supervised-task protocol (see repro.resilience.supervisor) --------------

    @property
    def label(self) -> str:
        """Human-readable identity: MISSING markers, chaos matching, logs."""
        return f"{self.workload_name}/{self.policy}/seed{self.sim.seed}"

    def run(self) -> Dict[str, object]:
        result = simulate(self.workload(), policy=self.policy,
                          config=self.config, sim=self.sim)
        return result.to_payload()

    def validate(self, payload: Dict[str, object]) -> None:
        """Reject corrupt payloads before they can reach the cache."""
        SimResult.from_payload(payload)


def run_jobs(jobs: Iterable[SimJob], cache: "ResultCache",
             max_workers: int = 1,
             supervisor: Optional[Supervisor] = None) -> int:
    """Execute every job the cache cannot already answer; returns that count.

    Jobs are deduplicated by digest first, then checked against the cache
    (memory and disk), so the union of several artefacts' job sets costs
    each distinct simulation once.  Jobs a supervised run has already
    failed permanently (``cache.failed``) are neither re-run nor counted.

    Execution goes through :func:`~repro.resilience.run_tasks`: inline
    for one worker without a ``supervisor``, else on the caller's
    supervisor (its retry policy and failure budget) or a
    default one with zero retries.  Every payload completed before a
    mid-batch failure is committed to the cache before the failure
    propagates (as :class:`~repro.errors.ExecutionFailed`).
    """
    def commit(job: SimJob, payload: Dict[str, object]) -> None:
        cache.put(job.digest(), SimResult.from_payload(payload))
        cache.simulated += 1

    def already_done(job: SimJob) -> bool:
        digest = job.digest()
        return cache.get(digest) is not None or digest in cache.failed

    report = supervisor.report if supervisor is not None else FailureReport()
    try:
        return run_tasks(jobs, commit, already_done, jobs=max_workers,
                         supervisor=supervisor,
                         policy=RetryPolicy(retries=0,
                                            max_failures=0)).executed
    except ExecutionFailed as exc:
        report = exc.report
        raise
    finally:
        # Whatever happened — clean finish, degraded finish, or an
        # ExecutionFailed abort — renderers must see permanent failures as
        # MISSING rather than silently re-simulating them inline.
        for failure in report.failures:
            cache.mark_failed(failure.digest, failure.label)


def atomic_write_json(path: Path, entry: Dict[str, object]) -> None:
    """Publish one JSON document atomically, as canonical bytes.

    The cache itself writes through :func:`repro.store.write_entry`; this
    stays a public name because ``bench_e2e/traced.py`` times it.
    """
    atomic_write(path, canonical_bytes(entry))


class ResultCache:
    """Memoises simulations in memory and, optionally, on disk.

    Within a process, identical runs return the same :class:`SimResult`
    object.  With ``cache_dir`` set, results are also persisted as one JSON
    file per run under ``<cache_dir>/<digest>.json`` and reused by later
    processes — ``repro-sim reproduce --cache-dir`` makes artefact
    regeneration near-instant on the second invocation.

    Counters: ``simulated`` (runs actually executed through this cache),
    ``mem_hits`` and ``disk_hits``.
    """

    def __init__(self, config: Optional[MachineConfig] = None,
                 cache_dir: Optional[Union[str, Path]] = None) -> None:
        self.config = config or DEFAULT_CONFIG
        self.cache_dir = open_dir(cache_dir) if cache_dir is not None else None
        self._mem: Dict[str, SimResult] = {}
        self.failed: Dict[str, str] = {}
        self.simulated = 0
        self.mem_hits = 0
        self.disk_hits = 0

    # -- reads ---------------------------------------------------------------------

    def result(self, job: SimJob) -> SimResult:
        """The job's result: from memory, else the verified store, else
        executed by :func:`run_jobs`.

        Raises :class:`~repro.errors.MissingResultError` for a job a
        supervised run already failed permanently: a silent inline re-run
        would mask the failure (and likely fail the same way, this time
        with nothing supervising it).
        """
        digest = job.digest()
        hit = self.get(digest)
        if hit is None:
            run_jobs([job], self)
            hit = self._mem.get(digest)
            if hit is None:
                raise MissingResultError(self.failed[digest], digest)
        return hit

    def results(self, jobs: Sequence[SimJob], max_workers: int = 1,
                supervisor: Optional[Supervisor] = None) -> List[SimResult]:
        """Every job's result, in order; the misses run first as one
        :func:`run_jobs` batch on ``max_workers`` workers (or the
        ``supervisor``'s pool)."""
        run_jobs(jobs, self, max_workers=max_workers, supervisor=supervisor)
        return [self.result(job) for job in jobs]

    def run(self, workload: WorkloadLike, policy: str = "ICOUNT",
            sim: Optional[SimConfig] = None,
            config: Optional[MachineConfig] = None) -> SimResult:
        """Cached :func:`simulate` with an arbitrary machine/sim config."""
        return self.result(SimJob.of(workload, policy, config or self.config,
                                     sim))

    def smt(self, mix: WorkloadMix, policy: str,
            scale: ExperimentScale) -> SimResult:
        return self.result(SimJob.smt(mix, policy, scale, self.config))

    def single_thread(self, program: str, committed: int,
                      scale: ExperimentScale) -> SimResult:
        """Equal-work standalone (superscalar) run; see
        :meth:`SimJob.single_thread`."""
        return self.result(
            SimJob.single_thread(program, committed, scale, self.config))

    # -- store ---------------------------------------------------------------------

    def get(self, digest: str) -> Optional[SimResult]:
        """Memory-then-disk lookup; None on miss."""
        hit = self._mem.get(digest)
        if hit is not None:
            self.mem_hits += 1
            return hit
        if self.cache_dir is None:
            return None
        result = read_entry(self._path(digest), CACHE_SCHEMA_VERSION,
                            SimResult.from_payload)
        if result is not None:
            self.disk_hits += 1
            self._mem[digest] = result
        return result

    def put(self, digest: str, result: SimResult) -> None:
        """Insert a finished run (memory always; disk when configured).

        Runs carrying a phase series stay memory-only: the series is not
        part of the serialization schema (see ``SimResult.to_payload``).
        """
        self._mem[digest] = result
        if self.cache_dir is not None and result.phase_series is None:
            write_entry(self._path(digest), result.to_payload(),
                        CACHE_SCHEMA_VERSION)

    def mark_failed(self, digest: str, label: str) -> None:
        """Record that a supervised job failed permanently.

        A later :meth:`result` for the same digest raises
        :class:`~repro.errors.MissingResultError` instead of silently
        re-simulating, so renderers degrade to explicit ``MISSING``
        markers.  :meth:`get` still answers (``None``) without raising —
        planners probe presence through it.
        """
        self.failed[digest] = label

    def clear(self) -> None:
        """Drop the in-memory memo (on-disk entries are left alone)."""
        self._mem.clear()

    def _path(self, digest: str) -> Path:
        return self.cache_dir / f"{digest}.json"


#: Process-wide cache shared by all figure modules (and hence by the
#: benchmark suite, where figures 1/2 and 6/7/8 reuse the same runs).
default_cache = ResultCache()


def average_avf(results: List[SimResult], structure: Structure) -> float:
    """Mean structure AVF over workload groups (the paper reports averages)."""
    return sum(r.avf.avf[structure] for r in results) / len(results)


def average_ipc(results: List[SimResult]) -> float:
    return sum(r.ipc for r in results) / len(results)


@dataclass
class StructureSeries:
    """One figure series: a value per tracked structure."""

    label: str
    values: Dict[Structure, float] = field(default_factory=dict)

    def row(self, order) -> List[float]:
        return [self.values[s] for s in order]
