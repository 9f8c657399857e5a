"""Multi-seed replication: statistical robustness for any experiment.

The paper averages over workload groups A and B to avoid bias toward one
thread set; the statistical workload models add a second axis — the
generator seed.  This helper reruns a measurement across seeds and reports
mean and spread, so any figure's stability can be quantified (and any
shape assertion checked against noise rather than one draw).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.avf.structures import Structure
from repro.config import DEFAULT_CONFIG, MachineConfig, SimConfig
from repro.errors import ConfigError
from repro.experiments.runner import ResultCache, SimJob
from repro.sim.results import SimResult
from repro.workload.mixes import WorkloadLike, workload_label, workload_programs


@dataclass
class SeedStatistics:
    """Mean / min / max / stdev of one scalar across seeds."""

    values: List[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values) if self.values else 0.0

    @property
    def std(self) -> float:
        n = len(self.values)
        if n < 2:
            return 0.0
        m = self.mean
        return (sum((v - m) ** 2 for v in self.values) / (n - 1)) ** 0.5

    @property
    def spread(self) -> float:
        """Relative spread: (max - min) / mean (0 when degenerate)."""
        if not self.values or self.mean == 0:
            return 0.0
        return (max(self.values) - min(self.values)) / self.mean


@dataclass
class MultiSeedResult:
    """Per-structure AVF and IPC statistics across seeds."""

    workload: str
    policy: str
    seeds: Sequence[int]
    ipc: SeedStatistics = field(default_factory=SeedStatistics)
    avf: Dict[Structure, SeedStatistics] = field(default_factory=dict)
    runs: List[SimResult] = field(default_factory=list)

    def summary(self) -> str:
        lines = [f"{self.workload} [{self.policy}] over seeds {list(self.seeds)}:",
                 f"  IPC  mean={self.ipc.mean:.3f} std={self.ipc.std:.3f}"]
        for s, stat in self.avf.items():
            lines.append(f"  {s.value:<9} mean={stat.mean:.4f} "
                         f"std={stat.std:.4f} spread={stat.spread:.2f}")
        return "\n".join(lines)


def run_multiseed(workload: WorkloadLike,
                  seeds: Sequence[int] = (1, 2, 3),
                  policy: str = "ICOUNT",
                  instructions_per_thread: int = 2000,
                  config: Optional[MachineConfig] = None,
                  structures: Optional[Sequence[Structure]] = None,
                  cache: Optional[ResultCache] = None,
                  jobs: int = 1,
                  supervisor=None) -> MultiSeedResult:
    """Run one workload/policy point under several generator seeds.

    With ``cache`` given (typically a disk-backed :class:`ResultCache`),
    per-seed runs are cached, so re-running a spread analysis with more
    seeds only simulates the new ones.  ``jobs`` fans the per-seed runs
    over worker processes and ``supervisor`` (a
    :class:`repro.resilience.Supervisor`) makes that fan-out survive
    crashes, hangs and corrupt payloads; a seed whose job failed
    permanently surfaces as :class:`~repro.errors.MissingResultError`
    when its statistics are gathered.
    """
    if len(seeds) < 1:
        raise ConfigError("need at least one seed")
    config = config or DEFAULT_CONFIG
    threads = len(workload_programs(workload))
    tracked = tuple(structures) if structures else tuple(Structure)
    planned = [SimJob.of(workload, policy, config,
                         SimConfig(max_instructions=instructions_per_thread
                                   * threads, seed=seed))
               for seed in seeds]
    cache = cache or ResultCache(config)
    out = MultiSeedResult(workload=workload_label(workload), policy=policy,
                          seeds=tuple(seeds),
                          avf={s: SeedStatistics() for s in tracked})
    for result in cache.results(planned, max_workers=jobs,
                                supervisor=supervisor):
        out.runs.append(result)
        out.ipc.values.append(result.ipc)
        for s in tracked:
            out.avf[s].values.append(result.avf.avf[s])
    return out
