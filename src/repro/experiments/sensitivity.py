"""Resource-scaling sensitivity: Section 5's sizing argument, measured.

"By increasing the size of a microarchitecture structure, architects aim to
exploit more parallelism.  Nevertheless, the performance gain does not
correlate with the scale of hardware resources in a linear manner.  This
effect, on the other hand, has a great influence on reliability, because
the increased size ... is likely to bring in more in-flight instructions
and expose more program states to soft-error strikes."

:func:`run_resource_sweep` scales one structure (IQ, ROB, LSQ or the rename
pools) across a size ladder and reports throughput alongside the
*exposure* of the structure — its ACE-bit-cycles per cycle (AVF x bits),
the quantity that actually multiplies the raw error rate.  The expected
picture: IPC saturates while exposure keeps growing, so past the knee every
added entry costs reliability for no performance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from repro.avf.bits import structure_bits
from repro.avf.structures import Structure
from repro.config import DEFAULT_CONFIG, MachineConfig
from repro.errors import ConfigError
from repro.experiments.formatting import render_table
from repro.experiments.runner import ExperimentScale, ResultCache, SimJob
from repro.workload.mixes import WorkloadMix, get_mix

#: Resources the sweep can scale and the structure whose exposure it tracks.
SWEEPABLE = {
    "iq": (("iq_entries",), Structure.IQ),
    "rob": (("rob_entries",), Structure.ROB),
    "lsq": (("lsq_entries",), Structure.LSQ_TAG),
    "regs": (("int_phys_regs", "fp_phys_regs"), Structure.REG),
}

#: The ``resource_scaling`` artefact's sweep: (resource, size ladder,
#: workload).
RESOURCE_SWEEP = ("rob", (24, 48, 96, 192), "4-CPU-A")


@dataclass
class SweepPoint:
    """One size step of the ladder."""

    size: int
    ipc: float
    avf: float
    exposed_bits: float
    """ACE bits resident per cycle: AVF x structure bits — what the raw
    error rate multiplies."""


@dataclass
class SweepData:
    resource: str
    workload: str
    structure: Structure
    points: List[SweepPoint] = field(default_factory=list)

    def ipc_gain(self, i: int) -> float:
        """Relative IPC gain of step ``i`` over step ``i-1``."""
        return self.points[i].ipc / self.points[i - 1].ipc - 1.0

    def exposure_gain(self, i: int) -> float:
        return (self.points[i].exposed_bits
                / max(self.points[i - 1].exposed_bits, 1e-12) - 1.0)


def run_resource_sweep(resource: str,
                       sizes: Sequence[int],
                       workload: Union[str, WorkloadMix] = "4-MIX-A",
                       scale: Optional[ExperimentScale] = None,
                       policy: str = "ICOUNT",
                       cache: Optional[ResultCache] = None,
                       jobs: int = 1,
                       supervisor=None) -> SweepData:
    """Scale one resource over ``sizes`` and measure IPC and exposure.

    With ``cache`` given, each size step's run goes through the result
    cache (keyed by the overridden machine config), so repeated sweeps —
    and the ``reproduce`` driver's parallel prewarm — reuse the runs.
    ``jobs``/``supervisor`` fan the independent size steps over a
    (supervised, fault-tolerant) worker pool first; a step whose job
    failed permanently surfaces as
    :class:`~repro.errors.MissingResultError` when the sweep reads it.
    """
    if resource not in SWEEPABLE:
        raise ConfigError(f"unknown resource {resource!r}; "
                          f"known: {sorted(SWEEPABLE)}")
    if len(sizes) < 2 or any(s <= 0 for s in sizes):
        raise ConfigError("sizes must be at least two positive values")
    scale = scale or ExperimentScale.from_env()
    mix = get_mix(workload) if isinstance(workload, str) else workload
    structure = SWEEPABLE[resource][1]

    data = SweepData(resource=resource, workload=mix.name, structure=structure)
    cache = cache or ResultCache()
    planned = sweep_jobs(resource, sizes, mix, scale, policy, cache.config)
    results = cache.results(planned, max_workers=jobs, supervisor=supervisor)
    for size, job, result in zip(sizes, planned, results):
        avf = result.avf.avf[structure]
        bits = structure_bits(structure, job.config, mix.num_threads)
        data.points.append(SweepPoint(size=size, ipc=result.ipc, avf=avf,
                                      exposed_bits=avf * bits))
    return data


def sweep_jobs(resource: str, sizes: Sequence[int], mix: WorkloadMix,
               scale: ExperimentScale, policy: str = "ICOUNT",
               config: MachineConfig = DEFAULT_CONFIG) -> List[SimJob]:
    """One job per size step: ``config`` with the resource scaled."""
    fields, _structure = SWEEPABLE[resource]
    return [SimJob.smt(mix, policy, scale,
                       config.with_overrides(**{f: size for f in fields}))
            for size in sizes]


def format_sweep(data: SweepData) -> str:
    rows = [[p.size, p.ipc, p.avf, p.exposed_bits] for p in data.points]
    return render_table(
        f"Resource sweep: {data.resource} on {data.workload} "
        f"(exposure = AVF x {data.structure.value} bits)",
        ["size", "IPC", "AVF", "exposed ACE bits"],
        rows,
    )
