"""Figure 3: per-thread AVF under SMT vs single-thread (ST) execution.

For each 4-context group-A workload: run the SMT mix, record how many
instructions each thread committed, then run each program *alone* for
exactly that many instructions — identical work in both modes, as the paper
does.  Reports, per thread, the IQ/FU/ROB AVF contributed by the thread
under SMT against the AVF of the same structure when the thread runs alone,
plus the "all threads" aggregate: the summed SMT AVF vs the work-weighted
sequential AVF.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.avf.structures import Structure
from repro.experiments.formatting import render_table
from repro.experiments.runner import (
    ExperimentScale,
    ResultCache,
    SimJob,
    default_cache,
)
from repro.metrics.perf import aggregate_weighted_avf
from repro.workload.mixes import get_mix

#: The structures Figure 3 plots.
FIG3_STRUCTURES = (Structure.IQ, Structure.FU, Structure.ROB)

#: Workloads Figure 3 (and thus Figure 4) compares across execution modes.
FIG3_WORKLOADS = ("4-CPU-A", "4-MIX-A", "4-MEM-A")


@dataclass
class ThreadComparison:
    """One thread's AVF in both execution modes."""

    program: str
    committed: int
    st_avf: Dict[Structure, float] = field(default_factory=dict)
    smt_avf: Dict[Structure, float] = field(default_factory=dict)
    st_ipc: float = 0.0
    smt_ipc: float = 0.0


@dataclass
class WorkloadComparison:
    """All threads of one mix plus the aggregate row."""

    workload: str
    threads: List[ThreadComparison] = field(default_factory=list)
    aggregate_smt: Dict[Structure, float] = field(default_factory=dict)
    weighted_sequential: Dict[Structure, float] = field(default_factory=dict)
    smt_ipc: float = 0.0


@dataclass
class Figure3Data:
    workloads: List[WorkloadComparison] = field(default_factory=list)


def run_figure3(scale: Optional[ExperimentScale] = None,
                cache: Optional[ResultCache] = None,
                workload_names: Optional[List[str]] = None) -> Figure3Data:
    scale = scale or ExperimentScale.from_env()
    cache = cache or default_cache
    names = workload_names or FIG3_WORKLOADS
    data = Figure3Data()
    for name in names:
        mix = get_mix(name)
        smt = cache.smt(mix, "ICOUNT", scale)
        comp = WorkloadComparison(workload=name, smt_ipc=smt.ipc)
        for tr in smt.threads:
            job = SimJob.single_thread(tr.program, tr.committed, scale,
                                       cache.config)
            st = cache.result(job)
            tc = ThreadComparison(program=tr.program,
                                  committed=job.sim.max_instructions,
                                  st_ipc=st.ipc, smt_ipc=tr.ipc)
            for s in FIG3_STRUCTURES:
                tc.st_avf[s] = st.avf.avf[s]
                tc.smt_avf[s] = smt.avf.thread_avf[s][tr.thread_id]
            comp.threads.append(tc)
        total_work = sum(tc.committed for tc in comp.threads)
        for s in FIG3_STRUCTURES:
            comp.aggregate_smt[s] = _aggregate_smt(smt, s)
            comp.weighted_sequential[s] = aggregate_weighted_avf(
                {i: tc.st_avf[s] for i, tc in enumerate(comp.threads)},
                {i: tc.committed / total_work for i, tc in enumerate(comp.threads)},
            )
        data.workloads.append(comp)
    return data


def _aggregate_smt(smt, structure: Structure) -> float:
    """The structure's total AVF under SMT (shared: sum; private: mean)."""
    return smt.avf.avf[structure]


def format_figure3(data: Figure3Data) -> str:
    blocks = []
    for comp in data.workloads:
        rows: List[List[object]] = []
        for tc in comp.threads:
            rows.append([
                tc.program,
                *(tc.st_avf[s] for s in FIG3_STRUCTURES),
                *(tc.smt_avf[s] for s in FIG3_STRUCTURES),
            ])
        rows.append([
            "all-threads",
            *(comp.weighted_sequential[s] for s in FIG3_STRUCTURES),
            *(comp.aggregate_smt[s] for s in FIG3_STRUCTURES),
        ])
        header = ["thread",
                  *(f"{s.value}_ST" for s in FIG3_STRUCTURES),
                  *(f"{s.value}_SMT" for s in FIG3_STRUCTURES)]
        blocks.append(render_table(
            f"Figure 3: SMT vs single-thread AVF — {comp.workload}",
            header, rows,
        ))
    return "\n\n".join(blocks)
