"""SMT vs superscalar: the overall reliability-efficiency verdict.

Section 4.1's closing claim: "Comparing the overall AVF of multithreaded
execution versus the aggregated AVF of superscalar execution ... when
considering the overall reliability efficiency of workloads, SMT
architecture outperforms superscalar for all of the cases except the IQ on
CPU workloads.  This exception is due to the relatively large increase in
AVF as compared to that of performance."

The comparison at equal work: run the SMT mix; run each thread standalone
for the instructions it committed; sequential IPC is total work over summed
standalone cycles, sequential AVF is the work-weighted mean of standalone
AVFs.  The verdict per structure is the ratio of the two IPC/AVF values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.avf.structures import FIGURE1_ORDER, Structure
from repro.experiments.formatting import render_table
from repro.experiments.runner import (
    MIX_TYPES,
    ExperimentScale,
    ResultCache,
    SimJob,
    default_cache,
)
from repro.metrics.perf import aggregate_weighted_avf
from repro.metrics.reliability import reliability_efficiency
from repro.workload.mixes import mixes_for


@dataclass
class TradeoffRow:
    """One workload's SMT-vs-sequential verdict."""

    workload: str
    smt_ipc: float
    seq_ipc: float
    smt_avf: Dict[Structure, float] = field(default_factory=dict)
    seq_avf: Dict[Structure, float] = field(default_factory=dict)

    def advantage(self, structure: Structure) -> float:
        """(SMT IPC/AVF) / (sequential IPC/AVF); >1 means SMT wins."""
        smt = reliability_efficiency(self.smt_ipc, self.smt_avf[structure])
        seq = reliability_efficiency(self.seq_ipc, self.seq_avf[structure])
        if seq == float("inf"):
            return 1.0 if smt == float("inf") else 0.0
        if smt == float("inf"):
            return float("inf")
        return smt / seq


@dataclass
class TradeoffData:
    rows: List[TradeoffRow] = field(default_factory=list)

    def by_mix_type(self, mix_type: str) -> List[TradeoffRow]:
        return [r for r in self.rows if f"-{mix_type}-" in r.workload]


def run_smt_tradeoff(scale: Optional[ExperimentScale] = None,
                     cache: Optional[ResultCache] = None,
                     num_threads: int = 4) -> TradeoffData:
    scale = scale or ExperimentScale.from_env()
    cache = cache or default_cache
    data = TradeoffData()
    for mix_type in MIX_TYPES:
        for mix in mixes_for(num_threads, mix_type):
            smt = cache.smt(mix, "ICOUNT", scale)
            refs = [SimJob.single_thread(t.program, t.committed, scale,
                                         cache.config) for t in smt.threads]
            st_results = [cache.result(job) for job in refs]
            total_work = sum(job.sim.max_instructions for job in refs)
            seq_cycles = sum(st.cycles for st in st_results)
            row = TradeoffRow(workload=mix.name, smt_ipc=smt.ipc,
                              seq_ipc=total_work / seq_cycles)
            work = {i: job.sim.max_instructions / total_work
                    for i, job in enumerate(refs)}
            for s in Structure:
                row.smt_avf[s] = smt.avf.avf[s]
                row.seq_avf[s] = aggregate_weighted_avf(
                    {i: st.avf.avf[s] for i, st in enumerate(st_results)}, work)
            data.rows.append(row)
    return data


def format_smt_tradeoff(data: TradeoffData) -> str:
    rows = []
    for r in data.rows:
        rows.append([r.workload, r.smt_ipc, r.seq_ipc]
                    + [r.advantage(s) for s in FIGURE1_ORDER])
    return render_table(
        "SMT vs superscalar: (SMT IPC/AVF) / (sequential IPC/AVF); >1 = SMT wins",
        ["workload", "SMT IPC", "seq IPC", *(s.value for s in FIGURE1_ORDER)],
        rows,
    )
