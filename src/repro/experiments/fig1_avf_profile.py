"""Figure 1: microarchitecture AVF profile of the 4-context SMT processor.

One AVF bar per structure (IQ, FU, Reg, DL1 data/tag, ROB, LSQ data/tag)
for each workload class (CPU, MIX, MEM), averaged over the Table 2 groups,
under the ICOUNT baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.avf.structures import FIGURE1_ORDER, Structure
from repro.experiments.formatting import render_table
from repro.experiments.runner import (
    MIX_TYPES,
    ExperimentScale,
    ResultCache,
    average_avf,
    default_cache,
)
from repro.workload.mixes import mixes_for


@dataclass
class Figure1Data:
    """AVF by structure for each workload class (4-context, ICOUNT)."""

    num_threads: int
    avf: Dict[str, Dict[Structure, float]]  # mix type -> structure -> AVF

    def series(self, mix_type: str) -> Dict[Structure, float]:
        return self.avf[mix_type]


def run_figure1(scale: Optional[ExperimentScale] = None,
                cache: Optional[ResultCache] = None,
                num_threads: int = 4) -> Figure1Data:
    scale = scale or ExperimentScale.from_env()
    cache = cache or default_cache
    avf: Dict[str, Dict[Structure, float]] = {}
    for mix_type in MIX_TYPES:
        results = [cache.smt(mix, "ICOUNT", scale)
                   for mix in mixes_for(num_threads, mix_type)]
        avf[mix_type] = {s: average_avf(results, s) for s in Structure}
    return Figure1Data(num_threads=num_threads, avf=avf)


def format_figure1(data: Figure1Data) -> str:
    rows: List[List[object]] = []
    for s in FIGURE1_ORDER:
        rows.append([s.value] + [data.avf[m][s] for m in MIX_TYPES])
    return render_table(
        f"Figure 1: AVF profile ({data.num_threads}-context, ICOUNT)",
        ["structure", *MIX_TYPES],
        rows,
    )
