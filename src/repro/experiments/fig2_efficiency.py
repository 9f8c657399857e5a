"""Figure 2: reliability efficiency (IPC/AVF) per structure per workload class.

Shares its simulations with Figure 1.
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
    average_ipc,
    default_cache,
)
from repro.metrics.reliability import reliability_efficiency
from repro.workload.mixes import mixes_for


@dataclass
class Figure2Data:
    """IPC/AVF by structure for each workload class (4-context, ICOUNT)."""

    num_threads: int
    efficiency: Dict[str, Dict[Structure, float]]
    ipc: Dict[str, float]


def run_figure2(scale: Optional[ExperimentScale] = None,
                cache: Optional[ResultCache] = None,
                num_threads: int = 4) -> Figure2Data:
    scale = scale or ExperimentScale.from_env()
    cache = cache or default_cache
    efficiency: Dict[str, Dict[Structure, float]] = {}
    ipc: Dict[str, float] = {}
    for mix_type in MIX_TYPES:
        results = [cache.smt(mix, "ICOUNT", scale)
                   for mix in mixes_for(num_threads, mix_type)]
        ipc[mix_type] = average_ipc(results)
        efficiency[mix_type] = {
            s: reliability_efficiency(ipc[mix_type], average_avf(results, s))
            for s in Structure
        }
    return Figure2Data(num_threads=num_threads, efficiency=efficiency, ipc=ipc)


def format_figure2(data: Figure2Data) -> str:
    rows: List[List[object]] = []
    for s in FIGURE1_ORDER:
        rows.append([s.value] + [data.efficiency[m][s] for m in MIX_TYPES])
    rows.append(["(IPC)"] + [data.ipc[m] for m in MIX_TYPES])
    return render_table(
        f"Figure 2: reliability efficiency IPC/AVF ({data.num_threads}-context, ICOUNT)",
        ["structure", *MIX_TYPES],
        rows,
    )
