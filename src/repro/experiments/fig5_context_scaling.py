"""Figure 5: AVF vs number of thread contexts (2, 4, 8).

Two panels in the paper — pipeline structures (IQ, FU, ROB, Reg) and
memory structures (LSQ tag/data, DL1 tag/data) — each a line per structure
per workload class over the context counts, under ICOUNT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.avf.structures import Structure
from repro.experiments.formatting import render_table
from repro.experiments.runner import (
    MIX_TYPES,
    ExperimentScale,
    ResultCache,
    average_avf,
    default_cache,
)
from repro.workload.mixes import mixes_for

CONTEXT_COUNTS = (2, 4, 8)

PIPELINE_PANEL = (Structure.IQ, Structure.FU, Structure.ROB, Structure.REG)
MEMORY_PANEL = (Structure.LSQ_TAG, Structure.DL1_TAG,
                Structure.LSQ_DATA, Structure.DL1_DATA)


@dataclass
class Figure5Data:
    """avf[(mix_type, num_threads)][structure]"""

    avf: Dict[Tuple[str, int], Dict[Structure, float]] = field(default_factory=dict)
    ipc: Dict[Tuple[str, int], float] = field(default_factory=dict)


def run_figure5(scale: Optional[ExperimentScale] = None,
                cache: Optional[ResultCache] = None) -> Figure5Data:
    scale = scale or ExperimentScale.from_env()
    cache = cache or default_cache
    data = Figure5Data()
    for mix_type in MIX_TYPES:
        for n in CONTEXT_COUNTS:
            results = [cache.smt(mix, "ICOUNT", scale)
                       for mix in mixes_for(n, mix_type)]
            data.avf[(mix_type, n)] = {s: average_avf(results, s) for s in Structure}
            data.ipc[(mix_type, n)] = sum(r.ipc for r in results) / len(results)
    return data


def format_figure5(data: Figure5Data) -> str:
    blocks = []
    for title, panel in (("pipeline structures", PIPELINE_PANEL),
                         ("memory structures", MEMORY_PANEL)):
        rows: List[List[object]] = []
        for s in panel:
            for mix_type in MIX_TYPES:
                rows.append([f"{s.value}/{mix_type}"]
                            + [data.avf[(mix_type, n)][s] for n in CONTEXT_COUNTS])
        blocks.append(render_table(
            f"Figure 5: AVF vs number of contexts — {title}",
            ["structure/mix", *(str(n) for n in CONTEXT_COUNTS)],
            rows,
        ))
    return "\n\n".join(blocks)
