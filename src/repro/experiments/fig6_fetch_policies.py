"""Figure 6: microarchitecture AVF under the six fetch policies.

Panel (a): 4-context workloads; panel (b): 8-context workloads.  Each panel
reports, per workload class and structure, the AVF under ICOUNT, FLUSH,
STALL, DG, PDG and DWARN, averaged over the Table 2 groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

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
from repro.fetch.registry import POLICY_NAMES
from repro.workload.mixes import mixes_for

FIG6_CONTEXTS = (4, 8)


@dataclass
class Figure6Data:
    """avf[(num_threads, mix_type, policy)][structure]; ipc likewise."""

    avf: Dict[Tuple[int, str, str], Dict[Structure, float]] = field(default_factory=dict)
    ipc: Dict[Tuple[int, str, str], float] = field(default_factory=dict)


def run_figure6(scale: Optional[ExperimentScale] = None,
                cache: Optional[ResultCache] = None,
                contexts: Tuple[int, ...] = FIG6_CONTEXTS) -> Figure6Data:
    scale = scale or ExperimentScale.from_env()
    cache = cache or default_cache
    data = Figure6Data()
    for n in contexts:
        for mix_type in MIX_TYPES:
            mixes = mixes_for(n, mix_type)
            for policy in POLICY_NAMES:
                results = [cache.smt(mix, policy, scale) for mix in mixes]
                key = (n, mix_type, policy)
                data.avf[key] = {s: average_avf(results, s) for s in Structure}
                data.ipc[key] = average_ipc(results)
    return data


def format_figure6(data: Figure6Data) -> str:
    contexts = sorted({k[0] for k in data.avf})
    blocks = []
    for n in contexts:
        rows: List[List[object]] = []
        for mix_type in MIX_TYPES:
            for s in FIGURE1_ORDER:
                rows.append([f"{mix_type}/{s.value}"]
                            + [data.avf[(n, mix_type, p)][s] for p in POLICY_NAMES])
        blocks.append(render_table(
            f"Figure 6({'a' if n == 4 else 'b'}): AVF under fetch policies "
            f"({n}-context)",
            ["mix/structure", *POLICY_NAMES],
            rows,
        ))
    return "\n\n".join(blocks)
