"""Figure 7: reliability efficiency of the fetch policies, ICOUNT-normalised.

For each structure, IPC/AVF of the five advanced policies divided by
ICOUNT's IPC/AVF, averaged over the 4- and 8-context workloads of each
class.  Values above 1.0 mean a better performance/reliability trade-off
than the baseline.  Shares all simulations with Figure 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.avf.structures import FIGURE1_ORDER, Structure
from repro.experiments.fig6_fetch_policies import (
    FIG6_CONTEXTS, Figure6Data, run_figure6)
from repro.experiments.formatting import render_table
from repro.experiments.runner import MIX_TYPES, ExperimentScale, ResultCache
from repro.fetch.registry import POLICY_NAMES
from repro.metrics.reliability import reliability_efficiency

ADVANCED_POLICIES = tuple(p for p in POLICY_NAMES if p != "ICOUNT")


@dataclass
class Figure7Data:
    """normalised[(mix_type, policy)][structure] = (IPC/AVF) / (ICOUNT IPC/AVF)"""

    normalized: Dict[Tuple[str, str], Dict[Structure, float]] = field(default_factory=dict)
    fig6: Optional[Figure6Data] = None


def run_figure7(scale: Optional[ExperimentScale] = None,
                cache: Optional[ResultCache] = None,
                contexts: Tuple[int, ...] = FIG6_CONTEXTS) -> Figure7Data:
    fig6 = run_figure6(scale=scale, cache=cache, contexts=contexts)
    data = Figure7Data(fig6=fig6)
    for mix_type in MIX_TYPES:
        for policy in ADVANCED_POLICIES:
            norm: Dict[Structure, float] = {}
            for s in Structure:
                ratios = []
                for n in contexts:
                    base = reliability_efficiency(
                        fig6.ipc[(n, mix_type, "ICOUNT")],
                        fig6.avf[(n, mix_type, "ICOUNT")][s])
                    this = reliability_efficiency(
                        fig6.ipc[(n, mix_type, policy)],
                        fig6.avf[(n, mix_type, policy)][s])
                    if base > 0 and base != float("inf"):
                        ratios.append(this / base)
                norm[s] = sum(ratios) / len(ratios) if ratios else float("nan")
            data.normalized[(mix_type, policy)] = norm
    return data


def format_figure7(data: Figure7Data) -> str:
    rows: List[List[object]] = []
    for mix_type in MIX_TYPES:
        for s in FIGURE1_ORDER:
            rows.append([f"{mix_type}/{s.value}"]
                        + [data.normalized[(mix_type, p)][s]
                           for p in ADVANCED_POLICIES])
    return render_table(
        "Figure 7: IPC/AVF normalised to ICOUNT (avg of 4- and 8-context)",
        ["mix/structure", *ADVANCED_POLICIES],
        rows,
    )
