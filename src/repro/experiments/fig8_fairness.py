"""Figure 8: policy trade-offs under fairness-aware performance metrics.

Panel (a): weighted-speedup / AVF; panel (b): harmonic-mean-of-weighted-IPC
/ AVF — both normalised to ICOUNT, averaged over the 4- and 8-context
workloads of each class.  The single-thread reference IPC for each program
is measured by running it alone for the instruction count it committed in
the ICOUNT SMT run (equal work, as in Figure 3).  Shares the SMT
simulations with Figures 6 and 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.avf.structures import FIGURE1_ORDER, Structure
from repro.experiments.fig6_fetch_policies import FIG6_CONTEXTS
from repro.experiments.fig7_policy_efficiency import ADVANCED_POLICIES
from repro.experiments.formatting import render_table
from repro.experiments.runner import (
    MIX_TYPES,
    ExperimentScale,
    ResultCache,
    default_cache,
)
from repro.fetch.registry import POLICY_NAMES
from repro.metrics.perf import harmonic_mean_weighted_ipc, weighted_speedup
from repro.workload.mixes import mixes_for


@dataclass
class Figure8Data:
    """Ratios normalised to ICOUNT, per (metric, mix type, policy, structure)."""

    weighted: Dict[Tuple[str, str], Dict[Structure, float]] = field(default_factory=dict)
    harmonic: Dict[Tuple[str, str], Dict[Structure, float]] = field(default_factory=dict)


def _fairness_metrics(cache: ResultCache, mix, policy: str,
                      scale: ExperimentScale) -> Tuple[float, float, Dict[Structure, float]]:
    """(weighted speedup, harmonic IPC, avf) for one mix under one policy."""
    smt = cache.smt(mix, policy, scale)
    reference = cache.smt(mix, "ICOUNT", scale)
    st_ipcs = [cache.single_thread(tr.program, tr.committed, scale).ipc
               for tr in reference.threads]
    smt_ipcs = [t.ipc for t in smt.threads]
    ws = weighted_speedup(smt_ipcs, st_ipcs)
    hm = harmonic_mean_weighted_ipc(smt_ipcs, st_ipcs)
    return ws, hm, dict(smt.avf.avf)


def run_figure8(scale: Optional[ExperimentScale] = None,
                cache: Optional[ResultCache] = None,
                contexts: Tuple[int, ...] = FIG6_CONTEXTS) -> Figure8Data:
    scale = scale or ExperimentScale.from_env()
    cache = cache or default_cache
    data = Figure8Data()
    for mix_type in MIX_TYPES:
        per_policy_ws: Dict[str, Dict[Structure, List[float]]] = {
            p: {s: [] for s in Structure} for p in POLICY_NAMES
        }
        per_policy_hm: Dict[str, Dict[Structure, List[float]]] = {
            p: {s: [] for s in Structure} for p in POLICY_NAMES
        }
        for n in contexts:
            for mix in mixes_for(n, mix_type):
                base_ws, base_hm, base_avf = _fairness_metrics(
                    cache, mix, "ICOUNT", scale)
                for policy in ADVANCED_POLICIES:
                    ws, hm, avf = _fairness_metrics(cache, mix, policy, scale)
                    for s in Structure:
                        if base_avf[s] > 0 and avf[s] > 0:
                            base_ratio_ws = base_ws / base_avf[s]
                            base_ratio_hm = base_hm / base_avf[s]
                            if base_ratio_ws > 0:
                                per_policy_ws[policy][s].append(
                                    (ws / avf[s]) / base_ratio_ws)
                            if base_ratio_hm > 0:
                                per_policy_hm[policy][s].append(
                                    (hm / avf[s]) / base_ratio_hm)
        for policy in ADVANCED_POLICIES:
            data.weighted[(mix_type, policy)] = {
                s: _mean(per_policy_ws[policy][s]) for s in Structure
            }
            data.harmonic[(mix_type, policy)] = {
                s: _mean(per_policy_hm[policy][s]) for s in Structure
            }
    return data


def _mean(xs: List[float]) -> float:
    return sum(xs) / len(xs) if xs else float("nan")


def format_figure8(data: Figure8Data) -> str:
    blocks = []
    for title, table in (("(a) weighted speedup / AVF", data.weighted),
                         ("(b) harmonic IPC / AVF", data.harmonic)):
        rows: List[List[object]] = []
        for mix_type in MIX_TYPES:
            for s in FIGURE1_ORDER:
                rows.append([f"{mix_type}/{s.value}"]
                            + [table[(mix_type, p)][s] for p in ADVANCED_POLICIES])
        blocks.append(render_table(
            f"Figure 8{title}, normalised to ICOUNT",
            ["mix/structure", *ADVANCED_POLICIES],
            rows,
        ))
    return "\n\n".join(blocks)
