"""Artefact job planning: the simulations each ``repro-sim reproduce``
artefact needs, as :class:`~repro.experiments.runner.SimJob` lists.

:func:`repro.experiments.reproduce.prewarm_artefacts` executes the
planned jobs through :func:`~repro.experiments.runner.run_jobs` (parallel,
supervised, deduplicated against the cache) before any artefact renders.
Planning happens in two stages because the single-thread reference runs
of Figures 3/4/8 and the SMT-vs-superscalar verdict depend on the
committed instruction counts of the SMT runs: stage one lists every SMT
job, stage two derives the single-thread jobs from the then-warm cache.

The planners build their jobs with the constructors the renderers read
through (``SimJob.smt``, ``SimJob.single_thread``,
:func:`~repro.experiments.sensitivity.sweep_jobs`,
:func:`~repro.experiments.protection_frontier.frontier_reference_job`)
and take the workload lists and context counts from the figure modules,
so a planned job and the renderer's read share one digest.  A job a
planner misses is still never wrong, only late: the renderer's read
executes it through ``run_jobs``.

Determinism: a simulation depends only on its job, and results cross
process boundaries as exact payload dicts (float bit patterns preserved by
pickle), so ``--jobs N`` renders byte-identical artefact text to ``--jobs
1``; tests assert this.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.config import MachineConfig
from repro.errors import MissingResultError
from repro.experiments.fig3_smt_vs_st import FIG3_WORKLOADS
from repro.experiments.fig5_context_scaling import CONTEXT_COUNTS
from repro.experiments.fig6_fetch_policies import FIG6_CONTEXTS
from repro.experiments.protection_frontier import frontier_reference_job
from repro.experiments.runner import (
    MIX_TYPES,
    ExperimentScale,
    ResultCache,
    SimJob,
)
from repro.experiments.sensitivity import RESOURCE_SWEEP, sweep_jobs
from repro.fetch.registry import POLICY_NAMES
from repro.workload.mixes import WorkloadMix, get_mix, mixes_for


#: Artefacts whose renderers compare SMT runs with equal-work
#: single-thread runs: they have stage-two jobs.
_EQUAL_WORK = ("fig3_smt_vs_st", "fig4_smt_vs_st_efficiency",
                        "fig8_fairness", "smt_vs_superscalar")


def _smt_runs(name: str) -> Tuple[List[WorkloadMix], Sequence[str]]:
    """The mixes and policies of an artefact's SMT runs, crossed."""
    if name in ("fig1_avf_profile", "fig2_efficiency", "smt_vs_superscalar"):
        return [m for t in MIX_TYPES for m in mixes_for(4, t)], ("ICOUNT",)
    if name in ("fig3_smt_vs_st", "fig4_smt_vs_st_efficiency"):
        return [get_mix(n) for n in FIG3_WORKLOADS], ("ICOUNT",)
    if name == "fig5_context_scaling":
        return ([m for t in MIX_TYPES for n in CONTEXT_COUNTS
                 for m in mixes_for(n, t)], ("ICOUNT",))
    if name in ("fig6_fetch_policies", "fig7_policy_efficiency",
                "fig8_fairness"):
        return ([m for n in FIG6_CONTEXTS for t in MIX_TYPES
                 for m in mixes_for(n, t)], POLICY_NAMES)
    return [], ()


def smt_jobs_for(name: str, scale: ExperimentScale,
                 config: MachineConfig) -> List[SimJob]:
    """Stage-one (SMT) jobs of one artefact; empty for unknown names."""
    if name == "protection_frontier":
        return [frontier_reference_job(scale, config)]
    if name == "resource_scaling":
        resource, sizes, workload = RESOURCE_SWEEP
        return sweep_jobs(resource, sizes, get_mix(workload), scale,
                          config=config)
    mixes, policies = _smt_runs(name)
    return [SimJob.smt(mix, policy, scale, config)
            for mix in mixes for policy in policies]


def followup_jobs_for(name: str, scale: ExperimentScale,
                      cache: ResultCache) -> List[SimJob]:
    """Stage-two (single-thread) jobs, derived from the warm SMT results.

    Reads the SMT runs through the cache — stage one has already executed
    them, so this never simulates; if a planner missed one, ``cache.smt``
    runs it through ``run_jobs``.
    """
    if name not in _EQUAL_WORK:
        return []
    jobs: List[SimJob] = []
    for mix in _smt_runs(name)[0]:
        try:
            smt = cache.smt(mix, "ICOUNT", scale)
        except MissingResultError:
            # The SMT run failed permanently under supervision; its
            # single-thread reference runs cannot even be planned.  The
            # renderer will surface the missing SMT job itself.
            continue
        jobs += [SimJob.single_thread(t.program, t.committed, scale,
                                      cache.config) for t in smt.threads]
    return jobs
