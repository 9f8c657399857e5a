"""Pareto frontier of per-structure protection under multi-bit upsets.

Section 5 of the paper argues protection should follow vulnerability —
the shared SMT hotspots first.  This artefact turns that prescription
into the full trade-off curve: run the reference workload once, take its
per-structure ACE AVFs, and enumerate the per-structure scheme lattice
(:func:`repro.protection.frontier.protection_frontier`) under a clustered
upset mix, reporting every Pareto-optimal assignment of residual silent
corruption (SDC FIT) against protection cost (added storage bits plus an
encode/check energy proxy).

The analytic curve is then *cross-validated in vivo*: one frontier point
with a non-trivial issue-queue scheme is replayed as a live multi-bit
injection campaign (:mod:`repro.faultinject.live`), and the analytic
residual SDC rate — escape fraction of the IQ's scheme under the
clipped cluster-length distribution, times the IQ's ACE AVF — must land
inside the campaign's 95% Wilson interval.  That ties the closed-form
outcome fractions in :mod:`repro.protection.schemes` to what the
differential classifier actually observes when bursts hit the machine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.avf.structures import Structure
from repro.config import MachineConfig
from repro.errors import ConfigError
from repro.experiments.runner import ExperimentScale, ResultCache, SimJob
from repro.faultinject.live import LiveCampaignResult, run_live_campaign
from repro.protection.config import ProtectionConfig
from repro.protection.frontier import (FrontierPoint, ProtectionFrontier,
                                       protection_frontier)
from repro.protection.planner import structure_length_probs
from repro.protection.schemes import ProtectionScheme, outcome_fractions
from repro.structures.strike import MbuConfig
from repro.workload.mixes import get_mix

#: The Table 2 workload whose AVF profile seeds the frontier.
FRONTIER_WORKLOAD = "2-MIX-A"

#: The clustered-upset mix the frontier integrates over (and the live
#: validation campaign injects): adjacent bursts of 1-3 bits.
FRONTIER_MBU = MbuConfig(max_len=3)

#: Structures the lattice enumerates — the injectable pipeline set, so
#: the analytic frontier and the live campaign share a bit space.
FRONTIER_STRUCTURES: Tuple[Structure, ...] = (
    Structure.IQ, Structure.ROB, Structure.REG,
    Structure.LSQ_TAG, Structure.LSQ_DATA, Structure.FU,
)

#: Strikes for the live validation campaign (IQ only — one structure,
#: so the budget buys a usable Wilson interval).
FRONTIER_INJECTIONS = 96

#: Per-thread instruction cap, for the same reason as
#: ``validate_injection.VALIDATION_BUDGET_CAP``: each strike re-simulates.
FRONTIER_BUDGET_CAP = 500

#: Rendered points: the raw frontier has ~64 members; the table thins it
#: evenly along the cost axis, keeping both endpoints.
FRONTIER_MAX_POINTS = 24


@dataclass
class FrontierValidation:
    """The live cross-check of one frontier point."""

    point: FrontierPoint
    campaign: LiveCampaignResult
    analytic_sdc_rate: float
    live_sdc_rate: float
    interval: Tuple[float, float]

    @property
    def agrees(self) -> bool:
        lo, hi = self.interval
        return lo <= self.analytic_sdc_rate <= hi


@dataclass
class FrontierResult:
    """Everything the artefact renders."""

    frontier: ProtectionFrontier
    validation: FrontierValidation
    workload: str
    cycles: int


def _validation_point(frontier: ProtectionFrontier) -> FrontierPoint:
    """The frontier point the live campaign replays.

    Prefer a point whose IQ scheme actually leaks under the cluster mix
    (SECDED: triples escape) — it validates the interesting part of the
    outcome matrix.  Fall back to any point protecting the IQ.
    """
    for p in frontier.points:
        if p.config.scheme_for(Structure.IQ) is ProtectionScheme.SECDED:
            return p
    for p in frontier.points:
        if p.config.scheme_for(Structure.IQ) is not ProtectionScheme.NONE:
            return p
    raise ConfigError(
        "no frontier point protects the issue queue; cannot cross-validate")


def frontier_reference_job(scale: ExperimentScale,
                           config: MachineConfig) -> SimJob:
    """The reference run whose AVF profile seeds the frontier, capped at
    :data:`FRONTIER_BUDGET_CAP` instructions per thread; its ``sim`` is
    also the live validation campaign's."""
    capped = replace(scale, instructions_per_thread=min(
        scale.instructions_per_thread, FRONTIER_BUDGET_CAP))
    return SimJob.smt(get_mix(FRONTIER_WORKLOAD), "ICOUNT", capped, config)


def run_protection_frontier(scale: Optional[ExperimentScale] = None,
                            cache: Optional[ResultCache] = None,
                            ) -> FrontierResult:
    """Compute the frontier from the cached reference run, then validate.

    The live campaign's strike batches persist in ``cache.cache_dir``
    when the cache has one, so a rerun on a warm cache redoes none.
    """
    scale = scale or ExperimentScale.from_env()
    cache = cache or ResultCache()
    job = frontier_reference_job(scale, cache.config)
    reference = cache.result(job)
    frontier = protection_frontier(reference.avf,
                                   structures=FRONTIER_STRUCTURES,
                                   mbu=FRONTIER_MBU,
                                   max_points=FRONTIER_MAX_POINTS)

    point = _validation_point(frontier)
    iq_scheme = point.config.scheme_for(Structure.IQ)
    # Validate only the IQ override: the campaign strikes the IQ alone, so
    # the other structures' schemes cannot influence any outcome.
    campaign = run_live_campaign(
        job.workload(), injections=FRONTIER_INJECTIONS,
        structures=(Structure.IQ,), sim=job.sim, seed=scale.seed,
        protection=ProtectionConfig(overrides=((Structure.IQ, iq_scheme),)),
        mbu=FRONTIER_MBU, cache_dir=cache.cache_dir)

    iq = campaign.structures[Structure.IQ]
    escape, _due, _corr = outcome_fractions(
        iq_scheme, structure_length_probs(Structure.IQ, FRONTIER_MBU))
    validation = FrontierValidation(
        point=point, campaign=campaign,
        analytic_sdc_rate=escape * iq.reported_avf,
        live_sdc_rate=iq.sdc_rate,
        interval=campaign.interval(Structure.IQ))
    return FrontierResult(frontier=frontier, validation=validation,
                          workload=FRONTIER_WORKLOAD,
                          cycles=campaign.cycles)


def format_protection_frontier(result: FrontierResult) -> str:
    """Render the frontier table plus the live cross-validation verdict."""
    f = result.frontier
    v = result.validation
    lo, hi = v.interval
    iq_scheme = v.point.config.scheme_for(Structure.IQ)
    verdict = ("validation passed" if v.agrees else
               "VALIDATION FAILED — analytic SDC rate outside the live "
               "interval")
    lines = [
        "Per-structure protection frontier under multi-bit upsets "
        "(paper Section 5)",
        "",
        f"Workload {result.workload}, {result.cycles} golden cycles; "
        f"clusters up to {f.mbu.max_len} adjacent bits "
        f"(weights {'/'.join(f'{w:.2f}' for w in f.mbu.weights)}); "
        f"{f.combinations} assignments enumerated over "
        f"{len(f.structures)} structures -> {len(f.points)} Pareto points.",
        "",
        f.summary(),
        "",
        f"Live cross-check of '{v.point.label()}' (IQ={iq_scheme.value}, "
        f"{v.campaign.injections_per_structure} strikes on IQ):",
        f"  analytic residual SDC rate {v.analytic_sdc_rate:.4f}, "
        f"live {v.live_sdc_rate:.4f}, "
        f"95% Wilson interval [{lo:.4f}, {hi:.4f}]: {verdict}.",
    ]
    return "\n".join(lines)
