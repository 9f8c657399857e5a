"""The one translation from a campaign spec to a run.

:func:`run_spec` executes a validated
:class:`~repro.service.specs.CampaignSpec` and returns the payload the
service stores under the spec digest.  The campaign service
(:class:`~repro.service.scheduler.CampaignScheduler`) and ``repro-sim
inject`` both call it, so a campaign computes the same thing however it
was launched: same workload label, same strike seed, same structures.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from repro.config import SimConfig
from repro.service.specs import CampaignSpec

#: What one landed batch adds to a campaign's progress:
#: structure name -> (strikes, SDC outcomes).
BatchCounts = Dict[str, Tuple[int, int]]


def run_spec(spec: CampaignSpec, *, supervisor=None, jobs: int = 1,
             cache_dir: Optional[Union[str, Path]] = None,
             forced: Sequence[str] = (),
             on_plan: Optional[Callable[[int], None]] = None,
             on_batch: Optional[Callable[[BatchCounts, bool], None]] = None,
             ) -> Tuple[Dict[str, object], bool]:
    """Run one campaign spec; returns ``(payload, degraded)``.

    ``payload`` is the campaign's artifact body; for injection campaigns
    ``payload["summary"]`` is the human-readable result.  ``degraded``
    is true when jobs failed permanently within the supervisor's budget
    (a degraded payload answers the spec only partly).  ``supervisor``,
    ``jobs`` and ``cache_dir`` say how to execute; ``forced`` adds live
    probe strikes (:data:`repro.faultinject.FORCED_KINDS`) reported in
    the summary only.  ``on_plan(batches)`` is called once the batch
    count is known, and ``on_batch(counts, cached)`` as each batch lands
    (``cached`` when the batch cache answered it).
    """
    on_plan = on_plan or (lambda total: None)
    on_batch = on_batch or (lambda counts, cached: None)

    def failed() -> bool:
        return supervisor is not None and bool(supervisor.report)

    if spec.kind == "reproduce":
        from repro.experiments.reproduce import render_artefacts
        from repro.experiments.runner import ExperimentScale, ResultCache

        on_plan(len(spec.artefacts))
        scale = ExperimentScale(instructions_per_thread=spec.instructions,
                                seed=spec.seed)
        texts, degraded = render_artefacts(
            spec.artefacts, scale, ResultCache(cache_dir=cache_dir),
            jobs=jobs, supervisor=supervisor,
            progress=lambda name, seconds: on_batch({}, False))
        payload = {"kind": "reproduce", "spec": spec.to_payload(),
                   "artefacts": texts}
        return payload, bool(degraded) or failed()

    from repro.faultinject import (InjectionOutcome, run_campaign,
                                   run_live_campaign)
    from repro.faultinject.campaign import INJECTABLE, _campaign_payload

    workload = list(spec.programs)
    sim = SimConfig(max_instructions=spec.instructions * len(workload),
                    seed=spec.seed)
    by_name = {s.value.lower(): s for s in INJECTABLE}
    structures = (tuple(by_name[name] for name in spec.structures)
                  if spec.structures else INJECTABLE)
    sdc = InjectionOutcome.SDC

    if spec.kind == "interval":
        on_plan(1)
        result = run_campaign(workload, injections=spec.strikes,
                              structures=structures, policy=spec.policy,
                              sim=sim, seed=spec.seed, cache_dir=cache_dir,
                              supervisor=supervisor)
        if result is None:
            # Failed permanently within the budget: no result to report.
            labels = ", ".join(supervisor.report.labels())
            return {"kind": "interval", "spec": spec.to_payload(),
                    "missing": True,
                    "summary": f"inject: DEGRADED — MISSING({labels}) "
                               f"(campaign failed permanently; see "
                               f"failures report)"}, True
        on_batch({s.value: (c.injections, c.outcomes.get(sdc, 0))
                  for s, c in result.structures.items()}, False)
        payload = {"kind": "interval", "spec": spec.to_payload(),
                   "result": _campaign_payload(result),
                   "summary": result.summary()}
        return payload, failed()

    from repro.faultinject import LiveConfig, plan_live_batches
    from repro.structures.strike import MbuConfig

    campaign = dict(injections=spec.strikes, structures=structures,
                    policy=spec.policy, sim=sim, seed=spec.seed,
                    protection=spec.protection,
                    live=(LiveConfig() if spec.strike_batch is None
                          else LiveConfig(strike_batch=spec.strike_batch)),
                    mbu=MbuConfig(max_len=spec.mbu_len))
    on_plan(len(plan_live_batches(workload, **campaign)))

    def landed(job, payload, cached: bool) -> None:
        records = payload["records"]
        hits = sum(1 for r in records if r["outcome"] == sdc.name)
        on_batch({job.structure.value: (len(records), hits)}, cached)

    result = run_live_campaign(workload, forced=forced, jobs=jobs,
                               supervisor=supervisor, cache_dir=cache_dir,
                               on_batch=landed, **campaign)
    structures_payload = []
    for structure, counts in result.structures.items():
        lo, hi = result.interval(structure)
        structures_payload.append({
            "structure": structure.value,
            "injections": counts.injections,
            "reported_avf": counts.reported_avf,
            "sdc_rate": counts.sdc_rate,
            "wilson_low": lo,
            "wilson_high": hi,
            "outcomes": {o.name: n for o, n in counts.outcomes.items()},
        })
    payload = {
        "kind": "live",
        "spec": spec.to_payload(),
        "workload": result.workload,
        "cycles": result.cycles,
        "injections_per_structure": result.injections_per_structure,
        "protection": result.protection.label(),
        "mbu_len": spec.mbu_len,
        "structures": structures_payload,
        "records": [r.to_payload() for r in result.records],
        "summary": result.summary(),
    }
    return payload, failed()
