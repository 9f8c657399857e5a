"""Cross-validate ACE-computed AVF against live fault injection.

Section 2 of the paper presents AVF computation and statistical fault
injection as two routes to the same number: the fraction of injected bit
flips that corrupt architecturally required state *is* the AVF, up to
sampling error.  This experiment runs both on one workload — the ACE
ledgers during the golden run, then a live bit-flip campaign
(:mod:`repro.faultinject.live`) over every injectable structure — and
reports, per structure, the injection-estimated AVF with its 95% Wilson
confidence interval next to the ACE value, plus an agree/disagree verdict.

The ACE AVF landing inside every interval is the repository's end-to-end
evidence that the occupancy ledgers, the taint-propagation model and the
differential classifier all measure the same quantity.
"""

from __future__ import annotations

from typing import Optional

from repro.config import SimConfig
from repro.experiments.runner import ExperimentScale, ResultCache
from repro.faultinject.live import LiveCampaignResult, run_live_campaign
from repro.workload.mixes import get_mix

#: The Table 2 workload the validation campaign runs on.
VALIDATION_WORKLOAD = "2-MIX-A"

#: Strikes sampled per structure.  48 gives a Wilson halfwidth of roughly
#: +-0.13 at mid-range rates — tight enough to catch a broken taint path
#: (which collapses the estimate to ~0) while keeping the campaign fast.
VALIDATION_INJECTIONS = 48

#: Per-thread instruction budget cap: live injection re-simulates the
#: workload once per strike, so the validation run stays at a small scale
#: even when ``REPRO_SCALE`` asks the figure experiments for long runs.
VALIDATION_BUDGET_CAP = 500


def run_injection_validation(scale: Optional[ExperimentScale] = None,
                             cache: Optional[ResultCache] = None,
                             ) -> LiveCampaignResult:
    """Run the live campaign over all injectable structures.

    Every strike needs its own (faulty) simulation, and the golden run is
    memoized inside :mod:`repro.faultinject.live`; ``cache`` lends only
    its directory, where the strike batches persist, so a rerun on a warm
    cache redoes none.
    """
    scale = scale or ExperimentScale.from_env()
    mix = get_mix(VALIDATION_WORKLOAD)
    budget = min(scale.instructions_per_thread, VALIDATION_BUDGET_CAP)
    sim = SimConfig(max_instructions=budget * mix.num_threads,
                    seed=scale.seed,
                    check_invariants=scale.check_invariants)
    return run_live_campaign(mix, injections=VALIDATION_INJECTIONS,
                             sim=sim, seed=scale.seed,
                             cache_dir=(cache.cache_dir if cache is not None
                                        else None))


def format_injection_validation(result: LiveCampaignResult) -> str:
    """Render the validation table plus the overall verdict.

    ``conservative`` rows (ACE AVF above the live interval) are acceptable:
    ACE analysis upper-bounds true vulnerability, and the known ex-ACE
    windows (docs/fault-injection.md) push a low-AVF structure's ledger
    value past a tight interval.  An ``ANOMALY`` row — ACE AVF *below* the
    interval — means the ledger under-counts and fails the validation.
    """
    verdicts = {s: result.verdict(s) for s in result.structures}
    agreeing = sum(1 for v in verdicts.values() if v == "agree")
    anomalies = sorted(s.value for s, v in verdicts.items()
                       if v == "ANOMALY")
    total = len(verdicts)
    verdict = (f"VALIDATION FAILED — ACE AVF below the live interval on "
               f"{', '.join(anomalies)}" if anomalies
               else "validation passed (remaining rows are conservative)"
               if agreeing < total
               else "validation passed")
    lines = [
        "Injection-based validation of ACE AVF (paper Section 2)",
        "",
        result.summary(),
        "",
        f"{agreeing}/{total} structures inside the 95% interval: {verdict}.",
    ]
    return "\n".join(lines)
