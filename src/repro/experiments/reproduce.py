"""One-shot reproduction driver: regenerate every paper artefact to disk.

``run_all`` renders Tables 1–2 and Figures 1–8 (plus the extension
ablations) into a directory, one text file per artefact plus a combined
REPORT.md — the programmatic equivalent of running the whole benchmark
suite, without pytest.  Exposed on the CLI as ``repro-sim reproduce``.

Execution is split into two phases: the union of every selected artefact's
simulation jobs is collected and executed first — deduplicated, optionally
fanned out over ``jobs`` worker processes, and optionally persisted under a
``cache_dir`` (see :func:`prewarm_artefacts`) — then the artefacts
are rendered from the warm cache.  Rendering is deterministic given the
cached results, so ``jobs=N`` produces byte-identical artefact text to
``jobs=1``, and a second invocation against a warm cache directory skips
simulation entirely.

Both phases are :func:`render_artefacts`, which ``repro-sim figure`` and
the campaign service's reproduce campaigns call too.  With a
:class:`~repro.resilience.Supervisor`, execution additionally survives
worker crashes, hangs and corrupt payloads (retry/backoff, per-job
timeouts, pool rebuilds); rerunning on the same cache directory redoes
nothing that finished.  Jobs that fail permanently within the
supervisor's budget degrade gracefully: the affected artefacts render as
explicit ``MISSING(<job>)`` markers instead of raising, REPORT.md names
them, and a machine-readable ``failures.json`` lands next to the report.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
                    Union)

from repro.errors import ConfigError, MissingResultError

from repro.experiments import (
    format_figure1, format_figure2, format_figure3, format_figure4,
    format_figure5, format_figure6, format_figure7, format_figure8,
    run_figure1, run_figure2, run_figure3, run_figure4,
    run_figure5, run_figure6, run_figure7, run_figure8,
)
from repro.experiments.parallel import followup_jobs_for, smt_jobs_for
from repro.experiments.runner import ExperimentScale, ResultCache, run_jobs
from repro.experiments.sensitivity import (
    RESOURCE_SWEEP, format_sweep, run_resource_sweep)
from repro.experiments.protection_frontier import (
    format_protection_frontier, run_protection_frontier)
from repro.experiments.smt_tradeoff import format_smt_tradeoff, run_smt_tradeoff
from repro.experiments.validate_injection import (
    format_injection_validation, run_injection_validation)


def _resource_scaling(scale: ExperimentScale, cache: ResultCache) -> str:
    resource, sizes, workload = RESOURCE_SWEEP
    return format_sweep(run_resource_sweep(resource, sizes, workload=workload,
                                           scale=scale, cache=cache))


#: Artefact name -> callable(scale, cache) -> rendered text.
ARTEFACTS: Dict[str, Callable[[ExperimentScale, ResultCache], str]] = {
    "fig1_avf_profile": lambda s, c: format_figure1(run_figure1(s, c)),
    "fig2_efficiency": lambda s, c: format_figure2(run_figure2(s, c)),
    "fig3_smt_vs_st": lambda s, c: format_figure3(run_figure3(s, c)),
    "fig4_smt_vs_st_efficiency":
        lambda s, c: format_figure4(run_figure4(s, c)),
    "fig5_context_scaling": lambda s, c: format_figure5(run_figure5(s, c)),
    "fig6_fetch_policies": lambda s, c: format_figure6(run_figure6(s, c)),
    "fig7_policy_efficiency": lambda s, c: format_figure7(run_figure7(s, c)),
    "fig8_fairness": lambda s, c: format_figure8(run_figure8(s, c)),
    "smt_vs_superscalar":
        lambda s, c: format_smt_tradeoff(run_smt_tradeoff(s, c)),
    "resource_scaling": _resource_scaling,
    "injection_validation":
        lambda s, c: format_injection_validation(
            run_injection_validation(s, c)),
    "protection_frontier":
        lambda s, c: format_protection_frontier(
            run_protection_frontier(s, c)),
}


def check_artefacts(names: Iterable[str]) -> None:
    """Raise :class:`~repro.errors.ConfigError` naming every unknown
    artefact and the valid names: a typo must not pass as an empty
    report or a fully warm cache."""
    unknown = sorted(set(names) - set(ARTEFACTS))
    if unknown:
        raise ConfigError(f"unknown artefacts {unknown}; "
                          f"known: {sorted(ARTEFACTS)}")


def prewarm_artefacts(names: Sequence[str], scale: ExperimentScale,
                      cache: ResultCache, jobs: int = 1,
                      supervisor=None) -> int:
    """Run every simulation the named artefacts need; returns the number
    executed (0 when the cache was already fully warm).

    Both planning stages of :mod:`repro.experiments.parallel` run through
    :func:`~repro.experiments.runner.run_jobs`; with a ``supervisor``
    they run supervised and share its retry policy and failure budget.
    """
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    check_artefacts(names)
    stage1 = [job for name in names
              for job in smt_jobs_for(name, scale, cache.config)]
    executed = run_jobs(stage1, cache, max_workers=jobs,
                        supervisor=supervisor)
    stage2 = [job for name in names
              for job in followup_jobs_for(name, scale, cache)]
    executed += run_jobs(stage2, cache, max_workers=jobs,
                         supervisor=supervisor)
    return executed


def _degraded_text(name: str, exc: MissingResultError) -> str:
    """The artefact body rendered when a needed simulation is missing."""
    return (f"{name}: DEGRADED — simulation set incomplete\n"
            f"MISSING({exc.label})\n"
            f"(job {exc.digest[:12]} failed permanently; "
            f"see the failure report)")


def render_artefacts(names: Sequence[str], scale: ExperimentScale,
                     cache: ResultCache, jobs: int = 1, supervisor=None,
                     progress: Optional[Callable[[str, float], None]] = None,
                     ) -> Tuple[Dict[str, str], List[str]]:
    """Run every simulation ``names`` need, then render each artefact.

    The one render path of ``run_all``, ``repro-sim figure`` and the
    service's reproduce campaigns.  Returns the texts keyed by name (in
    ``names`` order) and the names rendered as a ``DEGRADED`` body with a
    ``MISSING(<job>)`` marker because a simulation they need failed
    permanently.  ``progress(name, seconds)`` follows each render.
    """
    prewarm_artefacts(list(names), scale, cache, jobs=jobs,
                      supervisor=supervisor)
    texts: Dict[str, str] = {}
    degraded: List[str] = []
    for name in names:
        started = time.perf_counter()
        try:
            # Looked up at call time, so a wrapped entry is the one run.
            texts[name] = ARTEFACTS[name](scale, cache)
        except MissingResultError as exc:
            texts[name] = _degraded_text(name, exc)
            degraded.append(name)
        if progress is not None:
            progress(name, time.perf_counter() - started)
    return texts, degraded


def run_all(out_dir: Path, scale: Optional[ExperimentScale] = None,
            only: Optional[List[str]] = None,
            progress: Optional[Callable[[str, float], None]] = None,
            jobs: int = 1,
            cache: Optional[ResultCache] = None,
            cache_dir: Optional[Union[str, Path]] = None,
            supervisor=None,
            failures_out: Optional[Union[str, Path]] = None) -> Path:
    """Render every artefact into ``out_dir``; returns the REPORT.md path.

    ``jobs`` is the number of simulation worker processes; ``cache_dir``
    (or a pre-built ``cache``) enables the persistent on-disk result cache.
    ``supervisor`` (a :class:`repro.resilience.Supervisor`) makes execution
    fault-tolerant; when it reports permanent failures, the affected
    artefacts are written with ``MISSING(<job>)`` markers and the
    structured report lands at ``failures_out`` (default
    ``out_dir/failures.json``).  Unknown names in ``only`` raise
    :class:`~repro.errors.ConfigError` before anything is written.
    """
    if only is not None:
        check_artefacts(only)
    scale = scale or ExperimentScale.from_env()
    if cache is None:
        cache = ResultCache(cache_dir=cache_dir)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    render_s: Dict[str, float] = {}

    def rendered(name: str, seconds: float) -> None:
        render_s[name] = seconds
        if progress is not None:
            progress(name, seconds)

    started = time.perf_counter()
    texts, degraded = render_artefacts(
        [name for name in ARTEFACTS if only is None or name in only],
        scale, cache, jobs=jobs, supervisor=supervisor, progress=rendered)
    # Every simulation runs up front; the per-artefact times cover
    # rendering from the warm cache only.
    simulate_s = time.perf_counter() - started - sum(render_s.values())

    report = [
        "# Reproduction report",
        "",
        f"Scale: {scale.instructions_per_thread} instructions/context, "
        f"seed {scale.seed}.",
        "",
        f"Simulation (all artefacts, {jobs} job(s)): {simulate_s:.1f}s wall.",
        "",
    ]
    for name, text in texts.items():
        (out_dir / f"{name}.txt").write_text(text + "\n")
        report += [f"## {name}", "", "```", text, "```",
                   f"_(render {render_s[name]:.1f}s)_", ""]

    failures = supervisor.report if supervisor is not None else None
    if failures or degraded:
        report += ["## Failures", ""]
        if failures:
            for f in failures.failures:
                report.append(f"- `{f.label}`: {'/'.join(f.kinds)} after "
                              f"{f.attempts} attempt(s) — {f.error}")
        report += ["", f"Degraded artefacts: "
                       f"{', '.join(degraded) if degraded else 'none'}", ""]
    if failures is not None and (failures or failures_out is not None):
        failures.write(Path(failures_out) if failures_out is not None
                       else out_dir / "failures.json")
    report_path = out_dir / "REPORT.md"
    report_path.write_text("\n".join(report))
    return report_path
