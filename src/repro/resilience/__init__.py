"""Fault-tolerant campaign execution: the framework's own recovery layer.

The paper's artefacts are sweeps of hundreds of simulations plus
multi-thousand-strike injection campaigns; a reproduction framework that
*measures* soft-error resilience should itself survive faults in its own
execution substrate.  This package supplies that discipline:

- :func:`run_tasks` — the one way to run a batch of tasks: deduplicate,
  skip what is already done, then run in-process (no supervisor, one
  worker) or on a supervisor;
- :class:`Supervisor` / :class:`RetryPolicy` — a supervised worker pool
  with per-job wall-clock timeouts, bounded retries under exponential
  backoff with deterministic jitter, broken-pool rebuilds, and a
  permanent-failure budget (:mod:`repro.resilience.supervisor`);
- :class:`CheckpointJournal` — an append-only JSONL record of completed
  job digests backing ``--resume`` (:mod:`repro.resilience.journal`);
- :class:`FailureReport` / :class:`JobFailure` — the structured account
  of what could not be recovered, rendered as ``failures.json`` and as
  ``MISSING(<job>)`` markers in degraded artefacts;
- :class:`ChaosSpec` — the chaos harness (``REPRO_CHAOS``) that makes
  workers crash, hang, or corrupt payloads on schedule, so every recovery
  path above is proven by tests rather than trusted
  (:mod:`repro.resilience.chaos`).
"""

from repro.resilience.chaos import (
    CHAOS_ENV_VAR,
    ChaosInjectedError,
    ChaosRule,
    ChaosSpec,
)
from repro.resilience.journal import CheckpointJournal
from repro.resilience.supervisor import (
    FailureReport,
    JobFailure,
    RetryPolicy,
    SupervisedRun,
    Supervisor,
    run_tasks,
)

__all__ = [
    "CHAOS_ENV_VAR",
    "ChaosInjectedError",
    "ChaosRule",
    "ChaosSpec",
    "CheckpointJournal",
    "FailureReport",
    "JobFailure",
    "RetryPolicy",
    "SupervisedRun",
    "Supervisor",
    "run_tasks",
]
