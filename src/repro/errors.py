"""Exception hierarchy for the repro simulator.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A machine or simulation configuration value is invalid."""


class WorkloadError(ReproError):
    """A workload mix or benchmark profile is malformed or unknown."""


class StructureError(ReproError):
    """A microarchitecture structure was used inconsistently.

    Raised for protocol violations such as freeing a physical register twice,
    committing an incomplete ROB head, or deallocating an empty queue; these
    indicate a simulator bug, not a modelled hardware condition.
    """


class SimulationError(ReproError):
    """The simulation reached an inconsistent state and cannot continue."""


class HangDetected(SimulationError):
    """A live-injection watchdog tripped: the faulty run stopped making
    forward progress (or blew past its golden-run cycle budget).

    Raised by :class:`repro.faultinject.classify.Watchdog` and caught by
    the strike runner, which classifies the strike as HANG; it never
    propagates out of a campaign.
    """

    def __init__(self, cycle: int, committed: int, reason: str) -> None:
        self.cycle = cycle
        self.committed = committed
        self.reason = reason
        super().__init__(
            f"hang at cycle {cycle} ({committed} committed): {reason}")


class MissingResultError(ReproError):
    """A renderer asked for a simulation whose job permanently failed.

    Raised by :class:`repro.experiments.runner.ResultCache` instead of
    silently re-simulating inline, so artefact renderers can degrade to an
    explicit ``MISSING(<job>)`` marker rather than masking a supervised
    run's failure with a fresh (possibly equally doomed) attempt.
    """

    def __init__(self, label: str, digest: str) -> None:
        self.label = label
        self.digest = digest
        super().__init__(f"no result for {label} "
                         f"(job {digest[:12]} failed permanently)")


class ExecutionFailed(ReproError):
    """Supervised execution aborted: the permanent-failure budget ran out.

    Raised by :class:`repro.resilience.Supervisor` once more jobs have
    failed permanently than ``--max-failures`` tolerates.  Every payload
    that *did* complete has already been committed to the result cache
    before this is raised, so a re-run only repeats the genuinely
    unfinished work.  ``report`` carries the structured
    :class:`repro.resilience.FailureReport`.
    """

    def __init__(self, message: str, report: object = None) -> None:
        self.report = report
        super().__init__(message)


class CampaignCancelled(ReproError):
    """Supervised execution stopped because cancellation was requested.

    Raised by :class:`repro.resilience.Supervisor` out of :meth:`run`
    after a graceful drain: every future that finished during the grace
    period has been committed, every other in-flight job
    has been reclaimed by tearing the pool down, and nothing new was
    submitted.  ``committed`` counts payloads committed by the drain
    itself; ``reclaimed`` counts in-flight jobs abandoned un-run.  The
    campaign service maps this onto the ``cancelled`` terminal state.
    """

    def __init__(self, message: str, committed: int = 0,
                 reclaimed: int = 0) -> None:
        self.committed = committed
        self.reclaimed = reclaimed
        super().__init__(message)


class ArtifactIntegrityError(ReproError):
    """A stored artifact's bytes no longer re-hash to their recorded
    checksum (bit rot, truncation, or tampering on disk).

    Raised by :class:`repro.service.store.ArtifactStore` when asked to
    *serve* such an artifact — a result endpoint must fail loudly (HTTP
    500 naming the digest) rather than hand a client corrupt science.
    """

    def __init__(self, digest: str, detail: str) -> None:
        self.digest = digest
        super().__init__(
            f"artifact {digest} failed integrity verification: {detail}")


class InvariantViolation(ReproError):
    """A runtime conservation-law audit failed (see :mod:`repro.audit`).

    Carries enough context to diagnose the drift without re-running:
    the invariant that failed, the offending structure, the cycle the
    check ran at, and the numeric delta between observed and expected.
    """

    def __init__(self, invariant: str, structure: str, cycle: int,
                 delta: float, detail: str = "") -> None:
        self.invariant = invariant
        self.structure = structure
        self.cycle = cycle
        self.delta = delta
        message = (f"invariant '{invariant}' violated by {structure} "
                   f"at cycle {cycle} (delta={delta:+g})")
        if detail:
            message += f": {detail}"
        super().__init__(message)
