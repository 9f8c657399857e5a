"""The service's write-ahead campaign journal: crash-safe lifecycle state.

Every campaign lifecycle transition the scheduler makes is recorded as
one JSONL line *before* the transition takes externally visible effect
(``submitted`` → ``admitted`` → ``running`` → ``done`` / ``degraded`` /
``failed`` / ``cancelled``), so a service process killed at any instant
leaves behind an exact record of which campaigns it owed work to.  On
restart, :meth:`ServiceJournal.replay` folds the log into one record per
campaign; campaigns whose last journaled state is non-terminal are
re-admitted by the scheduler and resumed through the per-batch content
cache — finished batches are never recomputed, so a recovered campaign's
artifact is byte-identical to an uninterrupted run's.

The file format follows the one journal discipline of :mod:`repro.store`
(shared with :mod:`repro.resilience.journal`): schema-versioned entries,
one fsynced append per event so every line is on disk when the recording
call returns, replay tolerant of a truncated final line (a crash
mid-write loses at most one event), and refusal — with a diagnostic — of
entries stamped by a newer schema.

``submitted`` entries carry the campaign's *request payload* (the exact
JSON a client could POST), so replay re-validates through the ordinary
spec parser instead of trusting the journal, plus the spec's scheduling
priority and a monotonically increasing submission sequence number —
together these reconstruct the admission queue in FIFO-within-priority
order.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

from repro.store import append_jsonl, atomic_write, jsonl_bytes, replay_jsonl

#: Version of the service journal's entry layout.
SERVICE_JOURNAL_VERSION = 1

#: The journal's filename under the service state directory.
SERVICE_JOURNAL_NAME = "service-journal.jsonl"

#: Campaign states that end a lifecycle (no recovery owed).
TERMINAL_EVENTS = ("done", "degraded", "failed", "cancelled")

#: Journal id prefix for fleet lease events.  Lease grant/renew/expire/
#: reclaim/fence records are observability, not recovery state: they are
#: keyed per batch digest (never per campaign, so a late lease event can
#: never flip a finished campaign back to "interrupted") and compaction
#: drops them wholesale.
FLEET_ID_PREFIX = "fleet:"

#: Journal id of service-level lifecycle records (e.g. clean ``shutdown``).
SERVICE_ID = "__service__"


@dataclass
class JournaledCampaign:
    """One campaign's folded journal state after replay."""

    campaign_id: str
    state: str = "submitted"
    request: Optional[dict] = None
    priority: int = 0
    seq: int = 0
    submissions: int = 1
    events: list = field(default_factory=list)

    @property
    def interrupted(self) -> bool:
        """Was this campaign in flight when the process died?"""
        return self.state not in TERMINAL_EVENTS and self.request is not None


class ServiceJournal:
    """Append-only lifecycle journal for one campaign-service state dir."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._seq = 0
        # Lease events arrive from fleet transport threads while the
        # scheduler journals campaign transitions and startup compaction
        # rewrites the file: one lock makes each append atomic against
        # the compaction's replay-rewrite-replace window, so a record
        # written during compaction can never vanish into the replaced
        # file.
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------------------

    def record(self, campaign_id: str, event: str,
               request: Optional[dict] = None,
               priority: int = 0,
               extra: Optional[Dict[str, object]] = None) -> None:
        """Append one lifecycle transition; durable when this returns.

        ``extra`` carries event particulars (lease shard/token, shutdown
        reason) that replay ignores but operators and tests can read —
        the folded lifecycle state never depends on it.
        """
        entry: Dict[str, object] = {
            "schema": SERVICE_JOURNAL_VERSION,
            "event": event,
            "id": campaign_id,
        }
        if extra:
            for name, value in extra.items():
                entry.setdefault(name, value)
        with self._lock:
            if request is not None:
                self._seq += 1
                entry["request"] = request
                entry["priority"] = priority
                entry["seq"] = self._seq
            append_jsonl(self.path, entry)

    # -- replay ----------------------------------------------------------------------

    def replay(self) -> Dict[str, JournaledCampaign]:
        """Fold the journal into per-campaign records, in submission order.

        Tolerates a truncated final line; refuses newer-schema entries
        with a diagnostic (see :func:`repro.store.replay_jsonl`).
        """
        with self._lock:
            return self._replay_locked()

    def _replay_locked(self) -> Dict[str, JournaledCampaign]:
        records: Dict[str, JournaledCampaign] = {}
        if not self.path.exists():
            return records
        for entry in replay_jsonl(
                self.path, SERVICE_JOURNAL_VERSION, "service journal",
                remedy=f"move {SERVICE_JOURNAL_NAME} aside (campaigns "
                       f"resume from the result cache on resubmission) "
                       f"or upgrade"):
            cid = entry.get("id")
            event = entry.get("event")
            if not isinstance(cid, str) or not isinstance(event, str):
                continue
            record = records.get(cid)
            if record is None:
                record = records[cid] = JournaledCampaign(campaign_id=cid)
            record.events.append(event)
            if entry.get("request") is not None:
                if record.request is not None:
                    # A resubmission of a failed/cancelled campaign:
                    # same id, fresh lifecycle.
                    record.submissions += 1
                record.request = entry["request"]
                record.priority = int(entry.get("priority", 0))
                record.seq = int(entry.get("seq", record.seq))
                self._seq = max(self._seq, record.seq)
            record.state = event
        return records

    def interrupted(self) -> Dict[str, JournaledCampaign]:
        """The campaigns a crashed process still owed work to, by id."""
        return {cid: record for cid, record in self.replay().items()
                if record.interrupted}

    def compact(self) -> None:
        """Rewrite the journal with one line per campaign (atomic).

        Run at startup after recovery decisions are made: the folded
        state is all future replays can use, so dropping superseded
        transitions bounds journal growth across restart cycles without
        losing recovery information.  Fleet lease records
        (``fleet:<digest>`` ids) are observability only and are dropped
        wholesale, so heartbeat-renewal traffic never accretes across
        restarts.  The rewrite goes through the fsynced
        :func:`repro.store.atomic_write`, so a crash mid-compaction leaves
        either the old journal or the new one, never a mix — and the
        whole replay-rewrite-replace window holds the journal lock, so a
        record appended by a concurrent writer (a campaign submission, a
        lease renewal) lands strictly before or strictly after the
        compacted file, never inside the discarded one.
        """
        with self._lock:
            entries = []
            for record in sorted(self._replay_locked().values(),
                                 key=lambda r: r.seq):
                if record.campaign_id.startswith(FLEET_ID_PREFIX):
                    continue
                entry: Dict[str, object] = {
                    "schema": SERVICE_JOURNAL_VERSION,
                    "event": record.state,
                    "id": record.campaign_id,
                }
                if record.request is not None:
                    entry["request"] = record.request
                    entry["priority"] = record.priority
                    entry["seq"] = record.seq
                entries.append(entry)
            atomic_write(self.path, jsonl_bytes(entries), fsync=True)
