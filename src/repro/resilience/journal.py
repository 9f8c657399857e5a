"""Checkpoint journal: an append-only JSONL record of per-job outcomes.

One line per event, written as each job finishes (or fails permanently),
so a run killed mid-flight leaves behind an exact record of what
completed.  ``--resume`` replays the journal: jobs whose completion is
journaled *and* whose result the disk cache can still answer are skipped
without re-execution; previously-failed jobs get a fresh chance (a resume
is an explicit request to try again).

The journal composes with — never duplicates — the result cache: the
cache stores payloads keyed by content digest, the journal stores the
campaign's progress through them.  Replay is tolerant of a truncated
final line (the signature of a crash mid-write): the partial line is
ignored, losing at most one event.  Replay *refuses* (with a diagnostic)
a journal carrying entries from a newer schema version: a "done" mark
whose semantics this build cannot interpret must not silently mix with
freshly computed results.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Union

from repro.store import append_jsonl, replay_jsonl

JOURNAL_SCHEMA_VERSION = 1


class CheckpointJournal:
    """JSONL journal of completed/failed job digests for one campaign.

    ``resume=False`` (a fresh campaign) truncates any existing file;
    ``resume=True`` replays it into :attr:`done` and :attr:`failed` first.
    Writes are one fsynced append per event
    (:func:`repro.store.append_jsonl`): no handle to leak across the
    worker-pool forks, and every line is on disk when ``record_*``
    returns.
    """

    def __init__(self, path: Union[str, Path], resume: bool = False) -> None:
        self.path = Path(path)
        self.done: Dict[str, dict] = {}
        self.failed: Dict[str, dict] = {}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if resume and self.path.exists():
            self._replay()
        else:
            self.path.write_text("")

    def _replay(self) -> None:
        for entry in replay_jsonl(
                self.path, JOURNAL_SCHEMA_VERSION, "checkpoint journal",
                remedy="rerun without --resume (recomputing from the "
                       "result cache) or upgrade"):
            digest = entry.get("digest")
            if not isinstance(digest, str):
                continue
            if entry.get("event") == "done":
                self.done[digest] = entry
                self.failed.pop(digest, None)
            elif entry.get("event") == "failed":
                self.failed[digest] = entry

    def record_done(self, digest: str, label: str,
                    attempts: int, elapsed: float) -> None:
        entry = {"schema": JOURNAL_SCHEMA_VERSION, "event": "done",
                 "digest": digest, "label": label,
                 "attempts": attempts, "elapsed": round(elapsed, 3)}
        self.done[digest] = entry
        self.failed.pop(digest, None)
        append_jsonl(self.path, entry)

    def record_failed(self, digest: str, label: str, attempts: int,
                      kind: str, error: str) -> None:
        entry = {"schema": JOURNAL_SCHEMA_VERSION, "event": "failed",
                 "digest": digest, "label": label,
                 "attempts": attempts, "kind": kind, "error": error}
        self.failed[digest] = entry
        append_jsonl(self.path, entry)
