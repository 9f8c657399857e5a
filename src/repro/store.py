"""The one content store: every cached result, checksummed and verified.

Every persisted result — a ``SimResult``, an interval campaign, a live
strike batch, a service artifact or manifest — is one file holding one
envelope, ``canonical({"checksum": sha256(canonical(result)), "result":
result, "schema": N})``, where ``canonical`` is sorted-key compact JSON
plus a newline.  Each kind keeps its own schema; callers own the file
names (content digests, :func:`stable_digest`), this module the bytes.

Reads accept an entry only if its bytes are exactly the envelope of the
result they hold.  :func:`read_entry` answers a miss otherwise, so the
caller recomputes: a stale entry (another schema, or no checksum) is
deleted, a corrupt one moved to ``<dir>/quarantine/``.
:func:`verified_bytes`, for serving, raises
:class:`~repro.errors.ArtifactIntegrityError` naming the entry instead.

Writes are atomic (temp file, then :func:`os.replace`); temp names carry
the writer's pid and thread id, and :func:`sweep_tmp_orphans` spares this
process's temps.  Content entries are not fsynced — a torn entry fails
its check and is recomputed — but journal appends and compactions are.

Imports only the standard library and :mod:`repro.errors`.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Union

from repro.errors import ArtifactIntegrityError, ReproError


class StaleEntry(ArtifactIntegrityError):
    """An entry from another schema, or from before checksums existed."""


# -- bytes ---------------------------------------------------------------------------


def _compact(value: object) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def canonical_bytes(value: object) -> bytes:
    """The one serialization of a stored value (byte-determinism)."""
    return (_compact(value) + "\n").encode("utf-8")


def stable_digest(value: object) -> str:
    """Content address of a JSON-safe value, stable across processes."""
    return hashlib.sha256(_compact(value).encode("utf-8")).hexdigest()


def checksum(result: object) -> str:
    """The integrity hash recorded beside a stored result."""
    return hashlib.sha256(canonical_bytes(result)).hexdigest()


def envelope(result: object, schema: int) -> bytes:
    """The exact bytes an entry holding ``result`` is stored as."""
    return canonical_bytes({"checksum": checksum(result), "result": result,
                            "schema": schema})


def open_envelope(raw: bytes, schema: int, name: str) -> object:
    """The result held in ``raw``, which must be exactly its envelope;
    raises :class:`StaleEntry` or
    :class:`~repro.errors.ArtifactIntegrityError` naming ``name``."""
    try:
        entry = json.loads(raw)
    except ValueError as exc:
        raise ArtifactIntegrityError(name, f"unparseable JSON: {exc}") from None
    if not isinstance(entry, dict):
        raise ArtifactIntegrityError(
            name, f"entry is {type(entry).__name__}, not an object")
    if entry.get("schema") != schema:
        raise StaleEntry(name, f"schema {entry.get('schema')!r} != {schema}")
    if "checksum" not in entry:
        raise StaleEntry(name, "no checksum (written by an older layout)")
    result = entry.get("result")
    if raw != envelope(result, schema):
        recorded, actual = str(entry["checksum"]), checksum(result)
        if recorded != actual:
            raise ArtifactIntegrityError(
                name, f"recorded checksum {recorded[:12]}... but bytes "
                      f"re-hash to {actual[:12]}...")
        raise ArtifactIntegrityError(
            name, "bytes are not the canonical encoding of their result")
    return result


# -- content entries -------------------------------------------------------------------


def open_dir(directory: Union[str, Path]) -> Path:
    """Create a store directory and sweep dead writers' temp files."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    sweep_tmp_orphans(directory)
    return directory


def write_entry(path: Path, result: object, schema: int) -> None:
    """Publish ``result`` at ``path`` in its checksummed envelope."""
    atomic_write(path, envelope(result, schema))


def read_entry(path: Path, schema: int,
               decode: Callable = lambda result: result) -> Optional[object]:
    """The verified, decoded result at ``path``; None means recompute.

    A stale entry is deleted.  A corrupt one — including a verified
    result ``decode`` rejects with an attribute, key, type or value
    error — is quarantined.
    """
    try:
        raw = path.read_bytes()
    except OSError:
        return None
    try:
        return decode(open_envelope(raw, schema, path.stem))
    except StaleEntry:
        _unlink(path)
    except (ArtifactIntegrityError, AttributeError, KeyError, TypeError,
            ValueError):
        _quarantine(path)
    return None


def verified_bytes(path: Path, schema: int) -> bytes:
    """An entry's bytes for serving, left in place if they fail to
    verify: :class:`~repro.errors.ArtifactIntegrityError` names the
    file stem."""
    raw = path.read_bytes()
    open_envelope(raw, schema, path.stem)
    return raw


def _quarantine(path: Path) -> None:
    """Move a corrupt entry out of every read path, into
    ``<dir>/quarantine/`` for a post-mortem."""
    target = path.parent / "quarantine"
    try:
        target.mkdir(exist_ok=True)
        os.replace(path, target / path.name)
    except OSError:
        _unlink(path)


def _unlink(path: Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass


# -- atomic files ----------------------------------------------------------------------


def atomic_write(path: Path, data: bytes, fsync: bool = False) -> None:
    """Write-then-rename, so no reader ever sees a half-written file.

    The temp file is unique per process and thread and is removed if the
    write or rename fails; ``fsync`` makes the bytes durable first.
    """
    tmp = path.with_name(
        f"{path.name}.tmp{os.getpid()}-{threading.get_ident()}")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        _unlink(tmp)
        raise


def sweep_tmp_orphans(directory: Path) -> int:
    """Delete ``*.tmp*`` files writers killed mid-publish left behind;
    returns the count.  Temps carrying this process's pid are kept: they
    belong to a live thread between its write and its rename."""
    own = str(os.getpid())
    removed = 0
    for orphan in directory.glob("*.tmp*"):
        if orphan.name.rpartition(".tmp")[2].split("-")[0] == own:
            continue
        try:
            orphan.unlink()
            removed += 1
        except OSError:
            pass
    return removed


# -- journals --------------------------------------------------------------------------


def jsonl_bytes(entries: Iterable[dict]) -> bytes:
    """Journal lines: one sorted-key JSON object per line."""
    return "".join(json.dumps(entry, sort_keys=True) + "\n"
                   for entry in entries).encode("utf-8")


def append_jsonl(path: Path, entry: dict) -> None:
    """Append one journal line in a single ``O_APPEND`` write, fsynced:
    concurrent writers never interleave partial lines, and a crash
    truncates at most the final line."""
    with open(path, "ab") as fh:
        fh.write(jsonl_bytes([entry]))
        fh.flush()
        os.fsync(fh.fileno())


def replay_jsonl(path: Path, max_schema: int, what: str,
                 remedy: str = "remove the journal (recomputing from the "
                               "result cache) or upgrade") -> Iterator[dict]:
    """Yield the parseable dict entries of an append-only JSONL journal.

    Unparseable lines are dropped (a crash mid-write truncates at most
    the final one), but an entry with a *newer* ``schema`` than
    ``max_schema`` refuses the replay: events this build cannot
    interpret must never silently mix with fresh state.
    """
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            continue  # truncated by a crash mid-write; drop it
        if not isinstance(entry, dict):
            continue
        schema = entry.get("schema")
        if isinstance(schema, int) and schema > max_schema:
            raise ReproError(
                f"{what} {path} contains schema {schema} entries but this "
                f"build reads schema <= {max_schema}; refusing to replay — "
                f"{remedy}")
        yield entry
