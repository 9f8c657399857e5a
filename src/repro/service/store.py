"""The shared artifact store: content-hash cache + per-campaign manifests.

The PR-1 result cache and the PR-3/PR-5 campaign caches already key every
payload by a content hash of its inputs; this module promotes that layout
to a multi-tenant store the campaign service owns:

``<root>/cache/``
    The shared computation cache — ``SimResult`` entries, interval-replay
    ``campaign-<digest>.json`` entries and live ``live-<digest>.json``
    batch entries, exactly the files the CLI paths read and write.  Every
    campaign's supervised jobs dedup through it, so two campaigns sharing
    simulations share the work.

``<root>/artifacts/<spec-digest>.json``
    Final campaign results, content-addressed by the *spec* digest and
    stored as :mod:`repro.store` checksummed envelopes (canonical bytes)
    — which is what makes "byte-identical results for identical specs" a
    property of the store rather than a promise of the scheduler.

``<root>/campaigns/<id>/manifest.json``
    Per-campaign metadata: the spec, terminal state, submission count,
    batch progress, failures (the service's analogue of PR-3's
    ``failures.json`` exit artefact), and the artifact digest.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Union

from repro.store import (
    open_dir,
    read_entry,
    sweep_tmp_orphans,
    verified_bytes,
    write_entry,
)

#: Version of the artifact/manifest layout.  v2 added the per-artifact
#: content checksum; v1 entries are invalidated on read (the campaign
#: recomputes from the batch cache, so the cost is re-assembly, not
#: re-simulation).
STORE_SCHEMA_VERSION = 2


class ArtifactStore:
    """Owns the service's on-disk layout under one root directory."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.cache_dir = open_dir(self.root / "cache")
        self.artifact_dir = open_dir(self.root / "artifacts")
        self.campaign_dir = open_dir(self.root / "campaigns")
        # Manifests live one level down (campaigns/<id>/manifest.json);
        # a writer killed mid-publish leaves its temp file there, so the
        # orphan sweep has to reach the per-campaign dirs too.
        for subdir in self.campaign_dir.iterdir():
            if subdir.is_dir():
                sweep_tmp_orphans(subdir)

    # -- artifacts (content-addressed finals) --------------------------------------

    def artifact_path(self, digest: str) -> Path:
        return self.artifact_dir / f"{digest}.json"

    def write_artifact(self, digest: str, payload: Dict[str, object]) -> None:
        """Canonical, atomic write; idempotent for identical payloads."""
        write_entry(self.artifact_path(digest), payload, STORE_SCHEMA_VERSION)

    def verified_artifact_bytes(self, digest: str) -> bytes:
        """Artifact bytes for *serving*: refuses a corrupt entry.

        Bytes that are not exactly the checksummed envelope written for
        this digest (bit rot, truncation, manual tampering) raise
        :class:`~repro.errors.ArtifactIntegrityError` naming the digest —
        the server renders that as a 500, because silently serving wrong
        science is the one failure mode a content-addressed store exists
        to rule out.
        """
        return verified_bytes(self.artifact_path(digest),
                              STORE_SCHEMA_VERSION)

    def read_artifact(self, digest: str) -> Optional[Dict[str, object]]:
        """The stored result, or None — for the dedup-on-submit path.

        Unlike :meth:`verified_artifact_bytes`, a broken entry here is
        quarantined (a stale one deleted) so the submission recomputes
        it: at submission time a broken artifact is no artifact.
        """
        return read_entry(self.artifact_path(digest), STORE_SCHEMA_VERSION)

    # -- manifests (per-campaign metadata) -----------------------------------------

    def write_manifest(self, campaign_id: str,
                       manifest: Dict[str, object]) -> None:
        path = self.campaign_dir / campaign_id / "manifest.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        write_entry(path, manifest, STORE_SCHEMA_VERSION)
