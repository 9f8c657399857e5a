"""The one content store: envelope, verify-on-read, quarantine, journals.

The corruption properties flip one byte of a stored file of each kind —
simulation result, interval campaign, live strike batch, service
artifact — and require the next read to recompute a byte-identical entry
(cache paths) or refuse with the digest named (service result path).
A flipped value is never returned.
"""

import json
import os
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.avf.structures import Structure
from repro.config import SimConfig
from repro.errors import ArtifactIntegrityError, ReproError
from repro.experiments.runner import CACHE_SCHEMA_VERSION, ResultCache
from repro.faultinject import run_campaign, run_live_campaign
from repro.service.store import ArtifactStore
from repro.store import (
    append_jsonl,
    atomic_write,
    canonical_bytes,
    checksum,
    envelope,
    jsonl_bytes,
    open_dir,
    read_entry,
    replay_jsonl,
    sweep_tmp_orphans,
    verified_bytes,
    write_entry,
)

SIM = SimConfig(max_instructions=150, seed=3)
CAMPAIGN = dict(injections=40, structures=(Structure.IQ,),
                sim=SimConfig(max_instructions=300), seed=9)
LIVE = dict(injections=2, structures=(Structure.IQ,),
            sim=SimConfig(max_instructions=200), seed=4)


def flips(raw: bytes):
    """Every single-byte change of ``raw`` (XOR with a non-zero mask)."""
    return st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255)).map(
        lambda pv: raw[:pv[0]] + bytes([raw[pv[0]] ^ pv[1]]) + raw[pv[0] + 1:])


def only_entry(directory: Path, pattern: str) -> Path:
    (path,) = directory.glob(pattern)
    return path


# -- the envelope ------------------------------------------------------------------


class TestEnvelope:
    def test_layout_is_the_service_artifact_envelope(self):
        result = {"b": [1, 2.5], "a": "x"}
        assert envelope(result, 7) == canonical_bytes(
            {"schema": 7, "checksum": checksum(result), "result": result})
        assert envelope(result, 7).endswith(b"}\n")

    def test_round_trip(self, tmp_path):
        write_entry(tmp_path / "e.json", {"k": [1, 2]}, 3)
        assert read_entry(tmp_path / "e.json", 3) == {"k": [1, 2]}

    def test_missing_entry_is_a_plain_miss(self, tmp_path):
        assert read_entry(tmp_path / "absent.json", 1) is None
        assert not (tmp_path / "quarantine").exists()

    @pytest.mark.parametrize("entry", [
        {"schema": 2, "result": {"k": 1}},  # written before checksums
        {"schema": 1, "checksum": "0" * 64, "result": {"k": 1}},
    ], ids=["no-checksum", "other-schema"])
    def test_stale_entry_is_deleted(self, tmp_path, entry):
        path = tmp_path / "e.json"
        path.write_text(json.dumps(entry))
        assert read_entry(path, 2) is None
        assert not path.exists()
        assert not (tmp_path / "quarantine").exists()

    def test_corrupt_entry_is_quarantined(self, tmp_path):
        path = tmp_path / "e.json"
        write_entry(path, {"k": 1}, 2)
        path.write_bytes(path.read_bytes().replace(b'"k":1', b'"k":2'))
        assert read_entry(path, 2) is None
        assert not path.exists()
        assert (tmp_path / "quarantine" / "e.json").exists()

    def test_entry_the_decoder_rejects_is_quarantined(self, tmp_path):
        path = tmp_path / "e.json"
        write_entry(path, {"partial": True}, 2)
        assert read_entry(path, 2, decode=lambda r: r["missing"]) is None
        assert (tmp_path / "quarantine" / "e.json").exists()

    def test_non_canonical_bytes_are_refused(self, tmp_path):
        """Same value, different bytes (here: spacing) is still not the
        envelope — what a reader is served must be exactly what was
        written."""
        path = tmp_path / "d" / "e.json"
        path.parent.mkdir()
        entry = json.loads(envelope({"k": 1}, 2))
        path.write_text(json.dumps(entry, sort_keys=True) + "\n")
        with pytest.raises(ArtifactIntegrityError, match="canonical"):
            verified_bytes(path, 2)

    def test_verified_bytes_names_the_entry(self, tmp_path):
        path = tmp_path / "feedface.json"
        write_entry(path, {"k": 1}, 2)
        assert verified_bytes(path, 2) == envelope({"k": 1}, 2)
        path.write_bytes(path.read_bytes().replace(b'"k":1', b'"k":3'))
        with pytest.raises(ArtifactIntegrityError, match="feedface"):
            verified_bytes(path, 2)
        assert path.exists()  # serving refuses; it does not move the entry


class TestAtomicFiles:
    def test_temp_name_is_unique_per_thread(self, tmp_path, monkeypatch):
        seen = []
        real_replace = os.replace

        def replace(src, dst):
            seen.append(Path(src).name)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        atomic_write(tmp_path / "e.json", b"{}")
        (name,) = seen
        pid, _, tid = name.rpartition(".tmp")[2].partition("-")
        assert pid == str(os.getpid()) and tid

    def test_sweep_keeps_this_processes_temps(self, tmp_path):
        own = tmp_path / f"e.json.tmp{os.getpid()}-1"
        dead = tmp_path / "e.json.tmp0-1"
        legacy = tmp_path / "e.json.tmp12345"
        for path in (own, dead, legacy):
            path.write_text("")
        assert sweep_tmp_orphans(tmp_path) == 2
        assert own.exists() and not dead.exists() and not legacy.exists()

    def test_fsync_write_round_trips(self, tmp_path):
        atomic_write(tmp_path / "j", b"line\n", fsync=True)
        assert (tmp_path / "j").read_bytes() == b"line\n"
        assert list(tmp_path.glob("*.tmp*")) == []


    def test_threads_writing_while_others_open_the_dir(self, tmp_path):
        """Stress: more threads than cores publish entries (half of them
        to one shared digest) while others keep opening the directory;
        no publish may fail and every entry must verify afterwards."""
        errors = []
        start = threading.Barrier(8)

        def writer(n):
            try:
                start.wait(timeout=10)
                for i in range(40):
                    name = "shared" if i % 2 else f"w{n}-{i}"
                    write_entry(tmp_path / f"{name}.json", {"i": i % 2}, 1)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def opener():
            try:
                start.wait(timeout=10)
                for _ in range(80):
                    open_dir(tmp_path)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = ([threading.Thread(target=writer, args=(n,))
                        for n in range(6)]
                       + [threading.Thread(target=opener) for _ in range(2)])
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert list(tmp_path.glob("*.tmp*")) == []
        entries = sorted(tmp_path.glob("*.json"))
        assert len(entries) == 1 + 6 * 20
        for path in entries:
            assert read_entry(path, 1) is not None


class TestJournalLines:
    def test_append_then_replay(self, tmp_path):
        path = tmp_path / "j.jsonl"
        append_jsonl(path, {"schema": 1, "event": "a"})
        append_jsonl(path, {"schema": 1, "event": "b"})
        assert path.read_bytes() == jsonl_bytes(
            [{"schema": 1, "event": "a"}, {"schema": 1, "event": "b"}])
        assert [e["event"] for e in replay_jsonl(path, 1, "journal")] == \
            ["a", "b"]

    def test_replay_drops_torn_line_and_refuses_newer_schema(self, tmp_path):
        path = tmp_path / "j.jsonl"
        # Older and schema-less lines still replay; only newer refuses.
        path.write_text('{"event": "v0"}\n{"schema": 1, "event": "a"}\n'
                        '{"sche')
        assert [e["event"] for e in replay_jsonl(path, 2, "journal")] == \
            ["v0", "a"]
        path.write_text("")
        append_jsonl(path, {"schema": 2})
        with pytest.raises(ReproError, match="refusing to replay"):
            list(replay_jsonl(path, 1, "journal"))


# -- single-byte corruption, per stored kind -----------------------------------------


@pytest.fixture(scope="module")
def sim_entry(tmp_path_factory):
    directory = tmp_path_factory.mktemp("sim")
    result = ResultCache(cache_dir=directory).run(["bzip2"], sim=SIM)
    path = only_entry(directory, "*.json")
    return path.name, path.read_bytes(), result.to_payload()


@pytest.fixture(scope="module")
def campaign_entry(tmp_path_factory):
    directory = tmp_path_factory.mktemp("campaign")
    result = run_campaign(["gcc"], cache_dir=directory, **CAMPAIGN)
    path = only_entry(directory, "campaign-*.json")
    return path.name, path.read_bytes(), result.summary()


@pytest.fixture(scope="module")
def live_entry(tmp_path_factory):
    directory = tmp_path_factory.mktemp("live")
    result = run_live_campaign(["gcc"], cache_dir=directory, **LIVE)
    path = only_entry(directory, "live-*.json")
    return (path.name, path.read_bytes(),
            [r.to_payload() for r in result.records])


class TestSingleByteCorruption:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_sim_result_recomputed(self, sim_entry, data):
        name, raw, payload = sim_entry
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / name
            path.write_bytes(data.draw(flips(raw)))
            cache = ResultCache(cache_dir=tmp)
            assert cache.run(["bzip2"], sim=SIM).to_payload() == payload
            assert cache.simulated == 1 and cache.disk_hits == 0
            assert path.read_bytes() == raw

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_interval_campaign_recomputed(self, campaign_entry, data):
        name, raw, summary = campaign_entry
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / name
            path.write_bytes(data.draw(flips(raw)))
            result = run_campaign(["gcc"], cache_dir=tmp, **CAMPAIGN)
            assert result.summary() == summary
            assert path.read_bytes() == raw

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_live_batch_recomputed(self, live_entry, data):
        name, raw, records = live_entry
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / name
            path.write_bytes(data.draw(flips(raw)))
            result = run_live_campaign(["gcc"], cache_dir=tmp, **LIVE)
            assert result.batches_executed == 1 and result.batches_cached == 0
            assert [r.to_payload() for r in result.records] == records
            assert path.read_bytes() == raw

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_service_artifact_refused_with_digest(self, data):
        digest = "5e" * 32
        payload = {"kind": "live", "structures": [{"avf": 0.125, "n": 3}]}
        with tempfile.TemporaryDirectory() as tmp:
            store = ArtifactStore(tmp)
            store.write_artifact(digest, payload)
            path = store.artifact_path(digest)
            path.write_bytes(data.draw(flips(path.read_bytes())))
            with pytest.raises(ArtifactIntegrityError, match=digest):
                store.verified_artifact_bytes(digest)
            # The dedup-on-submit path treats it as absent instead.
            assert store.read_artifact(digest) is None
            assert not path.exists()


def test_cache_schema_constant_is_recorded(tmp_path):
    ResultCache(cache_dir=tmp_path).run(["bzip2"], sim=SIM)
    entry = json.loads(only_entry(tmp_path, "*.json").read_text())
    assert entry["schema"] == CACHE_SCHEMA_VERSION
    assert entry["checksum"] == checksum(entry["result"])
