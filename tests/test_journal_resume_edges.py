"""Resume edge cases: a rerun on the same cache dir is the resume.

A rerun must either reuse a cached batch *exactly* or recompute it —
never silently mix stale entries with freshly computed results.  Cache
entries whose schema no longer matches, or whose bytes are corrupt, are
invalidated as a unit: the campaign recomputes them and the final result
is byte-identical to a fresh run.  (Torn and newer-schema journal lines
are pinned by ``tests/test_store.py`` and
``tests/test_service_recovery.py``.)
"""

import json

from repro.config import SimConfig
from repro.faultinject import run_live_campaign
from repro.faultinject.campaign import CAMPAIGN_SCHEMA_VERSION
from repro.resilience import RetryPolicy, Supervisor

SIM = SimConfig(max_instructions=80, seed=3)


def _campaign(tmp_path):
    supervisor = Supervisor(max_workers=1,
                            policy=RetryPolicy(retries=0, max_failures=0))
    result = run_live_campaign(["gcc"], injections=4, sim=SIM, seed=9,
                               supervisor=supervisor,
                               cache_dir=tmp_path / "cache")
    payload = json.dumps([r.to_payload() for r in result.records],
                         sort_keys=True)
    return supervisor, payload


class TestCacheSchemaMismatch:
    def test_stale_cache_entries_recompute_cleanly(self, tmp_path):
        _, fresh_payload = _campaign(tmp_path)

        # Rewrite every cached batch under a bogus schema version: the
        # batches ran, but their results are no longer readable.
        cache_root = tmp_path / "cache"
        stale = list(cache_root.rglob("live-*.json"))
        assert stale, "campaign must have cached its batches"
        for entry_path in stale:
            entry = json.loads(entry_path.read_text())
            entry["schema"] = CAMPAIGN_SCHEMA_VERSION + 1
            entry_path.write_text(json.dumps(entry))

        # Rerun on the same cache: the loader invalidates each stale
        # entry as a unit and the supervisor re-executes those batches.
        # Determinism (seeded substreams) makes the recomputed campaign
        # byte-identical to the fresh one — nothing stale leaked in,
        # nothing fresh mixed with a half-read entry.
        supervisor, resumed_payload = _campaign(tmp_path)
        assert resumed_payload == fresh_payload
        assert not supervisor.report
        for entry_path in stale:
            entry = json.loads(entry_path.read_text())
            assert entry["schema"] == CAMPAIGN_SCHEMA_VERSION

    def test_corrupt_cache_entry_recomputes_not_mixes(self, tmp_path):
        _, fresh_payload = _campaign(tmp_path)
        cache_root = tmp_path / "cache"
        victim = sorted(cache_root.rglob("live-*.json"))[0]
        victim.write_text("{definitely not json")

        _, resumed_payload = _campaign(tmp_path)
        assert resumed_payload == fresh_payload
        # The corrupt entry was replaced by the recomputed batch.
        assert json.loads(victim.read_text())["schema"] == \
            CAMPAIGN_SCHEMA_VERSION
