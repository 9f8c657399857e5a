"""Fault-injection campaign: AVF cross-validation and plumbing."""

import numpy as np
import pytest

from repro.avf.account import VulnerabilityAccount
from repro.avf.structures import Structure
from repro.config import SimConfig
from repro.errors import ReproError
from repro.faultinject import CampaignJob, InjectionOutcome, run_campaign
from repro.faultinject.campaign import _occupancy_timelines
from repro.resilience import CheckpointJournal, RetryPolicy, Supervisor
from repro.workload.mixes import get_mix


class TestTimelineReconstruction:
    def test_single_interval(self):
        acct = VulnerabilityAccount("x", 4, record_intervals=True)
        acct.add_interval(0, 10, 20, ace=True)
        ace, occ = _occupancy_timelines([acct], cycles=30)
        assert ace[9] == 0 and ace[10] == 1 and ace[19] == 1 and ace[20] == 0
        assert occ[15] == 1

    def test_overlapping_intervals_stack(self):
        acct = VulnerabilityAccount("x", 4, record_intervals=True)
        acct.add_interval(0, 0, 10, ace=True)
        acct.add_interval(1, 5, 15, ace=False)
        ace, occ = _occupancy_timelines([acct], cycles=20)
        assert occ[7] == 2
        assert ace[7] == 1

    def test_timeline_sum_matches_ledger(self):
        acct = VulnerabilityAccount("x", 8, record_intervals=True)
        rng = np.random.default_rng(3)
        for _ in range(50):
            start = int(rng.integers(0, 90))
            end = start + int(rng.integers(1, 10))
            acct.add_interval(int(rng.integers(0, 4)), start, end,
                              ace=bool(rng.integers(0, 2)))
        ace, occ = _occupancy_timelines([acct], cycles=100)
        assert ace.sum() == pytest.approx(acct.total_ace())
        assert occ.sum() == pytest.approx(acct.total_ace() + acct.total_unace())

    def test_requires_recorded_intervals(self):
        acct = VulnerabilityAccount("x", 4)  # not recording
        with pytest.raises(ReproError):
            _occupancy_timelines([acct], cycles=10)


class TestCampaign:
    @pytest.fixture(scope="class")
    def campaign(self):
        return run_campaign(get_mix("2-MIX-A"), injections=6000,
                            sim=SimConfig(max_instructions=2500), seed=11)

    def test_outcomes_partition_injections(self, campaign):
        for c in campaign.structures.values():
            assert sum(c.outcomes.values()) == c.injections

    def test_sdc_rate_matches_reported_avf(self, campaign):
        """The paper's two methodologies must agree (sampling error aside)."""
        for s, c in campaign.structures.items():
            assert c.sdc_rate == pytest.approx(c.reported_avf, abs=0.03), s

    def test_masked_plus_sdc_is_one(self, campaign):
        for c in campaign.structures.values():
            assert c.masked_rate + c.sdc_rate == pytest.approx(1.0)

    def test_summary_renders(self, campaign):
        text = campaign.summary()
        assert "SDC rate" in text
        assert "IQ" in text

    def test_rejects_cache_structures(self):
        with pytest.raises(ReproError):
            run_campaign(get_mix("2-CPU-A"), injections=10,
                         structures=(Structure.DL1_DATA,),
                         sim=SimConfig(max_instructions=200))

    def test_deterministic_given_seed(self):
        kwargs = dict(injections=500, sim=SimConfig(max_instructions=800),
                      seed=5, structures=(Structure.IQ,))
        a = run_campaign(get_mix("2-CPU-A"), **kwargs)
        b = run_campaign(get_mix("2-CPU-A"), **kwargs)
        assert (a.structures[Structure.IQ].outcomes
                == b.structures[Structure.IQ].outcomes)

    def test_idle_strikes_happen(self, campaign):
        fu = campaign.structures[Structure.FU]
        assert fu.outcomes.get(InjectionOutcome.MASKED_IDLE, 0) > 0


class TestCampaignSimConfig:
    def test_campaign_sim_preserves_every_field(self):
        """Regression: the old hand-rolled copy dropped fields it did not
        name (phase_window_cycles among them)."""
        from dataclasses import asdict

        from repro.faultinject.campaign import _campaign_sim

        base = SimConfig(max_instructions=1234, warmup_instructions=7,
                         seed=99, phase_window_cycles=250,
                         functional_warmup=False)
        run_sim = _campaign_sim(base)
        expected = asdict(base)
        expected["record_intervals"] = True
        assert asdict(run_sim) == expected


class TestZeroStrikeCampaign:
    def test_zero_strikes_summary_renders(self):
        """Regression: the summary divided by c.injections unguarded."""
        result = run_campaign(get_mix("2-CPU-A"), injections=0,
                              sim=SimConfig(max_instructions=400),
                              structures=(Structure.IQ, Structure.ROB))
        text = result.summary()
        assert "0 strikes/structure" in text
        for c in result.structures.values():
            assert c.injections == 0
            assert c.sdc_rate == 0.0
            assert not c.outcomes


class TestCampaignCacheAndJobs:
    KW = dict(injections=400, sim=SimConfig(max_instructions=800), seed=5)

    @staticmethod
    def _supervisor(journal_path):
        return Supervisor(max_workers=2, policy=RetryPolicy(retries=0),
                          journal=CheckpointJournal(journal_path))

    @staticmethod
    def _payload(result):
        from repro.faultinject.campaign import _campaign_payload

        return _campaign_payload(result)

    def test_supervised_equals_inline(self, tmp_path):
        inline = run_campaign(get_mix("2-CPU-A"), **self.KW)
        sup = self._supervisor(tmp_path / "journal.jsonl")
        supervised = run_campaign(get_mix("2-CPU-A"), supervisor=sup,
                                  **self.KW)
        assert len(sup.journal.done) == 1  # ran in a worker
        assert self._payload(supervised) == self._payload(inline)
        assert supervised.summary() == inline.summary()

    def test_supervised_run_reuses_inline_cache_entry(self, tmp_path):
        first = run_campaign(get_mix("2-CPU-A"), cache_dir=tmp_path,
                             **self.KW)
        sup = self._supervisor(tmp_path / "journal.jsonl")
        again = run_campaign(get_mix("2-CPU-A"), cache_dir=tmp_path,
                             supervisor=sup, **self.KW)
        assert self._payload(again) == self._payload(first)
        assert len(list(tmp_path.glob("campaign-*.json"))) == 1
        assert not sup.journal.done  # executed 0 tasks

    def test_inline_run_reuses_supervised_cache_entry(self, tmp_path,
                                                      monkeypatch):
        sup = self._supervisor(tmp_path / "journal.jsonl")
        first = run_campaign(get_mix("2-CPU-A"), cache_dir=tmp_path,
                             supervisor=sup, **self.KW)
        assert len(sup.journal.done) == 1

        def never(self):
            raise AssertionError("served from the cache: must not run")

        monkeypatch.setattr(CampaignJob, "run", never)
        again = run_campaign(get_mix("2-CPU-A"), cache_dir=tmp_path,
                             **self.KW)
        assert self._payload(again) == self._payload(first)
        assert len(list(tmp_path.glob("campaign-*.json"))) == 1

    def test_disk_cache_round_trip(self, tmp_path):
        first = run_campaign(get_mix("2-CPU-A"), cache_dir=tmp_path, **self.KW)
        assert len(list(tmp_path.glob("campaign-*.json"))) == 1
        cached = run_campaign(get_mix("2-CPU-A"), cache_dir=tmp_path, **self.KW)
        assert cached.summary() == first.summary()
        assert list(cached.structures) == list(first.structures)

    @pytest.mark.parametrize("entry", [
        {"schema": 2},
        {"schema": 2, "result": {"workload": "2-CPU-A"}},
    ], ids=["no-result", "partial-result"])
    def test_incomplete_entry_recomputed_not_crash(self, tmp_path, entry):
        """Regression: an entry with the right schema but no (or a
        partial) result raised KeyError instead of being recomputed."""
        import json

        first = run_campaign(get_mix("2-CPU-A"), cache_dir=tmp_path, **self.KW)
        (path,) = tmp_path.glob("campaign-*.json")
        good = path.read_bytes()
        path.write_text(json.dumps(entry))
        again = run_campaign(get_mix("2-CPU-A"), cache_dir=tmp_path, **self.KW)
        assert again.summary() == first.summary()
        assert path.read_bytes() == good

    def test_schema_mismatch_reruns(self, tmp_path):
        import json

        from repro.faultinject.campaign import CAMPAIGN_SCHEMA_VERSION

        run_campaign(get_mix("2-CPU-A"), cache_dir=tmp_path, **self.KW)
        (path,) = tmp_path.glob("campaign-*.json")
        entry = json.loads(path.read_text())
        entry["schema"] = CAMPAIGN_SCHEMA_VERSION + 1
        path.write_text(json.dumps(entry))
        again = run_campaign(get_mix("2-CPU-A"), cache_dir=tmp_path, **self.KW)
        assert json.loads(path.read_text())["schema"] == CAMPAIGN_SCHEMA_VERSION
        assert sum(again.structures[Structure.IQ].outcomes.values()) == 400
