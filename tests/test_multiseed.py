"""Multi-seed replication utility and cross-seed shape stability."""

import pytest

from repro.avf.structures import Structure
from repro.errors import ConfigError, ExecutionFailed
from repro.experiments.multiseed import SeedStatistics, run_multiseed
from repro.resilience import CHAOS_ENV_VAR, Supervisor
from repro.workload.mixes import WorkloadMix, get_mix


class TestSeedStatistics:
    def test_mean_std(self):
        stat = SeedStatistics(values=[1.0, 2.0, 3.0])
        assert stat.mean == pytest.approx(2.0)
        assert stat.std == pytest.approx(1.0)

    def test_degenerate(self):
        assert SeedStatistics().mean == 0.0
        assert SeedStatistics(values=[5.0]).std == 0.0

    def test_spread(self):
        stat = SeedStatistics(values=[1.0, 3.0])
        assert stat.spread == pytest.approx(1.0)


class TestRunMultiseed:
    @pytest.fixture(scope="class")
    def ms(self):
        return run_multiseed(get_mix("2-MIX-A"), seeds=(1, 2, 3),
                             instructions_per_thread=500,
                             structures=(Structure.IQ, Structure.ROB))

    def test_one_run_per_seed(self, ms):
        assert len(ms.runs) == 3
        assert len(ms.ipc.values) == 3

    def test_seeds_actually_vary_results(self, ms):
        assert len(set(ms.ipc.values)) > 1

    def test_avf_within_bounds_across_seeds(self, ms):
        for stat in ms.avf.values():
            assert all(0.0 <= v <= 1.0 for v in stat.values)

    def test_summary_renders(self, ms):
        text = ms.summary()
        assert "2-MIX-A" in text and "IQ" in text

    def test_rejects_empty_seeds(self):
        with pytest.raises(ConfigError):
            run_multiseed(get_mix("2-CPU-A"), seeds=())

    def test_shape_stable_across_seeds(self):
        """The headline MEM-vs-CPU ROB ordering must hold for every seed."""
        cpu = run_multiseed(get_mix("2-CPU-A"), seeds=(1, 2),
                            instructions_per_thread=800,
                            structures=(Structure.ROB,))
        mem = run_multiseed(get_mix("2-MEM-A"), seeds=(1, 2),
                            instructions_per_thread=800,
                            structures=(Structure.ROB,))
        for c, m in zip(cpu.avf[Structure.ROB].values,
                        mem.avf[Structure.ROB].values):
            assert m > c


class TestCustomMix:
    """A mix outside Table 2 is one job per seed like any other: it fans
    out to the pool and simulates exactly as an inline run does."""

    MIX = WorkloadMix("my-mix", 2, "MIX", "A", ("gcc", "mcf"))
    KW = dict(seeds=(1, 2), instructions_per_thread=200)

    def test_seeds_run_on_the_pool(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV_VAR, "raise:*:*")
        with pytest.raises(ExecutionFailed):
            run_multiseed(self.MIX, jobs=2, **self.KW)
        monkeypatch.delenv(CHAOS_ENV_VAR)
        inline = run_multiseed(self.MIX, jobs=1, **self.KW)
        pooled = run_multiseed(self.MIX, supervisor=Supervisor(max_workers=2),
                               **self.KW)
        assert ([r.to_payload() for r in pooled.runs]
                == [r.to_payload() for r in inline.runs])
        assert {r.workload for r in inline.runs} == {"my-mix"}
