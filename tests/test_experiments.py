"""Experiment harness: figure runners at tiny scale, cache behaviour."""

import pytest

from repro.avf.structures import Structure
from repro.experiments import (
    run_figure1, format_figure1,
    run_figure2, format_figure2,
    run_figure3, format_figure3,
    run_figure5, format_figure5,
)
from repro.experiments.fig4_smt_vs_st_efficiency import format_figure4, run_figure4
from repro.experiments.formatting import render_table
from repro.experiments.runner import (
    MIX_TYPES,
    ExperimentScale,
    ResultCache,
    average_avf,
)
from repro.workload.mixes import mixes_for

TINY = ExperimentScale(instructions_per_thread=250)


@pytest.fixture(scope="module")
def cache():
    return ResultCache()


class TestRunner:
    def test_cache_memoises(self, cache):
        from repro.workload.mixes import get_mix

        mix = get_mix("2-CPU-A")
        a = cache.smt(mix, "ICOUNT", TINY)
        b = cache.smt(mix, "ICOUNT", TINY)
        assert a is b

    def test_cache_distinguishes_policy(self, cache):
        from repro.workload.mixes import get_mix

        mix = get_mix("2-CPU-A")
        a = cache.smt(mix, "ICOUNT", TINY)
        b = cache.smt(mix, "DWARN", TINY)
        assert a is not b

    def test_single_thread_cache(self, cache):
        a = cache.single_thread("bzip2", 300, TINY)
        b = cache.single_thread("bzip2", 300, TINY)
        assert a is b
        assert a.num_threads == 1

    def test_groups_for(self):
        assert len(mixes_for(4, "CPU")) == 2
        assert len(mixes_for(8, "MEM")) == 1

    def test_average_avf(self, cache):
        from repro.workload.mixes import get_mix

        results = [cache.smt(get_mix("2-CPU-A"), "ICOUNT", TINY)]
        avg = average_avf(results, Structure.IQ)
        assert avg == results[0].avf.avf[Structure.IQ]

    def test_scale_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "777")
        assert ExperimentScale.from_env().instructions_per_thread == 777
        monkeypatch.delenv("REPRO_SCALE")
        assert ExperimentScale.from_env().instructions_per_thread == 2500

    def test_scale_from_env_blank_is_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "  ")
        assert ExperimentScale.from_env().instructions_per_thread == 2500

    @pytest.mark.parametrize("raw", ["abc", "12.5", "", " zero "])
    def test_scale_from_env_rejects_non_integer(self, monkeypatch, raw):
        from repro.errors import ConfigError

        monkeypatch.setenv("REPRO_SCALE", raw)
        if not raw.strip():
            assert ExperimentScale.from_env().instructions_per_thread == 2500
        else:
            with pytest.raises(ConfigError):
                ExperimentScale.from_env()

    @pytest.mark.parametrize("raw", ["0", "-5"])
    def test_scale_from_env_rejects_non_positive(self, monkeypatch, raw):
        from repro.errors import ConfigError

        monkeypatch.setenv("REPRO_SCALE", raw)
        with pytest.raises(ConfigError):
            ExperimentScale.from_env()


class TestFormatting:
    def test_render_table_alignment(self):
        text = render_table("T", ["a", "bbb"], [["x", 1.5], ["yy", 2.25]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbb" in lines[1]
        assert len(lines) == 5

    def test_infinity_rendered(self):
        text = render_table("T", ["v"], [[float("inf")]])
        assert "inf" in text


class TestFigureRunners:
    """Each runner produces well-formed data and a printable table."""

    def test_figure1(self, cache):
        data = run_figure1(scale=TINY, cache=cache)
        for mix_type in MIX_TYPES:
            for s in Structure:
                assert 0.0 <= data.avf[mix_type][s] <= 1.0
        text = format_figure1(data)
        assert "Figure 1" in text and "IQ" in text

    def test_figure2_shares_runs_with_figure1(self, cache):
        before = cache.simulated
        run_figure1(scale=TINY, cache=cache)
        mid = cache.simulated
        run_figure2(scale=TINY, cache=cache)
        assert cache.simulated == mid  # no new simulations
        assert mid >= before

    def test_figure2(self, cache):
        data = run_figure2(scale=TINY, cache=cache)
        assert set(data.ipc) == set(MIX_TYPES)
        assert "IPC/AVF" in format_figure2(data)

    def test_figure3(self, cache):
        data = run_figure3(scale=TINY, cache=cache,
                           workload_names=["2-CPU-A"])
        comp = data.workloads[0]
        assert len(comp.threads) == 2
        for tc in comp.threads:
            assert tc.committed > 0
            assert set(tc.st_avf) == set(tc.smt_avf)
        assert "SMT vs single-thread" in format_figure3(data)

    def test_figure4(self, cache):
        data = run_figure4(scale=TINY, cache=cache,
                           workload_names=["2-CPU-A"])
        assert len(data.rows) == 2
        assert "Figure 4" in format_figure4(data)

    @pytest.mark.slow
    def test_figure5(self, cache):
        data = run_figure5(scale=TINY, cache=cache)
        assert set(data.avf) == {(m, n) for m in MIX_TYPES for n in (2, 4, 8)}
        assert "number of contexts" in format_figure5(data)
