"""The one-shot reproduction driver."""

from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.experiments import protection_frontier, validate_injection
from repro.experiments.reproduce import ARTEFACTS, run_all
from repro.experiments.runner import ExperimentScale, ResultCache

TINY = ExperimentScale(instructions_per_thread=200)


class TestArtefactRegistry:
    def test_all_eight_figures_registered(self):
        for n in range(1, 9):
            assert any(name.startswith(f"fig{n}") for name in ARTEFACTS)

    def test_extension_artefacts_registered(self):
        assert "smt_vs_superscalar" in ARTEFACTS
        assert "resource_scaling" in ARTEFACTS


class TestRunAll:
    def test_selected_artefacts_written(self, tmp_path):
        report = run_all(tmp_path, scale=TINY,
                         only=["fig1_avf_profile", "fig2_efficiency"])
        assert report == tmp_path / "REPORT.md"
        assert (tmp_path / "fig1_avf_profile.txt").exists()
        assert (tmp_path / "fig2_efficiency.txt").exists()
        assert not (tmp_path / "fig5_context_scaling.txt").exists()

    def test_report_contains_renderings(self, tmp_path):
        run_all(tmp_path, scale=TINY, only=["fig1_avf_profile"])
        text = (tmp_path / "REPORT.md").read_text()
        assert "Figure 1" in text
        assert "200 instructions/context" in text

    def test_progress_callback_invoked(self, tmp_path):
        seen = []
        run_all(tmp_path, scale=TINY, only=["fig1_avf_profile"],
                progress=lambda name, secs: seen.append(name))
        assert seen == ["fig1_avf_profile"]

    def test_creates_output_directory(self, tmp_path):
        out = tmp_path / "nested" / "dir"
        run_all(out, scale=TINY, only=["fig1_avf_profile"])
        assert Path(out).is_dir()

    def test_unknown_artefact_is_an_error(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            run_all(tmp_path / "out", scale=TINY,
                    only=["fig1_avf_profile", "fig1_avf_profil"])
        assert "unknown artefacts ['fig1_avf_profil']" in str(exc.value)
        assert "fig8_fairness" in str(exc.value)  # lists valid names
        assert not (tmp_path / "out").exists()


class TestLiveArtefactCache:
    """The live-injection artefacts keep their strike batches in the
    result cache's directory: a rerun on a warm cache strikes nothing."""

    @pytest.mark.parametrize("module,knob,run,campaign", [
        (validate_injection, "VALIDATION_INJECTIONS",
         validate_injection.run_injection_validation, lambda r: r),
        (protection_frontier, "FRONTIER_INJECTIONS",
         protection_frontier.run_protection_frontier,
         lambda r: r.validation.campaign),
    ], ids=["injection_validation", "protection_frontier"])
    def test_rerun_on_warm_cache_executes_no_batch(self, tmp_path,
                                                   monkeypatch, module,
                                                   knob, run, campaign):
        monkeypatch.setattr(module, knob, 3)
        first = campaign(run(TINY, ResultCache(cache_dir=tmp_path)))
        second = campaign(run(TINY, ResultCache(cache_dir=tmp_path)))
        assert first.batches_executed > 0
        assert second.batches_executed == 0
        assert second.batches_cached == first.batches_executed
        assert second.summary() == first.summary()
