"""Tests for the experiment harness at the tiny preset.

These run every table/figure end to end (cached artifacts keep it fast)
and assert the paper's qualitative findings hold at test scale.
"""

import pytest

from repro import storage
from repro.experiments import (
    empty_vs_aged,
    fig1,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    lfs_compare,
    rotdelay,
    table1,
    table2,
)
from repro.experiments.config import (
    PRESETS,
    aged,
    aged_fs_copy,
    artifacts,
    clear_caches,
    get_preset,
)
from repro.experiments.runner import EXPERIMENTS, run_all, run_one
from repro.units import KB

PRESET = "tiny"


class TestConfig:
    def test_presets_exist(self):
        assert {"tiny", "small", "paper"} <= set(PRESETS)

    def test_paper_preset_matches_table1(self):
        p = get_preset("paper")
        assert p.params.ncg == 27
        assert p.params.block_size == 8 * KB
        assert p.days == 300

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            get_preset("huge")

    def test_artifacts_cached(self):
        assert artifacts(PRESET) is artifacts(PRESET)

    def test_aged_cached_per_policy(self):
        assert aged(PRESET, "ffs") is aged(PRESET, "ffs")
        assert aged(PRESET, "ffs") is not aged(PRESET, "realloc")

    def test_fs_copy_is_private(self):
        a = aged_fs_copy(PRESET, "ffs")
        b = aged_fs_copy(PRESET, "ffs")
        assert a is not b
        assert a is not aged(PRESET, "ffs").fs

    @pytest.mark.parametrize(
        "module", [fig4, empty_vs_aged, lfs_compare, rotdelay],
        ids=lambda m: m.__name__.rsplit(".", 1)[-1],
    )
    def test_memos_are_per_backend(self, module):
        # A run memoized on disk must not be served under ssd: the
        # memoized result has to equal a fresh run on the active backend.
        clear_caches()
        try:
            on_disk = module.run(PRESET)
            with storage.using_backend("ssd"):
                memoized = module.run(PRESET)
                clear_caches()
                fresh = module.run(PRESET)
            assert memoized == fresh
            assert module.run(PRESET) == on_disk
        finally:
            clear_caches()


class TestTable1:
    def test_renders_paper_parameters(self):
        out = table1.run("paper").render()
        assert "8 KB" in out
        assert "56 KB" in out
        assert "5411 RPM" in out
        assert "27" in out


class TestFig1:
    def test_simulated_at_or_above_real(self):
        result = fig1.run(PRESET)
        assert result.final_gap >= -0.02  # simulated >= real (noise margin)

    def test_both_curves_decline(self):
        result = fig1.run(PRESET)
        assert result.real.final_score() < result.real.first_day_score()
        assert (
            result.simulated.final_score()
            < result.simulated.first_day_score()
        )

    def test_render(self):
        out = fig1.run(PRESET).render()
        assert "Real" in out and "Simulated" in out


class TestFig2:
    def test_realloc_wins_and_gap_grows(self):
        result = fig2.run(PRESET)
        assert result.final_gap > 0
        assert result.final_gap >= result.first_day_gap - 0.02

    def test_realloc_above_ffs_every_sampled_day(self):
        result = fig2.run(PRESET)
        for f, r in zip(result.ffs.scores(), result.realloc.scores()):
            assert r >= f - 0.02

    def test_fragmentation_improvement_positive(self):
        assert fig2.run(PRESET).fragmentation_improvement > 0.1

    def test_render_mentions_paper_numbers(self):
        out = fig2.run(PRESET).render()
        assert "0.899 vs 0.766" in out


class TestFig3:
    def test_realloc_at_or_above_ffs_in_populated_bins(self):
        result = fig3.run(PRESET)
        wins = losses = 0
        for b in result.bins:
            f, r = result.ffs[b], result.realloc[b]
            if f is None or r is None:
                continue
            if r >= f - 0.05:
                wins += 1
            else:
                losses += 1
        assert wins > losses

    def test_two_block_quirk_visible(self):
        """Two-chunk files score below 3-chunk files under realloc."""
        result = fig3.run(PRESET)
        two = result.realloc_by_chunks.get(2)
        three = result.realloc_by_chunks.get(3)
        if two is not None and three is not None:
            assert two <= three + 0.05

    def test_render(self):
        assert "Figure 3" in fig3.run(PRESET).render()


class TestFig4:
    def test_series_complete(self):
        result = fig4.run(PRESET)
        for policy in ("ffs", "realloc"):
            assert len(result.read_series(policy)) == len(result.sizes)

    def test_raw_read_above_fs_reads(self):
        result = fig4.run(PRESET)
        assert result.raw_read > max(result.read_series("ffs"))

    def test_indirect_dip_present(self):
        result = fig4.run(PRESET)
        if 96 * KB in result.sizes and 104 * KB in result.sizes:
            for policy in ("ffs", "realloc"):
                r96 = result.results[policy][96 * KB].read_throughput.mean
                r104 = result.results[policy][104 * KB].read_throughput.mean
                assert r104 < r96

    def test_render(self):
        out = fig4.run(PRESET).render()
        assert "Sequential Read Performance" in out
        assert "Raw Read" in out


class TestFig5:
    def test_realloc_perfect_small_files(self):
        result = fig5.run(PRESET)
        assert result.realloc[16 * KB] == pytest.approx(1.0, abs=0.05)

    def test_realloc_at_least_ffs_below_cluster_size(self):
        result = fig5.run(PRESET)
        for size in result.sizes:
            if size <= 56 * KB and result.ffs[size] is not None:
                assert result.realloc[size] >= result.ffs[size] - 0.05


class TestTable2:
    def test_direction_of_improvements(self):
        result = table2.run(PRESET)
        assert result.read_improvement > 0
        assert result.write_improvement > -0.05
        assert (
            result.results["realloc"].layout_score
            > result.results["ffs"].layout_score
        )

    def test_hot_set_fraction_sane(self):
        # At the tiny preset the window is only two days, so the hot set
        # is small; it must still be a non-empty strict subset.
        result = table2.run(PRESET)
        assert 0.0 < result.results["ffs"].fraction_of_files < 0.8

    def test_render(self):
        out = table2.run(PRESET).render()
        assert "Table 2" in out and "MB/sec" in out


class TestFig6:
    def test_hot_realloc_tracks_sequential_realloc(self):
        result = fig6.run(PRESET)
        diffs = []
        for b in result.bins:
            hot = result.hot_realloc.get(b)
            if hot is None:
                continue
            seq = result.seq.realloc.get(b)
            if seq is None:
                continue
            diffs.append(abs(hot - seq))
        if diffs:
            assert min(diffs) < 0.35

    def test_render(self):
        assert "Figure 6" in fig6.run(PRESET).render()


class TestRunner:
    def test_registry_complete(self):
        assert list(EXPERIMENTS) == [
            "table1", "fig1", "fig2", "fig3", "fig4", "fig5", "table2", "fig6",
            "empty-vs-aged", "rotdelay", "lfs",
        ]

    def test_run_one_unknown(self):
        with pytest.raises(ValueError):
            run_one("fig9", PRESET)

    def test_run_all_returns_everything(self):
        results = run_all(PRESET)
        assert [name for name, _r in results] == list(EXPERIMENTS)


class TestEmptyVsAged:
    def test_aging_costs_throughput(self):
        from repro.experiments import empty_vs_aged

        result = empty_vs_aged.run(PRESET)
        assert result.mean_degradation("ffs") > 0.0
        assert result.mean_degradation("realloc") > -0.05

    def test_realloc_loses_less_to_aging(self):
        from repro.experiments import empty_vs_aged

        result = empty_vs_aged.run(PRESET)
        assert (
            result.mean_degradation("realloc")
            <= result.mean_degradation("ffs") + 0.03
        )

    def test_render(self):
        from repro.experiments import empty_vs_aged

        out = empty_vs_aged.run(PRESET).render()
        assert "aging penalty" in out


class TestRotdelay:
    def test_modern_disk_wants_zero_gap(self):
        from repro.experiments import rotdelay

        result = rotdelay.run(PRESET)
        assert result.winner("1996") == 0

    def test_vintage_disk_wants_a_gap(self):
        from repro.experiments import rotdelay

        result = rotdelay.run(PRESET)
        assert result.winner("1985") > 0

    def test_render(self):
        from repro.experiments import rotdelay

        out = rotdelay.run(PRESET).render()
        assert "1985" in out and "1996" in out
