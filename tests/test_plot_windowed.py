"""Tests for ASCII plotting and the windowed (rolling) KRR model."""

import numpy as np
import pytest

from repro.analysis.plot import ascii_plot, sparkline
from repro.core.windowed import WindowedKRRModel
from repro.mrc import MissRatioCurve
from repro.workloads import Trace, patterns
from repro.workloads.zipf import ScrambledZipfGenerator


def _curve(label="c"):
    return MissRatioCurve(
        np.array([1.0, 50.0, 100.0]), np.array([0.9, 0.4, 0.1]), label=label
    )


class TestAsciiPlot:
    def test_dimensions(self):
        out = ascii_plot([_curve()], width=40, height=10)
        lines = out.splitlines()
        # height rows + axis + x labels + legend
        assert len(lines) == 10 + 3
        assert all(len(l) <= 40 + 8 for l in lines[:10])

    def test_markers_present(self):
        out = ascii_plot([_curve("a"), _curve("b")], width=30, height=8)
        assert "*" in out and "o" in out

    def test_legend_labels(self):
        out = ascii_plot([_curve("my-model")])
        assert "my-model" in out

    def test_monotone_curve_descends(self):
        """A decreasing MRC's markers must not ascend left to right."""
        out = ascii_plot([_curve()], width=30, height=12)
        rows = out.splitlines()[:12]
        marker_rows = []
        for col in range(6, 6 + 30):
            for r, row in enumerate(rows):
                if col < len(row) and row[col] == "*":
                    marker_rows.append(r)
                    break
        assert marker_rows == sorted(marker_rows)

    def test_validation(self):
        with pytest.raises(ValueError):
            ascii_plot([])
        with pytest.raises(ValueError):
            ascii_plot([_curve()], width=4)


class TestSparkline:
    def test_length_matches_input(self):
        assert len(sparkline([0.1, 0.5, 0.9])) == 3

    def test_extremes(self):
        s = sparkline([0.0, 1.0])
        assert s[0] == "▁" and s[1] == "█"

    def test_empty(self):
        assert sparkline([]) == ""


class TestWindowedModel:
    def test_rotation_counting(self):
        model = WindowedKRRModel(k=2, window=1_000, seed=0)
        for key in range(2_500):
            model.access(key % 100)
        assert model.rotations == 5
        assert model.coverage <= 1_000

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowedKRRModel(window=0)

    def test_tracks_phase_change_faster_than_unwindowed(self):
        """After a working-set shift the windowed model's curve reflects
        the new phase while a lifetime model still averages both."""
        from repro import KRRModel

        phase1 = patterns.hotspot(200, 60_000, 0.2, 0.95, rng=1)
        phase2 = patterns.hotspot(4_000, 60_000, 0.9, 0.95, key_offset=10_000, rng=2)
        trace = Trace(patterns.mix_phases([phase1, phase2]))

        windowed = WindowedKRRModel(k=4, window=30_000, seed=3)
        lifetime = KRRModel(k=4, seed=3)
        windowed.access_many(trace.keys)
        lifetime.process(trace)

        # Ground truth for the *current* phase only.
        recent = Trace(trace.keys[-30_000:])
        from repro.simulator import klru_mrc

        truth = klru_mrc(recent, 4, n_points=6, rng=4)
        from repro.mrc import mean_absolute_error

        err_windowed = mean_absolute_error(truth, windowed.mrc())
        err_lifetime = mean_absolute_error(truth, lifetime.mrc())
        assert err_windowed < err_lifetime

    def test_no_gap_at_rotation(self):
        """Immediately after rotation the promoted model already holds half
        a window of history (the two-generation property)."""
        model = WindowedKRRModel(k=2, window=2_000, seed=5)
        gen = ScrambledZipfGenerator(300, 1.0, rng=6)
        for key in gen.sample(3_000):
            model.access(int(key))
        assert model.rotations >= 2
        assert model._current.stats.requests_seen >= 1_000
