"""Smoke and shape tests for the table harnesses.

These run the real experiment code on reduced sweeps so the full table
generation stays in ``benchmarks/``, while the shape claims the paper
makes are still asserted here.
"""

import pytest

from repro.experiments import (
    best_setting,
    format_table1,
    format_table2,
    format_table3,
    run_shortcut_ablation,
    run_table1,
    run_table2,
    run_table3,
    run_wavelength_sweep,
    sweep_ring_router,
)
from repro.core.synthesizer import XRingSynthesizer
from repro.experiments.ablations import format_ablation
from repro.obs import canonical_json
from repro.parallel import BatchSynthesizer


@pytest.fixture(scope="module")
def table1_rows():
    return run_table1(8, budgets=[8])


@pytest.fixture(scope="module")
def table2_blocks():
    return run_table2(sizes=(8,), budgets={8: [6, 8]})


@pytest.fixture(scope="module")
def table3_blocks():
    return run_table3(budgets=[16])


class TestTable1:
    def test_row_count_and_labels(self, table1_rows):
        assert [r.tool for r in table1_rows] == [
            "Proton+",
            "PlanarONoC",
            "ToPro",
            "Ornoc",
            "Oring",
            "Xring",
        ]

    def test_crossbars_worse_than_rings(self, table1_rows):
        crossbars = table1_rows[:3]
        rings = table1_rows[3:]
        assert min(c.il_w for c in crossbars) > max(r.il_w for r in rings)

    def test_rings_no_crossings(self, table1_rows):
        for row in table1_rows[3:]:
            assert row.crossings == 0

    def test_headline_reduction(self, table1_rows):
        """XRing cuts worst-case il by > 40% vs the crossbar tools."""
        xring = table1_rows[-1]
        best_crossbar = min(r.il_w for r in table1_rows[:3])
        assert xring.il_w < 0.6 * best_crossbar

    def test_format(self, table1_rows):
        text = format_table1(table1_rows)
        assert "il_w" in text and "Proton+" in text


class TestTable2:
    def test_block_structure(self, table2_blocks):
        assert [b.objective for b in table2_blocks] == ["power", "snr"]

    def test_xring_beats_ornoc(self, table2_blocks):
        for block in table2_blocks:
            # At 8 nodes the paper reports power parity (0.04 W both);
            # XRing must stay within a whisker and win decisively on
            # noise.
            assert block.xring.power_w <= 1.15 * block.ornoc.power_w
            assert block.xring.noisy < block.ornoc.noisy

    def test_xring_mostly_noise_free(self, table2_blocks):
        for block in table2_blocks:
            fraction = 1 - block.xring.noisy / block.xring.signal_count
            assert fraction > 0.98

    def test_format(self, table2_blocks):
        text = format_table2(table2_blocks)
        assert "SNR_w" in text and "ORNoC" in text


class TestTable3:
    def test_xring_beats_oring(self, table3_blocks):
        for block in table3_blocks:
            assert block.xring.power_w < block.oring.power_w
            assert block.xring.noisy < block.oring.noisy

    def test_oring_mostly_noisy(self, table3_blocks):
        for block in table3_blocks:
            assert block.oring.noisy / block.oring.signal_count > 0.5

    def test_format(self, table3_blocks):
        text = format_table3(table3_blocks)
        assert "ORing" in text and "XRing" in text


class TestSweepsAndAblations:
    def test_best_setting_objectives(self, network8, tour8):
        rows = sweep_ring_router(network8, "xring", [6, 8], tour=tour8)
        power_best = best_setting(rows, "power")
        snr_best = best_setting(rows, "snr")
        il_best = best_setting(rows, "il")
        assert power_best.power_w == min(r.power_w for _, r in rows)
        assert il_best.il_w == min(r.il_w for _, r in rows)
        assert snr_best is not None

    def test_best_setting_validation(self, network8, tour8):
        rows = sweep_ring_router(network8, "xring", [8], tour=tour8)
        with pytest.raises(ValueError):
            best_setting(rows, "bogus")
        with pytest.raises(ValueError):
            best_setting([], "power")

    def test_unknown_router_kind(self, network8):
        with pytest.raises(ValueError):
            sweep_ring_router(network8, "bogus", [8])

    def test_shortcut_ablation(self, tour16):
        rows = run_shortcut_ablation(16, wl_budget=16, tour=tour16)
        variants = {r.variant: r.row for r in rows}
        assert set(variants) == {"full", "no-shortcuts", "no-openings", "bare"}
        # Removing the internal PDN (openings) must hurt noise.
        assert variants["no-openings"].noisy > variants["full"].noisy
        text = format_ablation(rows)
        assert "no-shortcuts" in text

    def test_ablation_shares_one_step1_solve(self, monkeypatch):
        """Without a ``tour``, the four variants share the batch
        parent's one ring MILP solve, and every design equals an
        independent run of its variant byte for byte."""
        runs = []
        original = BatchSynthesizer.run

        def recording_run(self, cases, **kwargs):
            report = original(self, cases, **kwargs)
            runs.append((list(cases), report))
            return report

        monkeypatch.setattr(BatchSynthesizer, "run", recording_run)
        rows = run_shortcut_ablation(8)
        assert len(rows) == 4
        ((cases, report),) = runs
        counters = report.metrics.snapshot()["counters"]
        assert counters.get("milp.solves.optimal") == 1
        for case, design in zip(cases, report.designs):
            assert case.tour is None
            serial = XRingSynthesizer(case.network, case.options).run()
            assert canonical_json(design.to_dict()) == canonical_json(
                serial.to_dict()
            )

    def test_wavelength_sweep_runs(self):
        rows = run_wavelength_sweep(8, budgets=[6, 8])
        assert len(rows) == 2
        assert all(row.power_w > 0 for _, row in rows)
