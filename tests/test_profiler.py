"""The zero-dep sampling profiler: capture, exports, overhead gate.

The overhead test is the contract the ISSUE pins: profiling at the
default rate must cost **under 5%** wall clock on a CPU-bound
workload.  Timing tests are noisy on shared CI, so the gate takes the
best of three runs — real systematic overhead survives a min, noise
does not.
"""

from __future__ import annotations

import json
import time

from repro.obs import STAGE_FUNCTIONS, SamplingProfiler


def _spin(seconds: float) -> int:
    """A CPU-bound leaf the sampler should catch red-handed."""
    total = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        total += sum(range(200))
    return total


def _stage_ring(seconds: float) -> int:
    """Named like the synthesis ring stage so attribution maps it."""
    return _spin(seconds)


class TestCapture:
    def test_sampler_sees_the_busy_function(self):
        with SamplingProfiler(hz=200.0) as profiler:
            _spin(0.25)
        assert profiler.sample_count >= 10
        assert profiler.elapsed_s >= 0.2
        top = dict(profiler.top_functions(10))
        assert any(name.endswith(":_spin") for name in top)

    def test_stop_is_idempotent(self):
        profiler = SamplingProfiler(hz=100.0).start()
        _spin(0.05)
        profiler.stop()
        samples = profiler.sample_count
        profiler.stop()
        assert profiler.sample_count == samples

    def test_stage_attribution_maps_known_functions(self):
        assert "_stage_ring" in STAGE_FUNCTIONS  # the mapping contract
        with SamplingProfiler(hz=200.0) as profiler:
            _stage_ring(0.25)
        attribution = profiler.stage_attribution()
        assert attribution["samples"] == profiler.sample_count
        ring = attribution["stages"].get("ring")
        assert ring is not None and ring["fraction"] > 0.5

    def test_stage_functions_name_the_synthesizer_stages(self):
        # The profiler attributes samples by frame name, so every key
        # must be a real stage method and every stage must be mapped.
        from repro.core.synthesizer import SynthesisOptions, XRingSynthesizer
        from repro.network import Network
        from repro.network.placement import psion_placement

        for name in STAGE_FUNCTIONS:
            assert callable(getattr(XRingSynthesizer, name, None)), name
        points, die = psion_placement(8)
        design = XRingSynthesizer(
            Network.from_positions(points, die=die), SynthesisOptions()
        ).run()
        assert set(STAGE_FUNCTIONS.values()) == {
            record.name for record in design.report.stages
        }

    def test_collapsed_export_shape(self):
        with SamplingProfiler(hz=200.0) as profiler:
            _spin(0.15)
        collapsed = profiler.to_collapsed()
        lines = [line for line in collapsed.splitlines() if line]
        assert lines
        for line in lines:
            stack, _, weight = line.rpartition(" ")
            assert stack and float(weight) > 0
        assert any(":_spin" in line for line in lines)

    def test_speedscope_export_shape(self):
        with SamplingProfiler(hz=200.0) as profiler:
            _spin(0.15)
        doc = profiler.to_speedscope(name="unit")
        assert doc["$schema"].endswith("file-format-schema.json")
        assert doc["profiles"][0]["type"] == "sampled"
        profile = doc["profiles"][0]
        assert len(profile["samples"]) == len(profile["weights"])
        frame_count = len(doc["shared"]["frames"])
        for stack in profile["samples"]:
            assert all(0 <= idx < frame_count for idx in stack)
        json.dumps(doc)  # must be serializable as-is

    def test_write_emits_all_three_artifacts(self, tmp_path):
        with SamplingProfiler(hz=200.0) as profiler:
            _spin(0.1)
        paths = profiler.write(tmp_path, name="p")
        names = sorted(p.name for p in paths)
        assert names == ["p.collapsed", "p.json", "p.speedscope.json"]
        summary = json.loads((tmp_path / "p.json").read_text())
        assert summary["samples"] == profiler.sample_count
        assert "stages" in summary


def _fixed_work(rounds: int) -> int:
    """A fixed amount of CPU work (not deadline-based, so wall time
    actually reflects any sampling overhead)."""
    total = 0
    for i in range(rounds):
        total += sum(range(300)) + i
    return total


class TestOverheadGate:
    def test_default_rate_overhead_under_5_percent(self):
        """Best interleaved bare/profiled pair stays under the bound.

        A shared-CI box (and the rest of this suite) injects scheduler
        noise an order of magnitude larger than the sampler's real tax,
        so a single back-to-back comparison is flaky.  Interleaving the
        arms and gating on the *best* pair is robust: one clean pair is
        enough to demonstrate the <5% bound holds, while a genuinely
        expensive sampler loop fails every pair.
        """
        # Size the workload to ~0.3-0.5s so dozens of samples land.
        rounds = 120_000

        def run(profiled: bool) -> float:
            start = time.perf_counter()
            if profiled:
                with SamplingProfiler():
                    _fixed_work(rounds)
            else:
                _fixed_work(rounds)
            return time.perf_counter() - start

        run(False)  # warm the timers before measuring
        overheads = []
        for _ in range(4):
            bare = run(False)
            profiled = run(True)
            overheads.append(profiled / bare - 1.0)
            if min(overheads) < 0.05:
                break  # a clean pair proves the bound; stop burning time
        overhead = min(overheads)
        assert overhead < 0.05, (
            f"profiler overhead {overhead:.1%} >= 5% on every "
            f"interleaved pair: {[f'{o:.1%}' for o in overheads]}"
        )
