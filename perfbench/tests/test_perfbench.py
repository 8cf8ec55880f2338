"""Tests of the benchmark's own code: spans, percentiles, wrapping hygiene.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import statistics
import time

import numpy as np
import pytest

import netforms as nf
import run
import workloads
from spans import Recorder, instrumented, wrapped_attributes


def _clock(times):
    it = iter(times)
    return lambda: next(it)


class TestSpans:
    def test_self_time_is_duration_minus_direct_children(self):
        # parent [0, 10] with children a [1, 3] and b [4, 8]; b has child c [5, 6]
        rec = Recorder(clock=_clock([0, 1, 3, 4, 5, 6, 8, 10]))
        rec.enter("x.parent", "x")
        rec.enter("x.a", "x")
        assert rec.exit() == 2
        rec.enter("y.b", "y")
        rec.enter("z.c", "z")
        rec.exit()
        rec.exit()
        assert rec.exit() == 10
        assert rec.self_s("x.parent") == 10 - 2 - 4
        assert rec.self_s("x.a") == 2
        assert rec.self_s("y.b") == 4 - 1
        assert rec.self_s("z.c") == 1
        assert rec.layer_totals("x") == (2, 6)
        total_self = sum(s for _, _, s in rec.stats.values())
        assert total_self == 10  # self times partition the root span

    def test_repeated_spans_aggregate(self):
        rec = Recorder(clock=_clock([0, 1, 1, 4]))
        for _ in range(2):
            with rec.span("x.f", "x"):
                pass
        assert rec.calls("x.f") == 2
        assert rec.stats["x.f"] == [2, 4, 4]

    def test_cross_layer_calls_become_child_spans(self):
        rec = Recorder()
        seq = nf.build_dyadic_interval(3)
        with instrumented(rec):
            with rec.span("bench.pass", "bench"):
                report = nf.check_compatibility(seq)
        assert report.ok
        assert rec.calls("sequences.check_compatibility") == 1
        assert rec.calls("trace.trace") == 3
        # levels 1..3 eliminate 1 + 2 + 4 interior vertices
        assert rec.counters["trace.interior_n"] == 7
        assert rec.counters["sequences.levels_checked"] == 3
        # each of the 4 forms is assembled once; check asks for 6 + 3 forms
        assert rec.counters["sequences.form_assemblies"] == 4
        assert rec.counters["sequences.form_requests"] == 9
        root = rec.stats["bench.pass"][1]
        total_self = sum(s for _, _, s in rec.stats.values())
        assert total_self == pytest.approx(root, rel=1e-9)
        assert rec.stats["sequences.check_compatibility"][2] < rec.stats["sequences.check_compatibility"][1]

    def test_documented_error_counted_once_per_layer(self):
        A = nf.assemble(nf.Network(4, [(0, 1, 1.0), (2, 3, 1.0)]))
        rec = Recorder()
        with instrumented(rec):
            with pytest.raises(nf.SingularBlockError):
                nf.trace(A, [0])
            with pytest.raises(nf.InfiniteResistanceError):
                nf.effective_resistance(A, 0, 2)
        assert rec.counters["trace.documented_errors"] == 2


class TestPercentiles:
    def test_matches_linear_interpolation(self):
        xs = list(range(1, 11))
        assert run.percentile(xs, 50) == 5.5
        assert run.percentile(xs, 90) == pytest.approx(9.1)
        assert run.percentile(reversed(xs), 0) == 1
        assert run.percentile(xs, 100) == 10
        assert run.percentile(xs, 50) == statistics.median(xs)
        assert run.percentile(xs, 90) == pytest.approx(float(np.percentile(xs, 90)))

    def test_single_sample_and_empty(self):
        assert run.percentile([3.0], 90) == 3.0
        with pytest.raises(ValueError):
            run.percentile([], 50)

    def test_summary_states_samples_and_needs_ten_beyond_p90(self):
        few = run.latency_summary([0.001] * 99)
        assert few["samples"] == 99 and "op_p90_ms" not in few
        assert few["op_p50_ms"] == pytest.approx(1.0)
        many = run.latency_summary([i / 1000 for i in range(1, 101)])
        assert many["samples"] == 100
        assert many["op_p50_ms"] == pytest.approx(50.5)
        assert many["op_p90_ms"] == pytest.approx(90.1)


class TestTimedLoop:
    def test_laps_are_contiguous(self):
        laps = run.Laps(clock=_clock([0, 1, 4, 4.5]))
        laps("a")
        laps("b")
        laps("c")
        assert laps.times == {"a": 1, "b": 3, "c": 0.5}

    def test_runs_until_pass_walls_reach_seconds_and_skips_before_pass_time(self):
        seen = []

        def one_pass(inputs, lap):
            time.sleep(0.01)
            lap("only")
            return workloads.PassResult(ops=2, failed=0, digest="d")

        def before_pass(loop_s):
            seen.append(loop_s)
            time.sleep(0.05)

        out = run.run_passes(one_pass, None, 2, 0.045, 3, before_pass=before_pass)
        walls = [w for w, _, _ in out]
        assert len(out) >= 3 and sum(walls[:-1]) < 0.045 <= sum(walls)
        assert all(w < 0.05 for w in walls)
        assert seen == pytest.approx([sum(walls[:i]) for i in range(len(out))])

    def test_a_raising_pass_fails_all_its_ops(self):
        def bad_pass(inputs, lap):
            raise RuntimeError("boom")

        out = run.run_passes(bad_pass, None, 7, 0, 2)
        assert [(r.ops, r.failed, r.digest) for *_, r in out] == [(7, 7, "error")] * 2

    def test_reference_loop_gives_one_sample_per_rep(self):
        samples = run.time_reference(2)
        assert len(samples) == 2 and all(s > 0 for s in samples)


class TestWrappingHygiene:
    def _snapshot(self):
        return [(ns, attr, fn) for ns, attr, fn, _, _ in wrapped_attributes()]

    def test_targets_cover_every_layer_and_cross_module_imports(self):
        targets = wrapped_attributes()
        layers = {layer for *_, layer, _ in targets}
        assert layers == {"network", "trace", "beurling_deny", "sequences", "gelfand", "energy", "simulate"}
        where = {(getattr(ns, "__name__", None), attr) for ns, attr, *_ in targets}
        assert ("netforms.sequences", "trace") in where
        assert ("netforms", "trace") in where
        assert ("netforms.simulate", "components") in where

    def test_untraced_pass_leaves_library_untouched(self):
        before = self._snapshot()
        inputs = workloads.setup_forms(0)[:20]
        res = workloads.run_forms(inputs, lap=lambda key: None)
        assert res.failed == 0
        for ns, attr, fn in before:
            assert getattr(ns, attr) is fn
            assert not hasattr(fn, "__wrapped__")

    def test_traced_block_restores_originals(self):
        before = self._snapshot()
        rec = Recorder()
        with instrumented(rec):
            assert all(getattr(ns, attr) is not fn for ns, attr, fn in before)
            workloads.run_forms(workloads.setup_forms(0)[:5], lap=lambda key: None)
        for ns, attr, fn in before:
            assert getattr(ns, attr) is fn
        assert rec.calls("network.assemble") == 5

    def test_restores_after_an_exception(self):
        before = self._snapshot()
        with pytest.raises(RuntimeError):
            with instrumented(Recorder()):
                raise RuntimeError("boom")
        for ns, attr, fn in before:
            assert getattr(ns, attr) is fn


def test_untraced_and_traced_outputs_agree():
    inputs = workloads.setup_forms(5)[:40]
    plain = workloads.run_forms(inputs, lap=lambda key: None)
    with instrumented(Recorder()):
        traced = workloads.run_forms(inputs, lap=lambda key: None)
    assert plain.digest == traced.digest
    assert plain.failed == traced.failed == 0


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "forms", "--seed", "1"]) == 2
    assert capsys.readouterr().out == ""
