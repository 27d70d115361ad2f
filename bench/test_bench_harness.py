"""Tests of the benchmark's own parts: the workload config generator, the
tracer's self-time accounting and the calibration rescaling."""

import json
import os
import types

import pytest

import layers
import workloads
from sddeimpulse.cli import _COMMANDS, RunConfig
from tracing import PARENT, Tracer, patched, self_times

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "configs")


class TestWorkloadGenerator:
    @pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
    def test_config_is_valid_and_seeded(self, name):
        raw, cfg = workloads.make_config(name, 7, CONFIGS)
        assert isinstance(cfg, RunConfig)
        ev, sample = workloads.derived_seeds(7)
        assert cfg.seed == ev and cfg.sample_seed == sample
        for section, key, value in workloads.WORKLOADS[name].overrides:
            assert raw[section][key] == value
        assert set(workloads.WORKLOADS[name].commands) <= set(_COMMANDS)

    def test_same_seed_same_config(self):
        a, ca = workloads.make_config("grid-reduced", 3, CONFIGS)
        b, cb = workloads.make_config("grid-reduced", 3, CONFIGS)
        assert a == b and ca.config_hash() == cb.config_hash()
        _, cc = workloads.make_config("grid-reduced", 4, CONFIGS)
        assert cc.config_hash() != ca.config_hash()

    def test_evaluation_and_sample_streams_differ(self):
        for seed in range(50):
            ev, sample = workloads.derived_seeds(seed)
            assert ev != sample

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            workloads.derived_seeds(-1)


def span(name, start, end, parent=-1):
    return [name, start, end, parent, None]


class TestSelfTime:
    def test_parent_minus_nested_children(self):
        spans = [span("parent", 0.0, 10.0),
                 span("a", 1.0, 3.0, 0),
                 span("b", 4.0, 6.0, 0),
                 span("b.inner", 4.5, 5.5, 2)]
        assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])

    def test_overlapping_children_counted_once(self):
        spans = [span("parent", 0.0, 10.0),
                 span("a", 1.0, 4.0, 0),
                 span("b", 3.0, 6.0, 0),
                 span("c", 9.0, 12.0, 0)]
        # covered: [1, 6] and [9, 10], the part of c outside the parent is ignored
        assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)

    def test_tracer_nesting_with_fake_clock(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        inner = tracer.wrap(lambda x: x + 1, "inner")
        outer = tracer.wrap(lambda x: inner(x) * 2, "outer",
                            attrs=lambda args, kwargs, result: {"rows": result})
        assert outer(1) == 4
        names = [s[0] for s in tracer.spans]
        assert names == ["outer", "inner"]
        assert [s[PARENT] for s in tracer.spans] == [-1, 0]
        # outer spans ticks 0..3, inner 1..2
        assert self_times(tracer.spans) == [2.0, 1.0]
        assert tracer.spans[0][4] == {"rows": 4}


class TestPatched:
    def test_functions_and_classmethods_restored(self):
        class Owner:
            @classmethod
            def make(cls, x):
                return (cls, x)

        mod = types.SimpleNamespace(f=lambda x: x * 3)
        original_f = mod.f
        tracer = Tracer()
        targets = ((mod, "f", "mod.f", None), (Owner, "make", "Owner.make", None))
        with patched(tracer, targets):
            assert mod.f(2) == 6
            assert Owner.make(5) == (Owner, 5)
        assert [s[0] for s in tracer.spans] == ["mod.f", "Owner.make"]
        assert mod.f is original_f
        assert isinstance(vars(Owner)["make"], classmethod)
        Owner.make(1)
        assert len(tracer.spans) == 2

    def test_layer_metrics_cover_the_traced_names(self):
        spans = [span("cli.command.solve", 0.0, 10.0),
                 span("bellman.k_value_iteration", 1.0, 9.0, 0),
                 span("bellman.impulse_max", 2.0, 5.0, 1),
                 span("bellman.multilinear_interp", 3.0, 4.0, 2)]
        spans[2][4] = {"rows": 7}
        spans[3][4] = {"rows": 7}
        m = layers.layer_metrics(spans)
        assert m["bellman.impulse_max.calls"] == 1
        assert m["bellman.impulse_max.rows"] == 7
        assert m["bellman.impulse_max.self_s"] == pytest.approx(2.0)
        assert m["bellman.k_value_iteration.s"] == pytest.approx(8.0)
        assert m["bellman.k_value_iteration.self_s"] == pytest.approx(5.0)
        assert m["cli.command_self_s"] == pytest.approx(2.0)
        assert m["bellman.design_matrix.calls"] == 0
        added_by_caller = {"cli.artifact_bytes", "trace.overhead_ratio",
                           "trust.invariant_violations", "trust.value_gap",
                           "trust.policy_gain"}
        assert set(m) | added_by_caller == set(layers.UNITS)


def test_benchmark_json_matches_the_harness():
    path = os.path.join(os.path.dirname(CONFIGS), "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {n: w.why for n, w in workloads.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "workload_s",
                                                       "peak_rss_mb"}


def test_normalized_divides_each_step_by_its_adjacent_calibrations():
    import harness
    ref = harness.CAL_REF_S
    # step 0 ran between calibrations of 0.1 s and 0.3 s, step 1 between
    # 0.3 s and 0.3 s
    got = harness.normalized([2.0, 1.0], [0.1, 0.3, 0.3])
    assert got == pytest.approx(2.0 * ref / 0.2 + 1.0 * ref / 0.3)
    assert harness.normalized([1.5], [ref, ref]) == pytest.approx(1.5)
