"""Tests for the saturation-bisection harness.

The bracket-semantics regression tests pin the fix for the early-exit
branches: every endpoint of a returned :class:`SaturationEstimate` must
have been *probed*, never assumed.  The obs-trace test pins the
one-compile-per-bracket contract the ``saturation_throughput``
docstring promises.
"""

import pytest

from repro import obs
from repro.routing import IVAL, VAL, DimensionOrderRouting
from repro.sim import (
    latency_load_curve,
    saturation_throughput,
    saturation_throughput_batch,
    simulate,
)
from repro.sim.measure import SaturationEstimate
from repro.topology import Torus
from repro.traffic import tornado, transpose, uniform


class TestSaturationEstimate:
    def test_midpoint(self):
        est = SaturationEstimate(lower=0.4, upper=0.6)
        assert est.midpoint == pytest.approx(0.5)


class TestBisection:
    def test_bracket_ordering(self, dor4, tornado4):
        est = saturation_throughput(
            dor4, tornado4, iterations=3, cycles=1200, warmup=400
        )
        assert 0.0 <= est.lower <= est.upper <= 1.0

    def test_backends_bisect_identically(self, dor4, tornado4):
        kwargs = dict(iterations=3, cycles=1000, warmup=300, seed=9)
        vec = saturation_throughput(dor4, tornado4, backend="vectorized", **kwargs)
        ref = saturation_throughput(dor4, tornado4, backend="reference", **kwargs)
        assert vec == ref

    def test_invalid_bounds_and_probe_counts_rejected(self, dor4, tornado4):
        with pytest.raises(ValueError, match="lo"):
            saturation_throughput(dor4, tornado4, lo=0.6, hi=0.5)
        with pytest.raises(ValueError, match="probes_per_launch"):
            saturation_throughput(dor4, tornado4, probes_per_launch=0)
        with pytest.raises(ValueError, match="seeds"):
            saturation_throughput(dor4, tornado4, seeds=())


class TestBracketSemantics:
    """Both early-exit branches must return *probed* endpoints."""

    def test_unstable_at_floor_probes_below_lo(self):
        # DOR under 8-ary tornado saturates at 1/3, so a floor of 0.5 is
        # already unstable.  The fixed prober re-anchors at a probed
        # rate-0 run and refines inside [0, lo] — the buggy early exit
        # returned (0.0, 0.5) with neither endpoint ever simulated.
        t8 = Torus(8, 2)
        dor = DimensionOrderRouting(t8)
        est = saturation_throughput(
            dor, tornado(t8), lo=0.5, hi=1.0, iterations=1,
            cycles=1500, warmup=500,
        )
        assert 0.0 < est.lower < est.upper < 0.5
        # the true saturation point stays inside the observed bracket
        assert est.lower <= 1.0 / 3.0 <= est.upper

    def test_stable_at_hi_probes_above_hi(self):
        # Stable at hi=0.2 (well under 1/3): the fixed prober probes
        # rate 1.0 and refines inside [hi, 1] instead of returning an
        # unprobed upper endpoint of 1.0.
        t8 = Torus(8, 2)
        dor = DimensionOrderRouting(t8)
        est = saturation_throughput(
            dor, tornado(t8), lo=0.05, hi=0.2, iterations=1,
            cycles=1500, warmup=500,
        )
        assert 0.2 <= est.lower < est.upper < 1.0
        assert est.lower <= 1.0 / 3.0 <= est.upper

    def test_stable_at_one_is_the_degenerate_probed_bracket(self, t4):
        # DOR/uniform on the 4-ary 2-cube sustains full injection over a
        # short run: rate 1.0 itself is probed stable, so no unstable
        # rate exists and the bracket degenerates to (1.0, 1.0).
        dor = DimensionOrderRouting(t4)
        est = saturation_throughput(
            dor, uniform(t4.num_nodes), iterations=2, cycles=600, warmup=200
        )
        assert est.lower == est.upper == 1.0


class TestObsContract:
    def test_one_compile_span_per_bracket(self, t4, tornado4):
        # A fresh algorithm (cold simulator cache) bisecting a full
        # bracket must compile its path tables exactly once — the whole
        # point of batching the probes (docstring contract).
        dor = DimensionOrderRouting(t4)
        tracer = obs.get_tracer()
        mark = tracer.mark()
        saturation_throughput(
            dor, tornado4, iterations=3, cycles=800, warmup=250
        )
        events = tracer.events_since(mark)
        compiles = [
            e
            for e in events
            if e["ev"] == "span" and e["name"] == "sim.compile"
        ]
        assert len(compiles) == 1
        (sat,) = [
            e
            for e in events
            if e["ev"] == "span" and e["name"] == "sim.saturation"
        ]
        assert sat["attrs"]["launches"] >= 1
        assert sat["attrs"]["probes"] >= 2  # endpoints at minimum
        assert sat["attrs"]["lower"] <= sat["attrs"]["upper"]


class TestBatchedCases:
    def test_batch_matches_per_case_brackets(self, dor4, tornado4):
        cases = [
            ((), ()),
            (((0, 1), (0, 2)), ()),
            ((), ((0, 3, "down"), (400, 3, "up"))),
        ]
        kwargs = dict(iterations=2, cycles=800, warmup=250, seed=4)
        batch = saturation_throughput_batch(dor4, tornado4, cases, **kwargs)
        assert len(batch) == len(cases)
        for (fs, ls), est in zip(cases, batch):
            solo = saturation_throughput(
                dor4, tornado4, fault_schedule=fs, link_schedule=ls, **kwargs
            )
            assert est == solo


    def test_cases_with_own_tables_match_solo_brackets(self, t4):
        # Each case carries its own (algorithm, traffic); pooling them
        # must not change any bracket.  Fresh algorithm objects keep the
        # compiled-table cache cold, so compiles are counted exactly.
        def fresh_cases():
            return [
                ((), (), DimensionOrderRouting(t4), transpose(t4)),
                ((), (), VAL(t4), uniform(t4.num_nodes)),
                (((0, 3),), (), IVAL(t4), tornado(t4)),
            ]

        kwargs = dict(iterations=3, cycles=600, warmup=200, seed=3)
        tracer = obs.get_tracer()
        solo, solo_rounds = [], []
        for fs, ls, alg, lam in fresh_cases():
            mark = tracer.mark()
            solo.append(
                saturation_throughput(
                    alg, lam, fault_schedule=fs, link_schedule=ls, **kwargs
                )
            )
            (sat,) = _spans(tracer.events_since(mark), "sim.saturation")
            solo_rounds.append(sat["attrs"]["launches"])
        assert len(set(solo_rounds)) > 1  # the cases finish at different rounds

        mark = tracer.mark()
        pooled = saturation_throughput_batch(cases=fresh_cases(), **kwargs)
        events = tracer.events_since(mark)
        assert pooled == solo
        # One compile per case, and one launch per round of the longest
        # case's refinement — not one launch sequence per case.
        assert len(_spans(events, "sim.compile")) == 3
        (sat,) = _spans(events, "sim.saturation")
        assert sat["attrs"]["launches"] == max(solo_rounds)
        assert len(_spans(events, "sim.batch")) == max(solo_rounds)

    def test_case_without_table_needs_batch_defaults(self):
        with pytest.raises(ValueError, match="algorithm, traffic"):
            saturation_throughput_batch(cases=[((), ())])


def _spans(events, name):
    return [e for e in events if e["ev"] == "span" and e["name"] == name]


class TestEnsemblesAndSchedules:
    def test_seed_ensemble_backend_independent(self, dor4, tornado4):
        kwargs = dict(
            iterations=2, cycles=800, warmup=250, seeds=(0, 1, 2)
        )
        vec = saturation_throughput(dor4, tornado4, backend="vectorized", **kwargs)
        ref = saturation_throughput(dor4, tornado4, backend="reference", **kwargs)
        assert vec == ref

    def test_curve_seed_ensemble_shape_and_identity(self, dor4, uniform4):
        rates = [0.2, 0.5]
        seeds = (3, 4, 5)
        nested = latency_load_curve(
            dor4, uniform4, rates, cycles=400, warmup=150, seeds=seeds
        )
        assert [len(row) for row in nested] == [3, 3]
        for i, rate in enumerate(rates):
            for j, seed in enumerate(seeds):
                assert nested[i][j].injection_rate == rate
                solo = latency_load_curve(
                    dor4, uniform4, [rate], cycles=400, warmup=150, seed=seed
                )
                assert nested[i][j] == solo[0]

    def test_curve_fault_schedule_reaches_every_replica(
        self, dor4, uniform4
    ):
        from repro.sim import SimulationConfig

        fs = ((0, 1), (100, 5))
        (result,) = latency_load_curve(
            dor4, uniform4, [0.6], cycles=400, warmup=150, seed=8,
            fault_schedule=fs,
        )
        assert result.lost > 0
        ref = simulate(
            dor4,
            uniform4,
            SimulationConfig(
                cycles=400, warmup=150, injection_rate=0.6, seed=8,
                fault_schedule=fs,
            ),
            backend="reference",
        )
        assert result == ref
