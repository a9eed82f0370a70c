"""Tracing layer: clock-span reconciliation, pipeline bubbles, Chrome
trace-event schema, zero/trainer instrumentation."""

import json
from collections import defaultdict

import numpy as np
import pytest

import repro
from repro.cluster import uniform_cluster
from repro.comm.communicator import Communicator
from repro.config import Config
from repro.context import ParallelContext
from repro.nn import Linear, Sequential
from repro.parallel.pipeline import GPipeSchedule, OneFOneBSchedule
from repro.runtime import SpmdRuntime
from repro.trace import TraceReport, Tracer, chrome_trace, save_chrome_trace


def _mixed_program(ctx):
    """Compute imbalance + collectives + p2p ring: every span source."""
    comm = Communicator.world(ctx)
    x = np.full((8, 4), float(ctx.rank + 1), dtype=np.float32)
    ctx.clock.advance(0.001 * (ctx.rank + 1), "compute")
    comm.all_reduce(x)
    comm.all_gather(x, axis=0)
    comm.send(x, (ctx.rank + 1) % ctx.world_size, tag="ring")
    comm.recv((ctx.rank - 1) % ctx.world_size, tag="ring")


def _run_imbalanced_pipeline(tracer, schedule_cls=GPipeSchedule, micro=4):
    """4-stage pipeline where stage 0 carries 4x the layers of the rest, so
    downstream stages stall (bubble) waiting for it."""
    width, batch = 16, 8
    depths = [8, 2, 2, 2]
    rt = SpmdRuntime(uniform_cluster(4), tracer=tracer)

    def prog(ctx):
        pc = ParallelContext(ctx, Config.from_dict(dict(parallel=dict(pipeline=4))))
        rng = np.random.default_rng(pc.pp_rank)
        stage = Sequential([Linear(width, width, rng=rng) for _ in range(depths[pc.pp_rank])])
        sched = schedule_cls(pc, micro)
        data = (
            np.ones((batch, width), dtype=np.float32)
            if pc.is_first_pipeline_stage() else None
        )
        crit = (lambda out, y: out.sum()) if pc.is_last_pipeline_stage() else None
        sched.run(stage, data, None, crit)

    rt.run(prog)
    return rt


class TestClockSpans:
    def test_reconciles_with_breakdown(self):
        tracer = Tracer()
        rt = SpmdRuntime(uniform_cluster(4), tracer=tracer)
        rt.run(_mixed_program)
        for rank, clock in enumerate(rt.clocks):
            traced = tracer.clock_breakdown(rank)
            actual = clock.breakdown()
            assert set(traced) == set(actual)
            for cat, seconds in actual.items():
                assert traced[cat] == pytest.approx(seconds, rel=1e-9, abs=1e-12)

    def test_span_total_equals_clock_time(self):
        tracer = Tracer()
        rt = SpmdRuntime(uniform_cluster(4), tracer=tracer)
        rt.run(_mixed_program)
        for rank, clock in enumerate(rt.clocks):
            total = sum(tracer.clock_breakdown(rank).values())
            assert total == pytest.approx(clock.time, rel=1e-9)

    def test_disabled_records_nothing(self):
        tracer = Tracer()
        rt = SpmdRuntime(uniform_cluster(4))
        rt.run(_mixed_program)
        assert tracer.spans() == []

    def test_uninstall_stops_recording(self):
        tracer = Tracer()
        rt = SpmdRuntime(uniform_cluster(4), tracer=tracer)
        rt.run(_mixed_program)
        n = len(tracer.spans())
        assert n > 0
        tracer.uninstall()
        assert rt.tracer is None
        rt.run(_mixed_program)
        assert len(tracer.spans()) == n

    def test_clear_resets_between_runs(self):
        tracer = Tracer()
        rt = SpmdRuntime(uniform_cluster(2), tracer=tracer)
        rt.run(_mixed_program)
        tracer.clear()
        assert tracer.spans() == [] and tracer.ranks() == []


class TestAnnotations:
    def test_collective_spans_carry_round_totals(self):
        tracer = Tracer()
        rt = SpmdRuntime(uniform_cluster(4), tracer=tracer)
        rt.run(_mixed_program)
        spans = tracer.spans(cat="collective")
        by_op = defaultdict(list)
        for s in spans:
            by_op[s.name].append(s)
        # every rank records one span per round
        assert len(by_op["all_reduce"]) == 4
        assert len(by_op["all_gather"]) == 4
        # exactly one primary per round, carrying nonzero wire bytes
        primaries = [s for s in by_op["all_reduce"] if s.args.get("primary")]
        assert len(primaries) == 1
        assert primaries[0].args["wire_bytes"] > 0
        # all members end at the same completion time
        assert len({s.t1 for s in by_op["all_reduce"]}) == 1

    def test_p2p_and_rank_lifecycle_spans(self):
        tracer = Tracer()
        rt = SpmdRuntime(uniform_cluster(4), tracer=tracer)
        rt.run(_mixed_program)
        assert len(tracer.spans(cat="p2p")) == 8  # 4 sends + 4 recvs
        ranks = {s.rank for s in tracer.spans(cat="rank")}
        assert ranks == {0, 1, 2, 3}

    def test_retry_spans_under_faults(self):
        from repro.faults import FaultPlan

        plan = FaultPlan(seed=3).glitch(op="all_reduce", attempts=2)
        tracer = Tracer()
        rt = SpmdRuntime(uniform_cluster(4), fault_plan=plan, tracer=tracer)

        def prog(ctx):
            comm = Communicator.world(ctx)
            comm.all_reduce(np.ones(4, dtype=np.float32))

        rt.run(prog)
        retries = tracer.spans(cat="retry")
        assert retries and all(s.duration > 0 for s in retries)


class TestPipelineTrace:
    @pytest.mark.parametrize("schedule_cls", [GPipeSchedule, OneFOneBSchedule])
    def test_bubble_fraction_nonzero_on_imbalance(self, schedule_cls):
        tracer = Tracer()
        _run_imbalanced_pipeline(tracer, schedule_cls)
        report = TraceReport.from_tracer(tracer)
        assert report.bubble_fraction() > 0.0
        # the overloaded first stage never stalls on a forward receive
        stalls = [s for s in tracer.spans(cat="bubble") if s.rank == 0]
        fwd_stalls = [s for s in stalls if s.name.startswith("fwd")]
        assert fwd_stalls == []

    def test_microbatch_spans_cover_all_stages(self):
        tracer = Tracer()
        _run_imbalanced_pipeline(tracer, micro=4)
        pipe = tracer.spans(cat="pipeline")
        fwd = [s for s in pipe if s.name.startswith("fwd/")]
        bwd = [s for s in pipe if s.name.startswith("bwd/")]
        assert len(fwd) == 4 * 4 and len(bwd) == 4 * 4  # stages x microbatches
        assert {s.args["stage"] for s in pipe} == {0, 1, 2, 3}

    def test_report_reconciles_and_formats(self):
        tracer = Tracer()
        rt = _run_imbalanced_pipeline(tracer)
        report = TraceReport.from_tracer(tracer)
        for rank, clock in enumerate(rt.clocks):
            b = clock.breakdown()
            for cat, seconds in b.items():
                assert report.per_rank[rank][cat] == pytest.approx(
                    seconds, rel=1e-9, abs=1e-12
                )
            assert report.per_rank_total[rank] == pytest.approx(clock.time)
        text = report.format()
        assert "pipeline bubble fraction" in text
        assert "per-rank time breakdown" in text

    def test_report_does_not_depend_on_span_order(self):
        """Rank threads append spans in the host's interleaving; every float
        table of the report is an ``fsum`` over its terms, so any order of
        the same spans reads ``==``."""
        tracer = Tracer()
        _run_imbalanced_pipeline(tracer)
        SpmdRuntime(uniform_cluster(4), tracer=tracer).run(_mixed_program)
        report = TraceReport.from_tracer(tracer)
        assert report.collectives and report.bubble_seconds
        rng = np.random.default_rng(0)
        for _ in range(3):
            rng.shuffle(tracer._spans)
            assert TraceReport.from_tracer(tracer) == report


def _validate_trace_events(doc):
    """Schema checks: required keys, monotonic ts per lane, balanced B/E."""
    assert "traceEvents" in doc
    lanes = defaultdict(list)
    for ev in doc["traceEvents"]:
        assert ev["ph"] in ("B", "E", "M", "i", "C")
        assert "pid" in ev and "tid" in ev and "name" in ev
        if ev["ph"] in ("B", "E"):
            lanes[ev["tid"]].append(ev)
    assert lanes, "no duration events in trace"
    for tid, events in lanes.items():
        depth, last_ts = 0, float("-inf")
        for ev in events:
            assert ev["ts"] >= last_ts, f"lane {tid}: ts went backwards"
            last_ts = ev["ts"]
            depth += 1 if ev["ph"] == "B" else -1
            assert depth >= 0, f"lane {tid}: E without matching B"
        assert depth == 0, f"lane {tid}: {depth} unclosed B events"


@pytest.mark.trace
class TestChromeExport:
    def test_smoke_pipeline_trace_schema(self, tmp_path):
        """The satellite smoke test: tiny 4-rank pipeline-parallel step with
        tracing on, exported to Chrome trace JSON, validated against the
        trace-event schema."""
        tracer = Tracer()
        rt = _run_imbalanced_pipeline(tracer)
        path = save_chrome_trace(tracer, str(tmp_path / "trace.json"))
        with open(path) as f:
            doc = json.load(f)
        _validate_trace_events(doc)
        # per-rank clock spans in the JSON reconcile with the breakdown
        for rank, clock in enumerate(rt.clocks):
            total = sum(tracer.clock_breakdown(rank).values())
            assert total == pytest.approx(clock.time, rel=1e-9)

    def test_thread_metadata_and_counters(self):
        tracer = Tracer()
        rt = SpmdRuntime(uniform_cluster(2), tracer=tracer)

        def prog(ctx):
            ctx.clock.advance(1e-3, "compute")
            tracer.sample_memory(ctx.rank, ctx.device, ctx.clock.time)

        rt.run(prog)
        doc = chrome_trace(tracer)
        names = [
            e["args"]["name"] for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert names == ["rank 0", "rank 1"]
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert len(counters) == 2
        assert all("allocated" in e["args"] for e in counters)


class TestTrainerAndZeroSpans:
    def test_trainer_step_and_checkpoint_spans(self):
        from repro.data import DataLoader, synthetic_image_classification
        from repro.nn import CrossEntropyLoss
        from repro.optim import SGD
        from repro.trainer import CheckpointManager, Trainer

        tracer = Tracer()
        rt = SpmdRuntime(uniform_cluster(1), tracer=tracer)
        X, Y = synthetic_image_classification(
            16, image_size=4, channels=1, n_classes=3, noise=0.3, seed=1
        )

        def prog(ctx):
            pc = ParallelContext(ctx, Config.from_dict({}))
            model = Linear(X.shape[1] * X.shape[2] * X.shape[3], 3,
                           rng=np.random.default_rng(0))
            engine = repro.initialize(
                model, SGD(model.parameters(), lr=0.01),
                criterion=CrossEntropyLoss(), pc=pc,
            )
            trainer = Trainer(
                engine,
                shard_input=lambda x: x.reshape(len(x), -1),
                checkpoint=CheckpointManager(),
                checkpoint_every=2,
            )
            trainer.fit(DataLoader(X, Y, batch_size=4, seed=0), epochs=1)

        rt.run(prog)
        steps = tracer.spans(cat="step")
        assert [s.name for s in steps] == ["step1", "step2", "step3", "step4"]
        ckpts = tracer.spans(cat="checkpoint")
        assert [s.name for s in ckpts] == ["ckpt@step2", "ckpt@step4"]
        # memory sampled once per step
        assert len(tracer.counters()) == 4

    def test_zero_engine_spans_and_memory_samples(self):
        from repro.zero.policies import StaticPolicy
        from repro.zero.engine import ZeroOffloadEngine

        tracer = Tracer()
        rt = SpmdRuntime(uniform_cluster(2), tracer=tracer)

        def prog(ctx):
            from repro.comm.cost import CostModel

            rng = np.random.default_rng(0)
            blocks = [Linear(8, 8, rng=rng) for _ in range(2)]
            policy = StaticPolicy(
                ctx.device, ctx.cpu, CostModel(ctx.cluster), ctx.rank
            )
            eng = ZeroOffloadEngine(
                ctx, blocks, Communicator.world(ctx),
                policy, criterion=lambda out, y: out.sum(),
                chunk_mb=0.001, param_dtype="float32",
            )
            eng.train_step(np.ones((4, 8), dtype=np.float32))

        rt.run(prog)
        zero = tracer.spans(cat="zero")
        kinds = {s.name.split("/")[0] for s in zero}
        assert {"fetch", "release", "adam"} <= kinds
        assert tracer.counters(), "memory samples missing"
        assert [s.name for s in tracer.spans(cat="step") if s.rank == 0] == [
            "zero_step1"
        ]
