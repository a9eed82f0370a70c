"""Timeline tracing: see the pipeline bubble with your own eyes.

Runs a deliberately imbalanced 4-stage GPipe pipeline (stage 0 carries 4x
the layers of the others) with a :class:`repro.trace.Tracer` attached,
prints the per-rank time breakdown + top-collectives report, and writes a
Chrome-trace JSON you can open in ``chrome://tracing`` or
https://ui.perfetto.dev — one lane per rank, with per-microbatch
``fwd/mb*``/``bwd/mb*`` spans and ``*_stall`` bubble spans in between.

Run:  python examples/trace_pipeline.py
"""

import numpy as np

import repro
from repro.cluster import uniform_cluster
from repro.nn import Linear, Sequential
from repro.parallel.pipeline import GPipeSchedule
from repro.trace import Tracer, TraceReport, save_chrome_trace

STAGES = 4
MICRO = 4
WIDTH = 16
DEPTHS = [8, 2, 2, 2]  # imbalanced on purpose: stage 0 is the straggler
BATCH = 8
rng = np.random.default_rng(0)
X = rng.standard_normal((BATCH, WIDTH)).astype("float32")


def main():
    config = dict(parallel=dict(pipeline=STAGES), num_microbatches=MICRO)
    tracer = Tracer()

    def train(ctx, pc):
        stage = Sequential([Linear(WIDTH, WIDTH) for _ in range(DEPTHS[pc.pp_rank])])
        sched = GPipeSchedule(pc, MICRO)
        sched.run(
            stage,
            X if pc.is_first_pipeline_stage() else None,
            None,
            (lambda out, y: out.sum()) if pc.is_last_pipeline_stage() else None,
        )
        return ctx.clock.time

    repro.launch(config, uniform_cluster(STAGES), train,
                 world_size=STAGES, tracer=tracer)

    report = TraceReport.from_tracer(tracer)
    print(report.format())
    path = save_chrome_trace(tracer, "trace_pipeline.json")
    print(f"\nChrome trace written to {path} "
          "(open in chrome://tracing or ui.perfetto.dev)")
    assert report.bubble_fraction() > 0.0, "imbalanced pipeline must stall"
    print("downstream stages stall waiting on the fat stage 0 — "
          "that idle time is the bubble")


if __name__ == "__main__":
    main()
