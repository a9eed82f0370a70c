"""SPMD sanitizer tests: cross-rank mismatch/desync detection, payload
checksums, shared-buffer race detection, record/replay conformance, and
the zero-overhead-when-disabled guarantee."""

from __future__ import annotations

import re
import time
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.cluster import uniform_cluster
from repro.comm import SpecArray
from repro.comm.communicator import Communicator
from repro.config import Config, SanitizeConfig
from repro.faults import FaultPlan
from repro.runtime import SpmdRuntime
from repro.runtime.errors import RemoteRankError
from repro.sanitize import (
    ChecksumMismatch,
    CollectiveDesync,
    CollectiveMismatch,
    CommSanitizer,
    ReplayDivergence,
    SharedBufferRace,
    first_divergence,
    load_golden,
    payload_checksum,
)

pytestmark = pytest.mark.sanitize

PROMPT = 1.0  #: wall seconds a stuck run may take: its verdict waits on no clock


def _run(world, fn, *, san=None, plan=None, tracer=None, cluster=None):
    rt = SpmdRuntime(
        cluster if cluster is not None else uniform_cluster(world),
        world, sanitize=san, fault_plan=plan, tracer=tracer,
    )
    return rt, rt.run(fn)


def _cause(excinfo):
    cause = excinfo.value.__cause__
    assert cause is not None, "RemoteRankError should chain the root cause"
    return cause


def _stuck(world, fn):
    """The cause of a sanitized run of ``fn`` that cannot complete."""
    t0 = time.monotonic()
    with pytest.raises(RemoteRankError) as ei:
        _run(world, fn, san=CommSanitizer())
    assert time.monotonic() - t0 < PROMPT
    return _cause(ei)


# ---------------------------------------------------------------------------
# mismatch detection


class TestMismatchDetection:
    def test_wrong_op_raises_mismatch(self):
        def prog(ctx):
            comm = Communicator.world(ctx)
            x = np.ones(4)
            if ctx.rank == 1:
                return comm.all_gather(x)
            return comm.all_reduce(x)

        with pytest.raises(RemoteRankError) as ei:
            _run(4, prog, san=CommSanitizer())
        cause = _cause(ei)
        assert isinstance(cause, CollectiveMismatch)
        assert cause.divergent_ranks == (1,)
        assert "all_gather" in str(cause) and "all_reduce" in str(cause)

    def test_wrong_shape_raises_mismatch(self):
        def prog(ctx):
            comm = Communicator.world(ctx)
            n = 6 if ctx.rank == 2 else 4
            return comm.all_reduce(np.ones(n))

        with pytest.raises(RemoteRankError) as ei:
            _run(4, prog, san=CommSanitizer())
        cause = _cause(ei)
        assert isinstance(cause, CollectiveMismatch)
        assert cause.divergent_ranks == (2,)
        assert "shape=(6)" in str(cause) and "shape=(4)" in str(cause)

    def test_wrong_dtype_raises_mismatch(self):
        def prog(ctx):
            comm = Communicator.world(ctx)
            dt = np.float32 if ctx.rank == 3 else np.float64
            return comm.all_reduce(np.ones(4, dtype=dt))

        with pytest.raises(RemoteRankError) as ei:
            _run(4, prog, san=CommSanitizer())
        cause = _cause(ei)
        assert isinstance(cause, CollectiveMismatch)
        assert cause.divergent_ranks == (3,)
        assert "float32" in str(cause) and "float64" in str(cause)

    def test_wrong_reduce_op_raises_mismatch(self):
        def prog(ctx):
            comm = Communicator.world(ctx)
            op = "max" if ctx.rank == 0 else "sum"
            return comm.all_reduce(np.ones(4), op=op)

        with pytest.raises(RemoteRankError) as ei:
            _run(4, prog, san=CommSanitizer())
        cause = _cause(ei)
        assert isinstance(cause, CollectiveMismatch)
        assert cause.divergent_ranks == (0,)

    def test_wrong_broadcast_root_raises_mismatch(self):
        def prog(ctx):
            comm = Communicator.world(ctx)
            root = 1 if ctx.rank == 2 else 0
            x = np.arange(4.0) if ctx.rank == root else np.zeros(4)
            return comm.broadcast(x, root=root)

        with pytest.raises(RemoteRankError) as ei:
            _run(4, prog, san=CommSanitizer())
        cause = _cause(ei)
        assert isinstance(cause, CollectiveMismatch)
        assert cause.divergent_ranks == (2,)

    def test_mismatch_names_callsite(self):
        def prog(ctx):
            comm = Communicator.world(ctx)
            n = 8 if ctx.rank == 1 else 4
            return comm.all_reduce(np.ones(n))  # <- the guilty line

        with pytest.raises(RemoteRankError) as ei:
            _run(2, prog, san=CommSanitizer())
        cause = _cause(ei)
        assert isinstance(cause, CollectiveMismatch)
        assert 1 in cause.callsites
        assert "test_sanitize.py" in cause.callsites[1]
        assert "in prog" in cause.callsites[1]

    def test_all_gather_extent_differences_allowed(self):
        # the concat axis legitimately differs across ranks: not a mismatch
        def prog(ctx):
            comm = Communicator.world(ctx)
            out = comm.all_gather(np.ones((ctx.rank + 1, 3)), axis=0)
            return out.shape

        _, results = _run(4, prog, san=CommSanitizer())
        assert results == [(10, 3)] * 4

    def test_clean_run_counts_rounds(self):
        san = CommSanitizer()

        def prog(ctx):
            comm = Communicator.world(ctx)
            comm.all_reduce(np.ones(4))
            comm.barrier()
            return comm.all_gather(np.full(2, float(ctx.rank)))

        _run(4, prog, san=san)
        assert san.summary()["rounds_checked"] == 3
        assert san.summary()["mismatches"] == 0

    def test_subgroup_mismatch_detected(self):
        def prog(ctx):
            comm = Communicator.world(ctx)
            sub = comm.subgroup([0, 1]) if ctx.rank < 2 else comm.subgroup([2, 3])
            n = 5 if ctx.rank == 3 else 4
            return sub.all_reduce(np.ones(n))

        with pytest.raises(RemoteRankError) as ei:
            _run(4, prog, san=CommSanitizer())
        cause = _cause(ei)
        assert isinstance(cause, CollectiveMismatch)
        assert cause.divergent_ranks == (3,)
        assert tuple(cause.group_ranks) == (2, 3)


# ---------------------------------------------------------------------------
# desync detection (never a hang)


class TestDesyncDetection:
    @pytest.mark.parametrize("rank2, marker, culprit", [
        ("raises", "rank2:failed", "RuntimeError"),
        ("returns", "sanitizer:CollectiveDesync", None),
    ])
    def test_failure_and_verdict_are_marked_on_the_timeline(self, rank2, marker, culprit):
        from repro.trace import Tracer

        def prog(ctx):
            ctx.clock.advance(1.0 + ctx.rank, "compute")
            if ctx.rank == 2 and rank2 == "raises":
                raise RuntimeError("boom")
            if ctx.rank != 2:
                Communicator.world(ctx).all_reduce(np.ones(4))

        with pytest.raises(RemoteRankError):
            _run(4, prog, san=CommSanitizer(), tracer=(tracer := Tracer()))
        (mark,) = [i for i in tracer.instants() if i.name == marker]
        if culprit:  # stamped with the failing rank's own clock
            assert (mark.rank, mark.t, mark.args) == (2, 3.0, {"error": culprit})
        else:  # stamped by the lowest parked rank, whose wait it explains
            assert (mark.rank, mark.t) == (0, 1.0)

    def test_skipped_collective_raises_desync_fast(self):
        def prog(ctx):
            comm = Communicator.world(ctx)
            comm.all_reduce(np.ones(4))
            if ctx.rank == 2:
                return "bailed early"
            return comm.all_reduce(np.ones(4))

        cause = _stuck(4, prog)
        assert isinstance(cause, CollectiveDesync)
        assert cause.missing_ranks == (2,)
        assert cause.waiting_ranks == (0, 1, 3)  # all in by the verdict
        assert "exited" in str(cause)

    def test_extra_collective_raises_desync(self):
        def prog(ctx):
            comm = Communicator.world(ctx)
            comm.barrier()
            if ctx.rank == 0:
                comm.all_reduce(np.ones(2))  # nobody else joins
            return "done"

        cause = _stuck(4, prog)
        assert isinstance(cause, CollectiveDesync)
        assert cause.waiting_ranks == (0,)
        assert cause.op == "all_reduce"

    def test_cross_group_wait_cycle_diagnosed(self):
        # ranks 0+1 wait in the world group while ranks 2+3 are parked in a
        # subgroup collective that can complete only after the world one —
        # no rank has exited, yet the rounds can never fill
        def prog(ctx):
            comm = Communicator.world(ctx)
            if ctx.rank < 2:
                return comm.all_reduce(np.ones(2))
            sub = comm.subgroup([0, 2, 3])  # includes rank 0: cycle
            return sub.all_reduce(np.ones(2))

        assert isinstance(_stuck(4, prog), (CollectiveDesync, CollectiveMismatch))

    def test_three_group_wait_cycle_names_every_rank(self):
        # a pure cycle, no rank exited: 0 waits in [0, 1] for rank 1, which
        # waits in [1, 2] for rank 2, which waits in [0, 2] for rank 0; the
        # last of them to park finds every live rank parked
        pairs = {0: [0, 1], 1: [1, 2], 2: [0, 2]}

        def prog(ctx):
            comm = Communicator.world(ctx).subgroup(pairs[ctx.rank])
            return comm.all_reduce(np.ones(2))

        cause = _stuck(3, prog)
        assert isinstance(cause, CollectiveDesync)
        named = {int(r) for ranks in re.findall(r"ranks \[([\d, ]+)\]", str(cause))
                 for r in ranks.split(",")}
        assert named == {0, 1, 2}, str(cause)

    @pytest.mark.parametrize("wait", ["recv"])
    @pytest.mark.parametrize("sender", ["exits", "parks"])
    def test_stuck_recv_names_its_senders_state(self, wait, sender):
        # rank 1 exits, or waits in [1, 2] for rank 2, which waits for 0

        def prog(ctx):
            comm = Communicator.world(ctx)
            if ctx.rank == 0:
                return comm.recv(src=1, tag="never")
            if ctx.rank == 2:
                return comm.recv(src=0)
            if sender == "parks":
                comm.subgroup([1, 2]).barrier()

        cause = _stuck(3 if sender == "parks" else 2, prog)
        assert isinstance(cause, CollectiveDesync)
        assert (cause.op, cause.waiting_ranks) == ("recv", (0,))
        assert "(group [1, 0], tag 'never') but ranks " in str(cause)
        assert str(cause).endswith({
            "exits": "[1] already exited the program without sending it",
            "parks": "on group [1, 2]; rank 2 in recv from rank 0"}[sender])
        if sender == "parks":
            assert "[1, 2] are themselves stuck: rank 1 in barrier() @ " \
                   "tests/test_sanitize.py:" in str(cause)

    def test_desync_message_names_callsites(self):
        def prog(ctx):
            comm = Communicator.world(ctx)
            if ctx.rank == 1:
                return None
            return comm.all_reduce(np.ones(4))

        cause = _stuck(2, prog)
        assert isinstance(cause, CollectiveDesync)
        assert "test_sanitize.py" in str(cause)


# ---------------------------------------------------------------------------
# payload checksums


class TestChecksums:
    def test_p2p_checksums_clean(self):
        san = CommSanitizer(checksum=True)

        def prog(ctx):
            comm = Communicator.world(ctx)
            if ctx.rank == 0:
                comm.send(np.arange(8.0), dst=1)
                return None
            return comm.recv(src=0).sum()

        _, results = _run(2, prog, san=san)
        assert results[1] == 28.0
        assert san.summary()["p2p_checked"] == 1
        assert san.summary()["events"] == []

    def test_checksum_mismatch_is_logic_bug(self):
        # a direct producer/consumer hash disagreement with no injected
        # fault must be attributed to a logic bug
        san = CommSanitizer(checksum=True)
        san.on_sent(0, 1, "k", np.arange(4.0))
        with pytest.raises(ChecksumMismatch) as ei:
            san.on_received(0, 1, "k", np.zeros(4))
        assert ei.value.injected is False
        assert "logic bug" in str(ei.value)

    def test_payload_checksum_distinguishes_bytes(self):
        a = payload_checksum(np.arange(4.0))
        b = payload_checksum(np.arange(4.0) + 1)
        c = payload_checksum(np.arange(4.0))
        assert a != b and a == c
        # shape is part of the identity even when bytes agree
        z = np.zeros(4)
        assert payload_checksum(z) != payload_checksum(z.reshape(2, 2))

    @given(specs=st.lists(
        st.tuples(
            st.lists(st.integers(0, 5), max_size=4),
            st.booleans(),
            st.sampled_from(["float16", "float32", "float64", "int64", "bool"]),
            st.booleans(),
        ),
        min_size=1, max_size=5,
    ))
    @settings(max_examples=60, deadline=None)
    def test_spec_checksum_is_the_recorded_format(self, specs):
        """The (shape, dtype) memo returns what the record streams have
        always carried — golden compatibility held apart from
        ``comm_golden.json``: a spec payload's CRC is that of
        ``repr((shape, dtype.name, "spec"))`` with ``shape`` plain ints, and
        a chunk list folds its members' CRCs over its length."""
        arrays = [
            SpecArray(tuple(np.intp(d) for d in dims) if intp else dims,
                      np.dtype(dtype) if as_dtype else dtype)
            for dims, intp, dtype, as_dtype in specs]
        expected = [
            zlib.crc32(repr((tuple(dims), np.dtype(dtype).name, "spec")).encode())
            for dims, _, dtype, _ in specs]
        for _ in range(2):  # first sight (a miss when new), then memo hits
            assert [payload_checksum(a) for a in arrays] == expected
            crc = len(arrays)
            for sub in expected:
                crc = zlib.crc32(sub.to_bytes(4, "little"), crc)
            assert payload_checksum(arrays) == payload_checksum(tuple(arrays)) == crc

    def test_algorithm_bitwise_parity(self):
        # identical program under ring/tree/hierarchical must produce
        # bitwise-identical collective results (asserted via result CRCs)
        def prog(ctx):
            comm = Communicator.world(ctx)
            x = np.linspace(0.0, 1.0, 16) * (ctx.rank + 1)
            comm.all_reduce(x)
            comm.all_gather(np.full(3, float(ctx.rank)))
            return comm.reduce_scatter(np.arange(8.0) + ctx.rank)

        digests = {}
        for algo in ("ring", "tree", "hierarchical"):
            san = CommSanitizer(checksum=True)
            rt = SpmdRuntime(
                uniform_cluster(4), 4, sanitize=san, comm_algorithm=algo,
            )
            rt.run(prog)
            digests[algo] = san.collective_digests(rank=0)
        assert digests["ring"] == digests["tree"] == digests["hierarchical"]
        assert all(rcrc is not None for _, _, rcrc in digests["ring"])


# ---------------------------------------------------------------------------
# chaos interaction (fault injector + sanitizer)


@pytest.mark.chaos
class TestChaosInteraction:
    def test_injected_corruption_attributed_and_healed(self):
        plan = FaultPlan().corrupt(src=0, dst=1, count=1)
        san = CommSanitizer(checksum=True)

        def prog(ctx):
            comm = Communicator.world(ctx)
            if ctx.rank == 0:
                comm.send(np.arange(8.0), dst=1)
                return None
            return comm.recv(src=0).sum()

        rt, results = _run(2, prog, san=san, plan=plan)
        # payload arrived intact after the retransmission
        assert results[1] == 28.0
        events = san.summary()["events"]
        assert len(events) == 1
        ev = events[0]
        assert (ev.kind, ev.src, ev.dst) == ("p2p", 0, 1)
        assert ev.injected and ev.healed
        # the retry-then-pass shows up in CommCounters
        counters = rt.world_group.counters
        assert counters.retries_total == 1
        assert counters.by_op_retries.get("p2p") == 1

    def test_injected_collective_glitch_attributed(self):
        plan = FaultPlan().glitch(op="all_reduce", attempts=2, max_glitches=1)
        san = CommSanitizer(checksum=True)

        def prog(ctx):
            comm = Communicator.world(ctx)
            return comm.all_reduce(np.ones(4))

        rt, results = _run(4, prog, san=san, plan=plan)
        np.testing.assert_allclose(results[0], np.full(4, 4.0))
        events = [e for e in san.summary()["events"] if e.kind == "collective"]
        assert len(events) == 1
        assert events[0].injected and events[0].healed
        assert rt.world_group.counters.retries_total == 2

    def test_drop_retries_keep_checksums_clean(self):
        # dropped packets never reach on_received; the delivered copy must
        # hash clean and the event log must stay free of logic-bug entries
        plan = FaultPlan().drop(src=0, dst=1, count=3)
        san = CommSanitizer(checksum=True)

        def prog(ctx):
            comm = Communicator.world(ctx)
            if ctx.rank == 0:
                comm.send(np.arange(16.0), dst=1)
                return None
            return comm.recv(src=0).sum()

        _, results = _run(2, prog, san=san, plan=plan)
        assert results[1] == 120.0
        assert not [e for e in san.summary()["events"] if not e.injected]


# ---------------------------------------------------------------------------
# shared-buffer race detection


class TestRaceDetection:
    def test_loaned_ring_pass_buffer_mutation_raises(self):
        # ring_pass hands receivers references to senders' arrays; mutating
        # the sender's copy afterwards must fail at the guilty line
        def prog(ctx):
            comm = Communicator.world(ctx)
            x = np.full(4, float(ctx.rank))
            got = comm.ring_pass(x, shift=1)
            x[:] = 99.0  # borrower still holds this buffer
            return got

        with pytest.raises(RemoteRankError) as ei:
            _run(2, prog, san=CommSanitizer(race=True))
        cause = _cause(ei)
        assert isinstance(cause, ValueError)
        assert "read-only" in str(cause)

    def test_race_detector_records_loans(self):
        san = CommSanitizer(race=True)

        def prog(ctx):
            comm = Communicator.world(ctx)
            return comm.ring_pass(np.full(4, float(ctx.rank)), shift=1)

        _run(2, prog, san=san)
        loans = san.summary()["loans"]
        assert loans and all(l["op"] == "ring_pass" for l in loans)
        assert san.summary()["race_violations"] == []

    def test_non_aliased_buffers_released(self):
        # all_reduce results are fresh arrays: inputs must be writable again
        def prog(ctx):
            comm = Communicator.world(ctx)
            x = np.ones(4)
            comm.all_reduce(x)
            x[:] = 5.0  # fine: nobody borrowed x
            return x.sum()

        _, results = _run(2, prog, san=CommSanitizer(race=True))
        assert results == [20.0, 20.0]

    # The freeze covers the array handed in, not a base it is a view of: a
    # write through the base escapes the read-only flag; only the checksums see it.
    def test_in_flight_write_through_the_base_is_a_race(self):
        san, bases = CommSanitizer(race=True), {}
        freeze = san.race_detector.acquire

        def freeze_then_scribble(payloads, to_global):
            token = freeze(payloads, to_global)
            bases[1][0] += 1.0  # rank 1's base, while the round is in flight
            return token

        san.race_detector.acquire = freeze_then_scribble

        def prog(ctx):
            bases[ctx.rank] = np.ones(8)
            return Communicator.world(ctx).all_reduce(bases[ctx.rank][:4])

        with pytest.raises(RemoteRankError) as ei:
            _run(2, prog, san=san)
        cause = _cause(ei)
        assert isinstance(cause, SharedBufferRace) and cause.rank == 1 and "in flight" in str(cause)
        assert all(b[:4].flags.writeable for b in bases.values())

    def test_loan_written_through_the_base_is_reported_at_run_end(self):
        san, bases = CommSanitizer(race=True), {}

        def prog(ctx):
            bases[ctx.rank] = np.full(8, float(ctx.rank))
            got = Communicator.world(ctx).ring_pass(bases[ctx.rank][:4], shift=1)
            if ctx.rank == 0:
                bases[0][0] = 99.0  # rank 1 holds this buffer as ``got``
            return got

        _run(2, prog, san=san)
        (race,) = san.summary()["race_violations"]
        assert (race.op, race.rank) == ("ring_pass", 0) and "loaned" in str(race)
        assert all(b[:4].flags.writeable for b in bases.values())

    def test_failed_finalize_unfreezes_every_payload(self):
        bufs = {}

        def prog(ctx):
            bufs[ctx.rank] = np.ones(3)  # 3 elements do not split over 2 ranks
            return Communicator.world(ctx).reduce_scatter(bufs[ctx.rank])

        rt = SpmdRuntime(uniform_cluster(2), sanitize=True)
        with pytest.raises(RemoteRankError, match="not divisible"):
            rt.run(prog)
        assert all(b.flags.writeable for b in bufs.values())
        assert rt.world_group._rounds == {}


# ---------------------------------------------------------------------------
# record / replay conformance


class TestRecordReplay:
    @staticmethod
    def _prog(ctx):
        comm = Communicator.world(ctx)
        x = np.full(4, float(ctx.rank + 1))
        comm.all_reduce(x)
        if ctx.rank == 0:
            comm.send(np.arange(4.0), dst=1)
        elif ctx.rank == 1:
            comm.recv(src=0)
        root = np.arange(4.0) if ctx.rank == 0 else np.zeros(4)
        return comm.broadcast(root, root=0)

    def test_record_then_conforming_replay(self, tmp_path):
        golden = tmp_path / "golden.json"
        san = CommSanitizer(checksum=True)
        _run(4, self._prog, san=san)
        san.save_golden(str(golden))

        doc = load_golden(str(golden))
        assert doc["world_size"] == 4
        assert len(doc["streams"]) == 4

        _run(4, self._prog, san=CommSanitizer(checksum=True,
                                              replay=str(golden)))

    def test_replay_pinpoints_first_divergence(self, tmp_path):
        golden = tmp_path / "golden.json"
        san = CommSanitizer(checksum=True)
        _run(4, self._prog, san=san)
        san.save_golden(str(golden))

        def drifted(ctx):
            comm = Communicator.world(ctx)
            x = np.full(4, float(ctx.rank + 1))
            comm.all_reduce(x)
            comm.barrier()  # <- was a send/recv + broadcast
            root = np.arange(4.0) if ctx.rank == 0 else np.zeros(4)
            return comm.broadcast(root, root=0)

        with pytest.raises(RemoteRankError) as ei:
            _run(4, drifted, san=CommSanitizer(checksum=True,
                                               replay=str(golden)))
        cause = _cause(ei)
        assert isinstance(cause, ReplayDivergence)
        assert cause.step == 1
        assert cause.got["op"] == "barrier"

    def test_replay_detects_data_divergence(self, tmp_path):
        golden = tmp_path / "golden.json"
        san = CommSanitizer(checksum=True)
        _run(4, self._prog, san=san)
        san.save_golden(str(golden))

        def other_data(ctx):
            comm = Communicator.world(ctx)
            x = np.full(4, float(ctx.rank + 7))  # same ops, other bytes
            comm.all_reduce(x)
            if ctx.rank == 0:
                comm.send(np.arange(4.0), dst=1)
            elif ctx.rank == 1:
                comm.recv(src=0)
            root = np.arange(4.0) if ctx.rank == 0 else np.zeros(4)
            return comm.broadcast(root, root=0)

        with pytest.raises(RemoteRankError) as ei:
            _run(4, other_data, san=CommSanitizer(checksum=True,
                                                  replay=str(golden)))
        cause = _cause(ei)
        assert isinstance(cause, ReplayDivergence)
        assert cause.step == 0
        assert "payload bytes differ" in str(cause)

    def test_truncated_run_is_divergence(self, tmp_path):
        golden = tmp_path / "golden.json"
        san = CommSanitizer()
        _run(4, self._prog, san=san)
        san.save_golden(str(golden))

        def short(ctx):
            comm = Communicator.world(ctx)
            comm.all_reduce(np.full(4, float(ctx.rank + 1)))
            return None  # stops before the p2p + broadcast

        with pytest.raises(ReplayDivergence):
            _run(4, short, san=CommSanitizer(replay=str(golden)))

    def test_offline_first_divergence(self):
        san_a = CommSanitizer(checksum=True)
        _run(4, self._prog, san=san_a)

        def drifted(ctx):
            comm = Communicator.world(ctx)
            x = np.full(4, float(ctx.rank + 1))
            comm.all_reduce(x)
            comm.all_reduce(x)  # diverges here on every rank
            return None

        san_b = CommSanitizer(checksum=True)
        _run(4, drifted, san=san_b)

        div = first_divergence(san_a.golden(), san_b.golden())
        assert div is not None
        assert (div.rank, div.step) == (0, 1)
        assert first_divergence(san_a.golden(), san_a.golden()) is None


# ---------------------------------------------------------------------------
# configuration surface


class TestConfig:
    def test_sanitize_section_parsed(self):
        cfg = Config.from_dict({"sanitize": {"checksum": True, "race": True}})
        assert cfg.sanitize.enabled  # implied by any sanitize key
        san = cfg.sanitize.build()
        assert isinstance(san, CommSanitizer)
        assert san.checksum and san.race_detector is not None

    def test_record_replay_mutually_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            Config.from_dict({"sanitize": {
                "record": "a.json", "replay": "b.json",
            }})

    def test_options_require_enabled(self):
        with pytest.raises(ValueError, match="enabled"):
            SanitizeConfig(enabled=False, checksum=True).validate()

    def test_launch_with_sanitize_config(self):
        def prog(ctx, pc):
            comm = Communicator.world(ctx)
            n = 3 if ctx.rank == 1 else 4
            return comm.all_reduce(np.ones(n))

        with pytest.raises(RemoteRankError) as ei:
            repro.launch({"sanitize": {"enabled": True}},
                         uniform_cluster(4), prog, world_size=4)
        assert isinstance(_cause(ei), CollectiveMismatch)

    def test_launch_record_writes_golden(self, tmp_path):
        golden = tmp_path / "run.json"

        def prog(ctx, pc):
            comm = Communicator.world(ctx)
            return comm.all_reduce(np.ones(4))

        cluster = uniform_cluster(4)
        repro.launch({"sanitize": {"record": str(golden)}}, cluster, prog,
                     world_size=4)
        doc = load_golden(str(golden))
        assert all(len(s) == 1 for s in doc["streams"].values())
        # and the saved golden immediately replays clean
        repro.launch({"sanitize": {"replay": str(golden)}}, cluster, prog,
                     world_size=4)


# ---------------------------------------------------------------------------
# overhead guard: disabled sanitizer must cost nothing


class TestOverheadGuard:
    @staticmethod
    def _prog(ctx):
        comm = Communicator.world(ctx)
        x = np.full(8, float(ctx.rank))
        for _ in range(3):
            x = comm.all_reduce(x)
        comm.barrier()
        return comm.all_gather(np.full(2, float(ctx.rank))).sum()

    def test_disabled_sanitizer_builds_no_specs(self, monkeypatch):
        import repro.sanitize.sanitizer as san_mod

        calls = []
        orig = san_mod.CollectiveSpec

        def counting(*args, **kwargs):
            calls.append(1)
            return orig(*args, **kwargs)

        monkeypatch.setattr(san_mod, "CollectiveSpec", counting)
        _run(4, self._prog)  # no sanitizer
        assert calls == []  # the disabled hot path never allocates a spec
        _run(4, self._prog, san=CommSanitizer())
        assert len(calls) == 5 * 4  # 5 collectives x 4 ranks when enabled

    def test_sanitizer_adds_no_collective_rounds(self):
        from repro.trace import Tracer

        def snapshot(san):
            tracer = Tracer()
            rt, results = _run(4, self._prog, san=san, tracer=tracer)
            c = rt.world_group.counters
            spans = [s for s in tracer.spans() if s.cat == "collective"]
            return (results, c.calls_total, c.bytes_total,
                    rt.clocks[0].time, len(spans))

        res_off, calls_off, bytes_off, t_off, spans_off = snapshot(None)
        res_on, calls_on, bytes_on, t_on, spans_on = snapshot(
            CommSanitizer(checksum=True, race=True)
        )
        # verification piggybacks on existing rounds: identical wire
        # traffic, call counts, simulated time and span counts
        assert res_on == res_off
        assert calls_on == calls_off
        assert bytes_on == bytes_off
        assert t_on == t_off
        assert spans_on == spans_off

    def test_disabled_rounds_share_empty_trace_extra(self):
        from repro.comm.timeline import NO_EXTRA, Round

        rnd = Round()
        assert rnd.trace_extra is NO_EXTRA
        assert "specs" not in Round.__slots__  # the sanitizer keeps its own
