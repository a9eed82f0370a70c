"""The cross-rank communication sanitizer.

:class:`CommSanitizer` is the runtime correctness checker for the threaded
SPMD runtime (the analogue of ``TORCH_DISTRIBUTED_DEBUG=DETAIL`` plus parts
of compute-sanitizer).  Installed on a :class:`~repro.runtime.spmd.SpmdRuntime`
it piggybacks on every :meth:`ProcessGroup.rendezvous
<repro.comm.group.ProcessGroup.rendezvous>` and p2p transfer — never adding
a collective round of its own — and provides four facilities:

1. **Mismatch detection** — every member rank's
   :class:`~repro.sanitize.spec.CollectiveSpec` is cross-checked when a
   round fills; incompatible calls raise
   :class:`~repro.sanitize.errors.CollectiveMismatch` naming the divergent
   ranks and their Python call sites.
2. **Desync detection** — when the runtime finds every live rank parked
   (a deadlock), the sanitizer explains the lowest parked rank's wait from
   the snapshot of every wait: the peers it waits for already exited the
   program, or are parked in turn (in which op, on which group, or in
   which receive), raising :class:`~repro.sanitize.errors.CollectiveDesync`
   instead of a bare :class:`~repro.runtime.errors.CollectiveTimeout`.
3. **Payload checksums** (``checksum=True``) — CRC32 of every payload on
   both sides of the wire; corruption is attributed to the fault injector
   (scheduled :class:`~repro.faults.plan.MessageFault`) or flagged as a
   logic bug via :class:`~repro.sanitize.errors.ChecksumMismatch`.  Result
   digests feed the trace-span ``digest`` tag and the cross-algorithm
   bitwise-parity assertions.
4. **Shared-buffer race detection** (``race=True``) — numpy buffers handed
   to a collective are frozen (``writeable=False``) while in flight; result
   buffers that alias another rank's input (e.g. ``ring_pass``) stay frozen
   as *loans*, so a later mutation by the owner raises at the guilty line
   instead of silently corrupting the borrower.

All state is per-run (reset by its ``begin`` hook).  Its hooks are the
``on_<event>`` methods below, which the runtime resolves into its lifecycle
tuples when the sanitizer installs (DESIGN §4u): uninstalled, the comm path
holds no reference to it and pays nothing for it.

**Nonblocking collectives.**  For ``iallreduce``-style calls the rendezvous
point is *handle completion*, not issue order: every member still joins the
same per-group sequence number (issue order per group is required to match
across ranks — that is what the spec check verifies), but ranks may
``wait()`` their handles in any order afterwards.  The spec check and the
checksum/race hooks fire when the round's last *issuer* arrives, and the
desync detector treats a rank parked in ``WorkHandle.wait()`` exactly like
one parked in a blocking rendezvous.  A group
where some ranks issue a collective blocking and others nonblocking fails
the round for everyone (mixed-mode rendezvous error from the process
group) before any sanitizer check runs.
"""

from __future__ import annotations

import os
import sys
import threading
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.payload import SpecArray, dtype_name
from repro.comm.timeline import Round
from repro.runtime.spmd import Observer
from repro.sanitize.errors import (
    ChecksumMismatch,
    CollectiveDesync,
    CollectiveMismatch,
    ReplayDivergence,
    SharedBufferRace,
)
from repro.sanitize.replay import (
    GOLDEN_VERSION,
    OpRecord,
    load_golden,
    records_equal,
    save_golden,
)
from repro.sanitize.spec import (
    CollectiveSpec,
    _is_internal,
    _shape_dtype,
    call_signature,
)


#: a :class:`SpecArray`'s checksum by ``(shape, dtype)``, the only two
#: things it depends on: read inline, computed once per signature.  It is
#: process-wide like :data:`~repro.comm.payload.DTYPE_NAMES`, because
#: :func:`payload_checksum` is a free function (the race detector calls it
#: too) and an entry is a pure function of its key: nothing goes stale
#: between runs, and it holds one int per distinct spec shape and dtype
_SPEC_CRCS: Dict[Tuple[Tuple[int, ...], np.dtype], int] = {}


def _spec_crc(shape: Tuple[int, ...], dtype: np.dtype) -> int:
    """The memo's miss path: checksum one new spec signature."""
    crc = zlib.crc32(repr((shape, dtype_name(dtype), "spec")).encode())
    _SPEC_CRCS[shape, dtype] = crc
    return crc


def payload_checksum(payload: Any) -> int:
    """CRC32 of a payload's identity: shape+dtype header plus raw bytes for
    ndarrays, shape+dtype only for :class:`SpecArray` stand-ins, recursive
    combination for chunk lists, ``repr`` for control-plane objects."""
    if payload is None:
        return 0
    if type(payload) is SpecArray:
        crc = _SPEC_CRCS.get((payload.shape, payload.dtype))
        return _spec_crc(payload.shape, payload.dtype) if crc is None else crc
    if isinstance(payload, np.ndarray):
        head = zlib.crc32(repr((payload.shape, payload.dtype.str)).encode())
        return zlib.crc32(np.ascontiguousarray(payload).tobytes(), head)
    if isinstance(payload, (list, tuple)):
        crc = len(payload)
        for p in payload:
            if type(p) is SpecArray:  # a spec chunk list costs one frame
                sub = _SPEC_CRCS.get((p.shape, p.dtype))
                if sub is None:
                    sub = _spec_crc(p.shape, p.dtype)
            else:
                sub = payload_checksum(p)
            crc = zlib.crc32(sub.to_bytes(4, "little"), crc)
        return crc
    return zlib.crc32(repr(payload).encode())


@dataclass
class ChecksumEvent:
    """One observed payload-integrity incident."""

    kind: str  #: "p2p" | "collective"
    op: str
    src: int
    dst: int
    injected: bool  #: True when the fault injector scheduled it
    healed: bool  #: True when the retry layer retransmitted successfully
    expected: Optional[int] = None
    actual: Optional[int] = None


@dataclass(eq=False)
class _Frozen:
    """One buffer frozen for the duration of a rendezvous round."""

    arr: np.ndarray
    prior_writeable: bool
    crc: int
    owner_local: int
    owner_global: int


def _arrays_of(payload: Any) -> List[np.ndarray]:
    if isinstance(payload, np.ndarray):
        return [payload]
    out: List[np.ndarray] = []
    if isinstance(payload, (list, tuple)):
        for p in payload:
            if type(p) is not SpecArray:
                out.extend(_arrays_of(p))
    return out


class BufferRaceDetector:
    """Ownership tracker for numpy buffers handed to collectives.

    While a round is in flight every real payload is made read-only; at
    round completion buffers are released unless a *different* rank's
    result aliases them (``np.shares_memory``), in which case the buffer
    stays frozen as a recorded loan until :meth:`final_release` — mutating
    it raises numpy's read-only ``ValueError`` at the guilty call site,
    which is exactly the "mutation while in flight" the detector exists to
    catch.  Loans whose bytes changed anyway (mutation through an aliasing
    base array that escaped the freeze) are reported as violations.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._loaned: List[Tuple[_Frozen, str, int]] = []
        self.loans: List[Dict[str, Any]] = []
        self.violations: List[SharedBufferRace] = []

    def reset(self) -> None:
        with self._lock:
            self.release([f for f, _, _ in self._loaned])
            self._loaned.clear()
            self.loans.clear()
            self.violations.clear()

    def acquire(self, payloads: Dict[int, Any],
                to_global: Sequence[int]) -> List[_Frozen]:
        """Freeze every real payload buffer of a filling round; returns the
        token to pass back to :meth:`verify_and_release`."""
        token: List[_Frozen] = []
        for local, p in payloads.items():
            if type(p) is SpecArray:
                continue
            for arr in _arrays_of(p):
                prior = bool(arr.flags.writeable)
                if prior:
                    arr.flags.writeable = False
                token.append(_Frozen(
                    arr, prior, payload_checksum(arr), local, to_global[local]
                ))
        return token

    def verify_and_release(self, op: str, token: List[_Frozen],
                           results: Dict[int, Any],
                           to_global: Sequence[int]) -> None:
        """Check in-flight integrity, record cross-rank aliases as loans
        (kept frozen), release everything else."""
        loaned: List[_Frozen] = []
        for entry in token:
            if payload_checksum(entry.arr) != entry.crc:
                raise SharedBufferRace(
                    op, entry.owner_global,
                    "input buffer mutated while the collective was in flight",
                )
            borrowers = [
                to_global[local]
                for local, res in results.items()
                if local != entry.owner_local and any(
                    np.shares_memory(r, entry.arr) for r in _arrays_of(res)
                )
            ]
            if borrowers:
                loaned.append(entry)
                with self._lock:
                    self._loaned.append((entry, op, entry.owner_global))
                    self.loans.append({
                        "op": op,
                        "owner": entry.owner_global,
                        "borrowers": borrowers,
                    })
        self.release([e for e in token if e not in loaned])

    def final_release(self) -> List[SharedBufferRace]:
        """End of run: verify loaned buffers were never mutated, then
        restore their writeable flags.  Returns (and records) violations."""
        with self._lock:
            out = []
            for entry, op, owner in self._loaned:
                if payload_checksum(entry.arr) != entry.crc:
                    out.append(SharedBufferRace(
                        op, owner,
                        "loaned buffer mutated while a peer rank still "
                        "held a reference to it",
                    ))
            self.release([f for f, _, _ in self._loaned])
            self._loaned.clear()
            self.violations.extend(out)
            return list(out)

    @staticmethod
    def release(entries: List[_Frozen]) -> None:
        """Restore the writeable flag of every frozen buffer in ``entries``."""
        for entry in entries:
            if entry.prior_writeable:
                try:
                    entry.arr.flags.writeable = True
                except ValueError:  # view of a read-only base
                    pass


class CommSanitizer(Observer):
    """Runtime cross-rank correctness checker (see module docstring).

    Parameters
    ----------
    checksum:
        Hash payloads on both sides of every transfer and attach result
        digests to collective records and trace spans.
    race:
        Enable the :class:`BufferRaceDetector`.
    replay:
        A golden document (from :func:`repro.sanitize.replay.load_golden`)
        or a path to one; the live op stream is conformance-checked against
        it and diverging ops raise :class:`ReplayDivergence`.
    """

    def __init__(self, *, checksum: bool = False, race: bool = False,
                 replay: Optional[Any] = None) -> None:
        self.checksum = checksum
        self.race_detector = BufferRaceDetector() if race else None
        if isinstance(replay, str):
            replay = load_golden(replay)
        self._replay: Optional[Dict[str, Any]] = replay
        self._lock = threading.Lock()
        self._streams: Dict[int, List[OpRecord]] = {}
        self._send_crcs: Dict[Any, List[int]] = {}
        #: per in-flight round, by (group, seq): each member's spec, and
        #: the race detector's freeze of its payloads
        self._specs: Dict[Tuple[Any, int], Dict[int, CollectiveSpec]] = {}
        self._frozen: Dict[Tuple[Any, int], List[_Frozen]] = {}
        #: rendered call signatures by (op, shape, dtype, *params): a
        #: program repeats a handful of distinct calls.  Interned, so equal
        #: signatures are one object and a round compares them by identity
        self._signatures: Dict[tuple, str] = {}
        self._world = 0
        self.events: List[ChecksumEvent] = []
        self.rounds_checked = 0
        self.mismatches = 0
        self.desyncs = 0
        self.p2p_checked = 0

    # -- lifecycle ---------------------------------------------------------

    #: its ``on_<event>`` methods join the runtime's lifecycle hooks
    slot = "sanitizer"

    def _attach(self, runtime: Any) -> None:
        self._world = runtime.world_size

    def on_begin(self, runtime: Any) -> None:
        """Per-run reset."""
        with self._lock:
            self._streams.clear()
            self._send_crcs.clear()
            self._specs.clear()
            self._frozen.clear()
            self._world = runtime.world_size
            self.events.clear()
            self.rounds_checked = 0
            self.mismatches = 0
            self.desyncs = 0
            self.p2p_checked = 0
        if self.race_detector is not None:
            self.race_detector.reset()

    def on_end(self, runtime: Any, ok: bool) -> None:
        """Post-run: release race-detector freezes; on a clean replay run,
        a golden stream the program did not finish is itself a divergence."""
        if self.race_detector is not None:
            self.race_detector.final_release()
        if ok and self._replay is not None:
            with self._lock:
                for rank in sorted(self._replay["streams"]):
                    golden = self._replay["streams"][rank]
                    live = len(self._streams.get(rank, ()))
                    if live < len(golden):
                        raise ReplayDivergence(rank, live, golden[live], None)

    # -- rendezvous hooks ----------------------------------------------------

    def on_enter(self, rank: int, now: float, group: Any, seq: int, op: str,
                 payload: Any, params: Dict[str, Any]) -> None:
        """``rank`` declares the call it is entering: its
        :class:`CollectiveSpec`, kept for the round's checks, naming the
        nearest frame outside the comm and sanitizer internals."""
        key = (op, getattr(payload, "shape", None),
               getattr(payload, "dtype", None), *params.items())
        signature = self._signatures.get(key)
        if signature is None:
            signature = self._signatures[key] = sys.intern(
                call_signature(op, payload, **params))
        contributes = True
        if op == "broadcast":
            contributes = group.ranks[int(params["root"])] == rank
        # the call site is walked here, with no frame of its own: whether a
        # file is internal is asked once per file, the line read live
        f = sys._getframe(1)
        while f is not None and _is_internal(f.f_code.co_filename):
            f = f.f_back
        callsite = "<unknown>"
        if f is not None:
            short = os.sep.join(f.f_code.co_filename.split(os.sep)[-2:])
            callsite = f"{short}:{f.f_lineno} in {f.f_code.co_name}"
        spec = CollectiveSpec(
            op=op,
            signature=signature,
            global_rank=rank,
            group_ranks=tuple(group.ranks),
            seq=seq,
            callsite=callsite,
            contributes=contributes,
        )
        # no lock: both dict writes are one C call each, atomic under the GIL
        self._specs.setdefault((group, seq), {})[group.local_of[rank]] = spec

    def on_finalize(self, group: Any, rnd: Any) -> None:
        """A round filled: every member's interned signature must be the
        first's (the sides are built only for a mismatch); then, if some
        payload is a real buffer, freeze them while it is in flight."""
        specs = self._specs.get((group, rnd.seq))
        if specs:
            first = next(iter(specs.values())).signature
            for s in specs.values():
                if s.signature is not first:
                    self._mismatch(group, rnd.seq, specs)
            with self._lock:
                self.rounds_checked += 1
        detector = self.race_detector
        if detector is not None:
            for p in rnd.payloads.values():
                if p is not None and type(p) is not SpecArray and (
                        type(p) is not list or set(map(type, p)) != {SpecArray}):
                    token = detector.acquire(rnd.payloads, group.ranks)
                    if token:
                        self._frozen[group, rnd.seq] = token
                    break

    def _mismatch(self, group: Any, seq: int,
                  specs: Dict[int, CollectiveSpec]) -> None:
        """Raise the round's :class:`CollectiveMismatch`: each signature
        with its ranks, and every member's call site."""
        sides: Dict[str, List[int]] = {}
        callsites: Dict[int, str] = {}
        for local in sorted(specs):
            g = group.ranks[local]
            sides.setdefault(specs[local].signature, []).append(g)
            callsites[g] = specs[local].callsite
        with self._lock:
            self.mismatches += 1
        raise CollectiveMismatch(group.ranks, seq, sides, callsites)

    def on_complete(self, group: Any, rnd: Any) -> None:
        """A round placed: race verification, each member's op-stream record
        (with checksums when enabled), replay conformance, and the round's
        trace-span tags."""
        seq, payloads, results = rnd.seq, rnd.payloads, rnd.results
        specs = self._specs.pop((group, seq), None)
        op = next(iter(specs.values())).op if specs else "collective"
        token = self._frozen.pop((group, seq), None)
        if token is not None:
            self.race_detector.verify_and_release(
                op, token, results, group.ranks
            )
        ranks, checksum, crcs = group.ranks, self.checksum, _SPEC_CRCS
        digest: Optional[int] = None
        with self._lock:
            streams, replay = self._streams, self._replay
            for local in sorted(payloads):
                spec = specs.get(local) if specs else None
                # one record per member, built in place (DESIGN §4s)
                rec = {"kind": "collective", "op": op,
                       "sig": spec.signature if spec else op,
                       "group": list(ranks), "seq": seq}
                if checksum:
                    fields = (("rcrc", results.get(local)),)
                    if spec is None or spec.contributes:
                        fields = (("crc", payloads[local]),) + fields
                    for name, p in fields:
                        # a spec payload's or spec chunk list's CRC is read
                        # off the memo inline: a frame only for a miss
                        if type(p) is list and set(map(type, p)) == {SpecArray}:
                            crc = len(p)
                            for c in p:
                                sub = (crcs.get((c.shape, c.dtype))
                                       or _spec_crc(c.shape, c.dtype))
                                crc = zlib.crc32(sub.to_bytes(4, "little"), crc)
                            rec[name] = crc
                        else:
                            rec[name] = (type(p) is SpecArray and crcs.get(
                                (p.shape, p.dtype)) or payload_checksum(p))
                    digest = zlib.crc32(rec["rcrc"].to_bytes(4, "little"),
                                        digest or 0)
                stream = streams.setdefault(ranks[local], [])
                stream.append(rec)
                if replay is not None:
                    self._check_replay_locked(ranks[local], len(stream) - 1, rec)
        extra: Dict[str, Any] = {"sanitized": True}
        if digest is not None:
            extra["digest"] = digest
        rnd.trace_extra = extra

    def on_fail(self, group: Any, rnd: Any) -> None:
        """A round failed: forget its specs, restore its frozen buffers."""
        self._specs.pop((group, rnd.seq), None)
        token = self._frozen.pop((group, rnd.seq), None)
        if token:
            self.race_detector.release(token)

    def on_solo(self, rank: int, group: Any, seq: int, op: str, cost: Any,
                itemsize: int, payloads: Dict[int, Any],
                results: Dict[int, Any], extra: Dict[str, Any]) -> None:
        """A one-member round: nothing to cross-check, so it is counted
        checked and completed, and its span tags go into ``extra``."""
        with self._lock:
            self.rounds_checked += 1
        rnd = Round(seq)
        rnd.payloads, rnd.results = payloads, results
        self.on_complete(group, rnd)
        extra.update(rnd.trace_extra)

    # -- desync detection ----------------------------------------------------

    def on_stall(self, waits: Dict[int, Any], rank: int) -> CollectiveDesync:
        """Every live rank is parked (DESIGN §4h); ``waits`` holds each
        one's wait, a ``(group, round)`` or a receive's mailbox key, and a
        rank not in it has exited (a sanitized run starts every rank at
        once).  The verdict on ``rank``'s wait: the ranks it needs that
        exited, or else every parked rank it waits on in turn, each with
        its own wait — marked on the tracer if one is installed."""
        wait = waits[rank]
        if len(wait) == 2:
            group, rnd = wait
            specs = self._specs.get((group, rnd.seq)) or {}
            ranks, seq = group.ranks, rnd.seq
            op = next(iter(specs.values())).op if specs else "collective"
            waiting = sorted(ranks[l] for l in rnd.payloads)
            callsites = {ranks[l]: s.callsite for l, s in specs.items()
                         if s.callsite}
        else:
            src, dst, (_, seq) = wait
            ranks, op, waiting, callsites = (src, dst), "recv", [dst], {}
        need = self._wait(rank, wait)[0]
        guilty = sorted(g for g in need if g not in waits)
        detail = ("already exited the program without "
                  + ("sending it" if op == "recv" else "reaching it"))
        if not guilty:  # a rank it waits for is parked too, or exited
            walked: Dict[int, str] = {}
            while need:
                g = need.pop(0)
                if g not in walked and g not in waiting:
                    more, walked[g] = (self._wait(g, waits[g]) if g in waits
                                       else ([], f"rank {g} exited"))
                    need += more
            guilty = sorted(walked)
            detail = "are themselves stuck: " + "; ".join(
                walked[g] for g in guilty)
        with self._lock:
            self.desyncs += 1
        err = CollectiveDesync(ranks, seq, op, waiting, guilty, detail,
                               callsites)
        tracer = self._runtime.tracer
        if tracer is not None:
            tracer.instant(rank, f"sanitizer:{type(err).__name__}",
                           self._runtime.clocks[rank].time)
        return err

    def _wait(self, rank: int, wait: Any) -> Tuple[List[int], str]:
        """The ranks a parked rank's wait needs (a round's missing members,
        a receive's sender), and the wait described."""
        if len(wait) == 2:
            group, rnd = wait
            spec = self._specs.get((group, rnd.seq), {}).get(
                group.local_of[rank])
            what = spec.describe() if spec else "a collective"
            return ([g for l, g in enumerate(group.ranks)
                     if l not in rnd.payloads],
                    f"rank {rank} in {what} on group {group.ranks}")
        return [wait[0]], f"rank {rank} in recv from rank {wait[0]}"

    # -- p2p hooks -----------------------------------------------------------

    def _p2p_signature(self, label: tuple, payload: Any) -> str:
        """The p2p label memo's miss path: render ``send((4,), 'float32')``
        for ``label``, its (kind, shape, dtype) key in the call-signature
        memo, which the p2p hooks read inline."""
        sig = self._signatures[label] = f"{label[0]}{_shape_dtype(payload)}"
        return sig

    def on_sent(self, src: int, dst: int, key: Any, payload: Any,
                *_facts: Any) -> None:
        """A message leaves ``src`` for ``dst``: its record, and — under
        ``checksum`` — its CRC, queued for the receiver to check.  Label
        and spec CRC come off their memos inline, as in :meth:`on_complete`."""
        label = ("send", getattr(payload, "shape", None),
                 getattr(payload, "dtype", None))
        rec = {"kind": "send", "op": "send",
               "sig": self._signatures.get(label)
               or self._p2p_signature(label, payload), "peer": dst}
        crc = None
        if self.checksum:
            crc = rec["crc"] = (type(payload) is SpecArray and _SPEC_CRCS.get(
                (payload.shape, payload.dtype)) or payload_checksum(payload))
        with self._lock:
            if crc is not None:
                self._send_crcs.setdefault(key, []).append(crc)
            stream = self._streams.setdefault(src, [])
            stream.append(rec)
            if self._replay is not None:
                self._check_replay_locked(src, len(stream) - 1, rec)

    def on_received(self, src: int, dst: int, key: Any, payload: Any,
                    *_facts: Any) -> None:
        """``dst`` took the message off the wire: its record, and the CRC
        check against what ``src`` sent."""
        label = ("recv", getattr(payload, "shape", None),
                 getattr(payload, "dtype", None))
        rec = {"kind": "recv", "op": "recv",
               "sig": self._signatures.get(label)
               or self._p2p_signature(label, payload), "peer": src}
        if self.checksum:
            crc = rec["crc"] = (type(payload) is SpecArray and _SPEC_CRCS.get(
                (payload.shape, payload.dtype)) or payload_checksum(payload))
            with self._lock:
                fifo = self._send_crcs.get(key)
                expected = fifo.pop(0) if fifo else None
                self.p2p_checked += 1
            if expected is not None and expected != crc:
                self.events.append(ChecksumEvent(
                    "p2p", "recv", src, dst, injected=False, healed=False,
                    expected=expected, actual=crc,
                ))
                raise ChecksumMismatch(
                    "recv", src, dst, expected, crc, injected=False
                )
        with self._lock:
            stream = self._streams.setdefault(dst, [])
            stream.append(rec)
            if self._replay is not None:
                self._check_replay_locked(dst, len(stream) - 1, rec)

    def on_injected(self, kind: str, op: str, src: int, dst: int,
                    healed: bool) -> None:
        """The fault injector corrupted a p2p attempt (the receiver-side
        checksum caught it and the retry rule retransmits) or glitched a
        collective round: attributed to the plan, healed unless the retry
        budget ran out."""
        with self._lock:
            self.events.append(ChecksumEvent(
                kind, op, src, dst, injected=True, healed=healed,
            ))

    # -- streams / replay ----------------------------------------------------

    def _check_replay_locked(self, rank: int, idx: int, rec: OpRecord) -> None:
        """Replay conformance: ``rec``, just appended at ``idx`` of ``rank``'s
        stream, must equal the golden record there (replay set, lock held)."""
        golden = self._replay["streams"].get(rank, [])
        expected = golden[idx] if idx < len(golden) else None
        if expected is None or not records_equal(expected, rec):
            raise ReplayDivergence(rank, idx, expected, rec)

    def streams(self) -> Dict[int, List[OpRecord]]:
        with self._lock:
            return {r: list(s) for r, s in self._streams.items()}

    def golden(self) -> Dict[str, Any]:
        """The current run's op streams as a golden document."""
        return {
            "version": GOLDEN_VERSION,
            "world_size": self._world,
            "streams": self.streams(),
        }

    def save_golden(self, path: str) -> None:
        save_golden(path, self._world, self.streams())

    def collective_digests(self, rank: int = 0) -> List[Tuple[str, int, Optional[int]]]:
        """``(op, seq, result-crc)`` stream for one rank — bitwise parity
        across collective algorithms is asserted by comparing these."""
        with self._lock:
            return [
                (r["op"], r.get("seq", -1), r.get("rcrc"))
                for r in self._streams.get(rank, [])
                if r["kind"] == "collective"
            ]

    # -- reporting -----------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "rounds_checked": self.rounds_checked,
                "mismatches": self.mismatches,
                "desyncs": self.desyncs,
                "p2p_checked": self.p2p_checked,
                "events": list(self.events),
                "loans": (list(self.race_detector.loans)
                          if self.race_detector else []),
                "race_violations": (list(self.race_detector.violations)
                                    if self.race_detector else []),
                "stream_lengths": {
                    r: len(s) for r, s in sorted(self._streams.items())
                },
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CommSanitizer(checksum={self.checksum}, "
            f"race={self.race_detector is not None}, "
            f"rounds={self.rounds_checked})"
        )
