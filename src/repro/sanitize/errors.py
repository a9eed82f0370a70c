"""Typed sanitizer errors.

Every error the sanitizer raises names the guilty rank(s) and, where the
information exists, the Python call sites that issued the divergent
operations — the whole point is turning "it hung" or "the loss is wrong"
into an actionable one-line diagnosis.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple


class SanitizerError(RuntimeError):
    """Base class for every error raised by :mod:`repro.sanitize`."""


def _format_side(ranks: Sequence[int], sig: str,
                 callsites: Dict[int, str]) -> str:
    where = "; ".join(
        f"rank {r} @ {callsites[r]}" for r in ranks if r in callsites
    )
    head = f"ranks {list(ranks)}: {sig}"
    return f"{head} ({where})" if where else head


class CollectiveMismatch(SanitizerError):
    """Member ranks met in the same rendezvous round with incompatible
    calls (different op / shape / dtype / reduce op / root / axis).

    ``sides`` maps each distinct call signature to the global ranks that
    issued it; ``divergent_ranks`` is every rank outside the majority
    signature (ties broken by lowest rank set).
    """

    def __init__(self, group_ranks: Sequence[int], seq: int,
                 sides: Dict[str, List[int]],
                 callsites: Optional[Dict[int, str]] = None) -> None:
        self.group_ranks = tuple(group_ranks)
        self.seq = seq
        self.sides = {sig: list(ranks) for sig, ranks in sides.items()}
        self.callsites = dict(callsites or {})
        majority = max(
            self.sides.values(), key=lambda ranks: (len(ranks), -min(ranks))
        )
        self.divergent_ranks = tuple(sorted(
            r for ranks in self.sides.values() for r in ranks
            if ranks is not majority
        ))
        lines = [
            _format_side(ranks, sig, self.callsites)
            for sig, ranks in sorted(self.sides.items(),
                                     key=lambda kv: min(kv[1]))
        ]
        super().__init__(
            f"collective mismatch in group {list(self.group_ranks)} at "
            f"seq {seq}: " + " | ".join(lines)
        )


class CollectiveDesync(SanitizerError):
    """Some ranks wait in a collective (or a ``recv``: ``op`` is "recv",
    ``group_ranks`` the (src, dst) pair and ``seq`` the tag) that the others
    will never reach — they already exited the program, or are parked on
    each other.  The verdict of a deadlock, every live rank being parked,
    in place of a bare :class:`~repro.runtime.errors.CollectiveTimeout`.
    """

    def __init__(self, group_ranks: Sequence[int], seq: int, op: str,
                 waiting: Sequence[int], missing: Sequence[int],
                 detail: str, callsites: Optional[Dict[int, str]] = None) -> None:
        self.group_ranks = tuple(group_ranks)
        self.seq = seq
        self.op = op
        self.waiting_ranks = tuple(waiting)
        self.missing_ranks = tuple(missing)
        self.callsites = dict(callsites or {})
        where = "; ".join(
            f"rank {r} @ {self.callsites[r]}"
            for r in self.waiting_ranks if r in self.callsites
        )
        at = f"tag {seq!r}" if op == "recv" else f"seq {seq}"
        msg = (
            f"collective desync: ranks {list(self.waiting_ranks)} are in "
            f"{op!r} (group {list(self.group_ranks)}, {at}) but ranks "
            f"{list(self.missing_ranks)} {detail}"
        )
        if where:
            msg += f" [{where}]"
        super().__init__(msg)


class ChecksumMismatch(SanitizerError):
    """A payload's bytes changed between the producer-side and
    consumer-side hash — in-flight corruption.  ``injected`` is True when
    the fault injector owns the corruption (a scheduled
    :class:`~repro.faults.plan.MessageFault`), False for a logic bug.
    """

    def __init__(self, op: str, src: int, dst: int,
                 expected: int, actual: int, injected: bool = False) -> None:
        self.op = op
        self.src = src
        self.dst = dst
        self.expected = expected
        self.actual = actual
        self.injected = injected
        origin = "fault-injected" if injected else "NOT injected: logic bug"
        super().__init__(
            f"{op} payload checksum mismatch on link {src}->{dst}: "
            f"expected {expected:#010x}, got {actual:#010x} ({origin})"
        )


class SharedBufferRace(SanitizerError):
    """A numpy buffer handed to a communication call was mutated while in
    flight, or is aliased across ranks in a way a later mutation would
    silently corrupt."""

    def __init__(self, op: str, rank: int, detail: str) -> None:
        self.op = op
        self.rank = rank
        super().__init__(
            f"shared-buffer race in {op!r} on rank {rank}: {detail}"
        )


class ReplayDivergence(SanitizerError):
    """The live op stream diverged from the golden recording.

    ``step`` is the index into the rank's op stream (0-based); ``expected``
    / ``got`` are op-record dicts (op, signature, group, checksum).
    """

    def __init__(self, rank: int, step: int,
                 expected: Optional[Dict[str, Any]],
                 got: Optional[Dict[str, Any]]) -> None:
        self.rank = rank
        self.step = step
        self.expected = expected
        self.got = got

        def _short(rec: Optional[Dict[str, Any]]) -> str:
            if rec is None:
                return "<no op>"
            text = f"{rec.get('op')}[{rec.get('sig')}]"
            if crc_only and rec.get("crc") is not None:
                text += f" crc={rec['crc']:#010x}"
            return text

        crc_only = (
            expected is not None and got is not None
            and expected.get("sig") == got.get("sig")
            and expected.get("crc") != got.get("crc")
        )
        detail = " (same op, payload bytes differ)" if crc_only else ""
        super().__init__(
            f"replay divergence at rank {rank} step {step}: golden has "
            f"{_short(expected)}, run issued {_short(got)}{detail}"
        )
