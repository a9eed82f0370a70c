"""Runtime error types."""

from __future__ import annotations


class SpmdAborted(RuntimeError):
    """Raised inside a rank when the SPMD program is aborting because some
    other rank failed; carries the rank that caused the abort."""

    def __init__(self, failed_rank: int, cause: BaseException) -> None:
        self.failed_rank = failed_rank
        self.cause = cause
        super().__init__(
            f"SPMD program aborted: rank {failed_rank} failed with "
            f"{type(cause).__name__}: {cause}"
        )


class RemoteRankError(RuntimeError):
    """Raised by :meth:`SpmdRuntime.run` on the launcher thread when a rank
    raised; wraps the original exception."""

    def __init__(self, rank: int, cause: BaseException) -> None:
        self.rank = rank
        self.cause = cause
        super().__init__(f"rank {rank} raised {type(cause).__name__}: {cause}")


class RankFailure(RuntimeError):
    """A permanent failure of one rank (injected crash or detected dead
    peer).  Carries where in the program the rank died so a supervisor can
    decide which checkpoint to resume from."""

    def __init__(self, rank: int, step: "int | None" = None,
                 sim_time: "float | None" = None) -> None:
        self.rank = rank
        self.step = step
        self.sim_time = sim_time
        if step is not None:
            where = f" at step {step}"
        elif sim_time is not None:
            where = f" at t={sim_time:.6f}s"
        else:
            where = ""
        super().__init__(f"rank {rank} failed{where}")


class CollectiveTimeout(RuntimeError):
    """A communication operation gave up: either its retransmission budget
    was exhausted (``attempts`` > 0, simulated network fault) or it can
    never complete, every live rank being parked on a wait no running rank
    can satisfy (``attempts`` 0, raised by the lowest parked rank)."""

    def __init__(self, op: str, ranks, attempts: int = 0) -> None:
        self.op = op
        self.ranks = tuple(ranks)
        self.attempts = attempts
        if attempts:
            detail = f"timed out after {attempts} failed attempts"
        else:
            detail = "can never complete: every live rank is parked"
        super().__init__(f"{op} over ranks {list(self.ranks)} {detail}")
