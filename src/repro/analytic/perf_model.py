"""The analytic overlap term: what gradient traffic backward cannot hide."""

from __future__ import annotations


def overlap_exposed_seconds(
    comm_seconds: float, backward_compute_seconds: float
) -> float:
    """Exposed (non-hidden) communication time when gradient traffic is
    issued nonblocking from backward hooks: the part of ``comm_seconds``
    that does not fit behind the backward compute.

    This is the planning-side counterpart of the PR-5 overlap schedulers —
    the simulator proves overlap never *increases* step time, and this term
    gives the search a monotone analytic estimate of the benefit."""
    return max(float(comm_seconds) - max(backward_compute_seconds, 0.0), 0.0)
