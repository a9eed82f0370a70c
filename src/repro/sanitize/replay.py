"""Record/replay conformance for SPMD op streams.

Recording mode logs, per global rank, the ordered stream of communication
operations the rank issued (collectives and point-to-point transfers) with
their call signatures and — under checksum mode — payload hashes.  The
stream is saved as a *golden file* (JSON); a later run replayed against the
golden raises :class:`~repro.sanitize.errors.ReplayDivergence` at the first
operation where the live stream differs, naming the rank, the step index
into its stream, and the expected vs actual op.

Golden format (version 1)::

    {"version": 1, "world_size": 4,
     "streams": {"0": [{"kind": "collective", "op": "all_reduce",
                        "sig": "all_reduce(shape=(8,), ...)",
                        "group": [0, 1, 2, 3], "seq": 0, "crc": 305419896},
                       ...],
                 ...}}

``crc`` is present only when the recording run had checksum mode on;
replay compares it only when both sides carry one, so a shape-only golden
still validates a checksummed run's structure.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.sanitize.errors import ReplayDivergence

GOLDEN_VERSION = 1

#: one stream entry, keys in this order: ``kind``, ``op``, ``sig``, then
#: ``group`` and ``seq`` (collective) or ``peer`` (p2p), then ``crc`` and
#: ``rcrc`` under checksum mode — :class:`CommSanitizer` builds it in place
OpRecord = Dict[str, Any]


def records_equal(a: OpRecord, b: OpRecord, check_crc: bool = True) -> bool:
    """Structural equality; checksums compared only when both sides have
    one (a shape-only golden validates a checksummed replay)."""
    for key in ("kind", "op", "sig", "group", "seq", "peer"):
        if a.get(key) != b.get(key):
            return False
    if check_crc and "crc" in a and "crc" in b and a["crc"] != b["crc"]:
        return False
    return True


def save_golden(path: str, world_size: int,
                streams: Dict[int, List[OpRecord]]) -> None:
    doc = {
        "version": GOLDEN_VERSION,
        "world_size": int(world_size),
        "streams": {str(r): list(s) for r, s in sorted(streams.items())},
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def load_golden(path: str) -> Dict[str, Any]:
    with open(path) as f:
        doc = json.load(f)
    version = doc.get("version")
    if version != GOLDEN_VERSION:
        raise ValueError(
            f"unsupported golden file version {version!r} in {path}; "
            f"this build reads version {GOLDEN_VERSION}"
        )
    doc["streams"] = {int(r): list(s) for r, s in doc["streams"].items()}
    return doc


def first_divergence(
    golden: Dict[str, Any], other: Dict[str, Any], check_crc: bool = True,
) -> Optional[ReplayDivergence]:
    """The earliest (step, rank) at which two recorded runs differ, or
    ``None`` when they conform.  Length mismatches count as divergences at
    the first missing/extra step."""
    ranks = sorted(set(golden["streams"]) | set(other["streams"]))
    depth = max(
        (len(s) for doc in (golden, other) for s in doc["streams"].values()),
        default=0,
    )
    for step in range(depth):
        for rank in ranks:
            a_stream = golden["streams"].get(rank, [])
            b_stream = other["streams"].get(rank, [])
            a = a_stream[step] if step < len(a_stream) else None
            b = b_stream[step] if step < len(b_stream) else None
            if a is None and b is None:
                continue
            if a is None or b is None or not records_equal(a, b, check_crc):
                return ReplayDivergence(rank, step, a, b)
    return None
