"""repro.sanitize — cross-rank collective-mismatch detection, payload
checksums, shared-buffer race detection and deterministic record/replay.

Typical use::

    from repro.sanitize import CommSanitizer

    san = CommSanitizer(checksum=True)
    rt = SpmdRuntime(cluster, sanitize=san)
    rt.run(program)            # CollectiveMismatch / CollectiveDesync name
                               # the guilty ranks instead of hanging
    san.save_golden("golden.json")

    # later: conformance-check a changed run against the recording
    rt2 = SpmdRuntime(cluster, sanitize=CommSanitizer(
        checksum=True, replay="golden.json"))
    rt2.run(changed_program)   # ReplayDivergence at the first drifted op

Or declaratively through the config schema::

    repro.launch({"sanitize": {"checksum": True}}, cluster, fn)
"""

from repro.sanitize.errors import (
    ChecksumMismatch,
    CollectiveDesync,
    CollectiveMismatch,
    ReplayDivergence,
    SanitizerError,
    SharedBufferRace,
)
from repro.sanitize.replay import (
    GOLDEN_VERSION,
    OpRecord,
    first_divergence,
    load_golden,
    records_equal,
    save_golden,
)
from repro.sanitize.sanitizer import (
    BufferRaceDetector,
    ChecksumEvent,
    CommSanitizer,
    payload_checksum,
)
from repro.sanitize.spec import CollectiveSpec, call_signature

__all__ = [
    "BufferRaceDetector",
    "ChecksumEvent",
    "ChecksumMismatch",
    "CollectiveDesync",
    "CollectiveMismatch",
    "CollectiveSpec",
    "CommSanitizer",
    "GOLDEN_VERSION",
    "OpRecord",
    "ReplayDivergence",
    "SanitizerError",
    "SharedBufferRace",
    "call_signature",
    "first_divergence",
    "load_golden",
    "payload_checksum",
    "records_equal",
    "save_golden",
]
