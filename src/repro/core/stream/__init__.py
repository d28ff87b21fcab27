"""Streaming tier: exact batched maintenance and snapshots.

The dynamic/streaming subsystem:

- :class:`StreamingButterflyCounter` — exact global + per-vertex counts
  under *batched* insert/delete updates, vectorised with the panel
  wedge kernels; snapshot/restore included.
- :class:`DynamicButterflyCounter` — the original per-edge counter,
  kept as the simple reference implementation and bench baseline.
- :mod:`~repro.core.stream.script` — the edge-script format shared by
  the CLI ``stream`` subcommand and the conformance harness.
- :mod:`~repro.core.stream.snapshot` — versioned, checksummed counter
  serialisation with typed error hierarchy.
"""

from repro.core.stream.counter import (
    STREAM_APPLY_STRATEGIES,
    StreamingButterflyCounter,
)
from repro.core.stream.dynamic import DynamicButterflyCounter
from repro.core.stream.snapshot import (
    SnapshotChecksumError,
    SnapshotError,
    SnapshotFormatError,
    SnapshotTruncatedError,
    SnapshotVersionError,
)

__all__ = [
    "StreamingButterflyCounter",
    "STREAM_APPLY_STRATEGIES",
    "DynamicButterflyCounter",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotVersionError",
    "SnapshotChecksumError",
    "SnapshotTruncatedError",
]
