"""The fast sweep engine's record-once machinery.

Records each kernel's architectural execution once on the reference
interpreter, keeps it as one stream skeleton per kernel, and expands
that into a guest stream per cost family, which each point's generated
lockstep engine (:mod:`repro.lockstep`) replays cycle-accurately over
its own :class:`~repro.batch.replay.ReplayCore` - outages, stalls,
threshold adaptation and all - bit-identically to serial
interpretation. Select
it with ``SimConfig(engine="fast")``, ``--engine fast`` on ``repro
sweep``/``repro campaign``, or ``REPRO_ENGINE=fast`` in the
environment. See ``docs/batch.md`` for the stream layout, bail
discipline, and the engine rules.
"""

from repro.batch.engine import (batch_stats, build_replay_system,
                                clear_streams, get_stream, iter_outcomes,
                                resolve_config)
from repro.batch.record import (BUDGET_SLACK, STREAM_CAP, RecordingBail,
                                RecordingMemsys, record_run,
                                recording_costs)
from repro.batch.replay import ReplayCore
from repro.batch.stream import GuestStream, StreamSkeleton, build_stream

__all__ = [
    "BUDGET_SLACK",
    "STREAM_CAP",
    "GuestStream",
    "RecordingBail",
    "RecordingMemsys",
    "ReplayCore",
    "StreamSkeleton",
    "batch_stats",
    "build_replay_system",
    "build_stream",
    "clear_streams",
    "get_stream",
    "iter_outcomes",
    "record_run",
    "recording_costs",
    "resolve_config",
]
