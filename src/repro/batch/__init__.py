"""The fast sweep engine's record-once machinery.

Groups grid points that share a kernel and cost model, records the
shared architectural execution once on record-mode compiled code, and
expands it into a guest stream that each point's generated lockstep
engine (:mod:`repro.lockstep`) replays cycle-accurately over its own
:class:`~repro.batch.replay.ReplayCore` - outages, stalls, threshold
adaptation and all - bit-identically to serial interpretation. Select
it with ``SimConfig(engine="fast")``, ``--engine fast`` on ``repro
sweep``/``repro campaign``, or ``REPRO_ENGINE=fast`` in the
environment. See ``docs/batch.md`` for the stream layout, bail
discipline, and the engine rules.
"""

from repro.batch.engine import (batch_stats, build_replay_system,
                                clear_streams, get_stream, iter_outcomes,
                                plan, resolve_config)
from repro.batch.record import (BUDGET_SLACK, STREAM_CAP, RecordingBail,
                                RecordingMemsys, record_run,
                                recording_costs)
from repro.batch.replay import ReplayCore
from repro.batch.stream import (GuestStream, build_stream,
                                stream_meta_stats)

__all__ = [
    "BUDGET_SLACK",
    "STREAM_CAP",
    "GuestStream",
    "RecordingBail",
    "RecordingMemsys",
    "ReplayCore",
    "batch_stats",
    "build_replay_system",
    "build_stream",
    "clear_streams",
    "get_stream",
    "iter_outcomes",
    "plan",
    "record_run",
    "recording_costs",
    "resolve_config",
    "stream_meta_stats",
]
