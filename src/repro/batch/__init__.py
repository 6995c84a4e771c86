"""Batched multi-instance sweep execution (record once, replay many).

Groups grid points that share a kernel and cost model, records the
shared architectural execution once on record-mode compiled code, then
replays every point's cycle-accurate run - outages, stalls, threshold
adaptation and all - through the untouched ``System`` loop with a
stream-walking :class:`~repro.batch.replay.ReplayCore`, bit-identically
to serial interpretation. Enable with ``SimConfig(batch=True)``,
``--batch`` on the CLI, or ``REPRO_BATCH=1`` in the environment. See
``docs/batch.md`` for the stream layout, bail discipline, and the tier
pecking order.
"""

from repro.batch.engine import (ENV_VAR, batch_enabled, batch_stats,
                                build_replay_system, clear_streams,
                                effective_costs, get_stream,
                                maybe_run_batched,
                                maybe_run_chunk_batched, plan,
                                resolve_config, task_batch_eligible,
                                task_batchable,
                                warm_stream)
from repro.batch.record import (BUDGET_SLACK, STREAM_CAP, RecordingBail,
                                RecordingMemsys, record_run,
                                recording_costs)
from repro.batch.replay import ReplayCore
from repro.batch.stream import (GuestStream, build_stream,
                                stream_meta_stats)

__all__ = [
    "BUDGET_SLACK",
    "ENV_VAR",
    "STREAM_CAP",
    "GuestStream",
    "RecordingBail",
    "RecordingMemsys",
    "ReplayCore",
    "batch_enabled",
    "batch_stats",
    "build_replay_system",
    "build_stream",
    "clear_streams",
    "effective_costs",
    "get_stream",
    "maybe_run_batched",
    "maybe_run_chunk_batched",
    "plan",
    "record_run",
    "recording_costs",
    "resolve_config",
    "stream_meta_stats",
    "task_batch_eligible",
    "task_batchable",
    "warm_stream",
]
