"""Unified cache reporting: one struct over disk + process caches.

``repro cache stats`` and the warm-cache CI check read everything
through :func:`cache_report`: the store's on-disk usage per artifact
class, this process's store event counters, and the sizes/counters of
every in-memory process-global cache (lockstep engines, the batch
engine's kernels, and the shared decode memo).
"""

from __future__ import annotations

from repro.store.core import disk_usage, store_root, store_stats


def cache_report(include_disk: bool = True) -> dict:
    """The whole caching picture as one JSON-able dict."""
    from repro.batch.engine import batch_stats
    from repro.cpu.core import decode_cache_stats
    from repro.lockstep.codegen import engine_cache_stats

    root = store_root()
    report: dict = {
        "root": root,
        "enabled": root is not None,
        "events": store_stats(),
        "process_caches": {
            "lockstep": engine_cache_stats(),
            "batch": batch_stats(),
            "decode": decode_cache_stats(),
        },
    }
    if include_disk and root is not None:
        report["disk"] = disk_usage(root)
    return report
