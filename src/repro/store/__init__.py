"""Persistent content-addressed artifact store (see :mod:`.core`).

Public surface: the store core (roots, load/save, stats, GC), the
result memo (:mod:`.results`), generator fingerprints (:mod:`.keys`),
and the unified cache report (:mod:`.report`). The store holds data
only - recordings, skeletons and results - never generated code.
"""

from repro.store.core import (CLASSES, ENV_VAR, FORMAT, ArtifactStore,
                              clear_store, disk_usage, gc_store, get_store,
                              interp_tag, key_digest, reset_store_stats,
                              store_root, store_stats)
from repro.store.keys import modules_fingerprint, package_fingerprint
from repro.store.report import cache_report
from repro.store.results import (lookup_task, result_cache_enabled,
                                 result_from_payload, result_to_payload,
                                 store_task)

__all__ = [
    "ArtifactStore",
    "CLASSES",
    "ENV_VAR",
    "FORMAT",
    "cache_report",
    "clear_store",
    "disk_usage",
    "gc_store",
    "get_store",
    "interp_tag",
    "key_digest",
    "lookup_task",
    "modules_fingerprint",
    "package_fingerprint",
    "reset_store_stats",
    "result_cache_enabled",
    "result_from_payload",
    "result_to_payload",
    "store_root",
    "store_stats",
    "store_task",
]
