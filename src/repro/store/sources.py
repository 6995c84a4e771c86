"""Persisted generated-source plumbing + the A009 loaded-source ledger.

The codegen tiers (record-mode jit blocks/suffixes, memfast handlers,
lockstep column engines) call :func:`load_source` before rendering and
:func:`save_source` after: the store key is the tier's full in-memory
cache key plus its generator fingerprint, so a loaded source is by
construction what a fresh render *would* produce - the A005 discipline
applied across processes.

That "by construction" is itself audited: every source served from the
store is recorded here with a re-render closure, and the codegen
auditor's A009 contract (:func:`repro.lint.codegen_audit.
audit_store_loads`) re-renders each one from its inputs and demands
byte equality - so a tampered or stale cache entry is caught by
``repro audit``, without the per-load re-render that would erase the
warm-start savings.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.store.core import get_store
from repro.store.keys import modules_fingerprint

#: generator-module sets per source class: narrow enough that unrelated
#: edits keep the cache warm, wide enough that any module whose content
#: the rendered source depends on invalidates it
_JIT_MODULES = ("repro.jit.blocks", "repro.cpu.core", "repro.cpu.costs",
                "repro.isa.opcodes")
_MEMFAST_MODULES = ("repro.memfast.handlers",)
_LOCKSTEP_MODULES = ("repro.lockstep.codegen", "repro.lockstep.state",
                     "repro.cpu.core")

#: (unit, loaded source, re-render closure) per store-served source;
#: the auditor's A009 worklist. Bounded so an unbounded campaign cannot
#: grow it without limit - dropped entries are simply not audited.
_LOADED: list[tuple[str, str, Callable[[], str]]] = []
_LOADED_CAP = 4096
_LOADED_DROPPED = [0]


def jit_fingerprint() -> str:
    return modules_fingerprint(*_JIT_MODULES)


def memfast_fingerprint() -> str:
    return modules_fingerprint(*_MEMFAST_MODULES)


def lockstep_fingerprint() -> str:
    return modules_fingerprint(*_LOCKSTEP_MODULES)


def load_source(key_parts: tuple, unit: str,
                render: Callable[[], str]) -> str | None:
    """A persisted source for ``key_parts``, or None (miss/disabled).

    A hit is recorded in the A009 ledger with ``unit`` (the audit
    location) and ``render`` (the ground-truth re-render closure).
    """
    store = get_store()
    if store is None:
        return None
    source = store.load("src", key_parts)
    if not isinstance(source, str):
        return None
    if len(_LOADED) < _LOADED_CAP:
        _LOADED.append((unit, source, render))
    else:
        _LOADED_DROPPED[0] += 1
    return source


def save_source(key_parts: tuple, source: str) -> bool:
    """Persist a freshly rendered source (no-op when disabled)."""
    store = get_store()
    if store is None:
        return False
    return store.save("src", key_parts, source)


def loaded_sources() -> list[tuple[str, str, Callable[[], str]]]:
    """The A009 worklist: every store-served source this process ran."""
    return list(_LOADED)


def loaded_source_stats() -> dict:
    return {"loaded": len(_LOADED), "audit_dropped": _LOADED_DROPPED[0]}


def clear_loaded_sources() -> None:
    """Reset the ledger (tests)."""
    _LOADED.clear()
    _LOADED_DROPPED[0] = 0
