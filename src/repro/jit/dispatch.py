"""Name kept for the span tracer: ``perfbench/spans.py`` wraps
``repro.jit.dispatch.get_compiled`` and raises when it is missing.
Nothing in the package imports this module."""

from repro.jit.cache import get_compiled  # noqa: F401
