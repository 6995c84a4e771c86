"""See :mod:`repro.jit.cache`."""

from repro.jit.cache import get_compiled  # noqa: F401
