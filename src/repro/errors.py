"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class AssemblyError(ReproError):
    """Raised when a program cannot be assembled (bad mnemonic, label, ...)."""


class ExecutionError(ReproError):
    """Raised when the simulated core hits an illegal state.

    Examples: misaligned access, out-of-range memory address, division by
    zero in the guest program, or exceeding the instruction budget.
    """


class ConfigError(ReproError):
    """Raised for invalid simulation configuration values."""


class EnergyError(ReproError):
    """Raised when the energy substrate reaches an impossible state.

    The most important case is a JIT checkpoint that would drive the
    capacitor below ``Vmin`` - that means the reserve sized by ``maxline``
    was insufficient, i.e. a crash-consistency bug.
    """


class ConsistencyError(ReproError):
    """Raised by the verification layer when post-recovery state diverges
    from the failure-free oracle."""


class InvariantViolation(ReproError):
    """Raised by the runtime invariant checker (:mod:`repro.lint.invariants`)
    when the WL-Cache protocol breaks one of its §5 guarantees - e.g. the
    dirty-line population exceeds ``maxline``, or a queue entry vanishes
    before its write-back ACK."""


class TraceError(ReproError):
    """Raised for malformed or exhausted power traces."""


class SweepError(ReproError):
    """Raised when a sweep cannot complete.

    Carries the failing points in :attr:`failures` - ``(workload,
    design, trace)`` tuples for sweeps, the caller's point keys
    otherwise (a campaign's ``PointKey``) - so a crashed parallel worker
    is reported as the run that died, not as an opaque pool error.
    """

    def __init__(self, message: str, failures: tuple = ()):
        super().__init__(message)
        self.failures = failures
