"""Non-volatile main memory (ReRAM) model.

Holds the persistent word array (the ground truth the crash-consistency
checker inspects), and charges the Table-2 ReRAM latencies and per-access
energies. Latency is folded into two effective numbers - ``read_ns`` and
``write_ns`` per word access, and per-line burst costs for cache refills -
derived from the paper's tCK/tBURST/tRCD/tCL/tWR parameters.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.errors import ConfigError

_U32 = 0xFFFFFFFF


@dataclass(frozen=True)
class NVMTimings:
    """Effective NVM access costs in core cycles (1 cycle = 1 ns at 1 GHz).

    Derived from Table 2 (tRCD=18, tCL=15, tBURST=7.5, tWR=150 ns):
    a word read pays activation+CAS (~33 ns rounded), a word write pays the
    write-recovery-dominated cost (~150 ns by default scaled down to keep
    Python-scale runs tractable - the read:write ratio is what matters),
    and line transfers add per-word burst beats.
    """

    read_word: int = 30
    write_word: int = 30
    burst_word: int = 3  # extra per additional word in a line transfer
    read_energy_nj: float = 1.2
    write_energy_nj: float = 4.0
    #: Per-word energy of a burst (line) transfer relative to a random
    #: word access - the activation cost amortizes across the burst.
    burst_energy_factor: float = 0.35

    def __post_init__(self) -> None:
        if min(self.read_word, self.write_word, self.burst_word) < 0:
            raise ConfigError("NVM timings must be >= 0")
        if min(self.read_energy_nj, self.write_energy_nj) < 0:
            raise ConfigError("NVM energies must be >= 0")

    def line_read(self, words: int) -> int:
        """Cycles to read a ``words``-word line (one activation + burst)."""
        return self.read_word + self.burst_word * (words - 1)

    def line_write(self, words: int) -> int:
        """Cycles to write a ``words``-word line."""
        return self.write_word + self.burst_word * (words - 1)


class NVMainMemory:
    """Word-addressable persistent memory with access accounting.

    All cache designs share one instance per simulation; its ``words``
    image is the state that must match the failure-free oracle at the end
    of a crashy run. It is the ``array("I")`` that
    :meth:`~repro.isa.program.Program.initial_memory` builds; a plain list
    also works.
    """

    def __init__(self, words: array | list[int], timings: NVMTimings | None = None):
        self.words = words
        self.timings = timings or NVMTimings()
        self.reads = 0  # word-read accesses
        self.writes = 0  # word-write accesses (write traffic)
        self.energy_read_nj = 0.0
        self.energy_write_nj = 0.0

    # -- word granularity ------------------------------------------------
    def read_word(self, addr: int) -> tuple[int, int]:
        """Read the u32 at byte address ``addr``; returns (value, cycles)."""
        self.reads += 1
        self.energy_read_nj += self.timings.read_energy_nj
        return (self.words[addr >> 2], self.timings.read_word)

    def write_word(self, addr: int, value: int) -> int:
        """Write a u32; returns cycles."""
        self.words[addr >> 2] = value & _U32
        self.writes += 1
        self.energy_write_nj += self.timings.write_energy_nj
        return self.timings.write_word

    def write_word_masked(self, addr: int, bits: int, mask: int) -> int:
        widx = addr >> 2
        self.words[widx] = (self.words[widx] & ~mask) | (bits & mask)
        self.writes += 1
        self.energy_write_nj += self.timings.write_energy_nj
        return self.timings.write_word

    # -- line granularity (cache refills / write-backs) -------------------
    def read_line(self, addr: int, nwords: int) -> tuple[array | list[int], int]:
        """Read an aligned line; returns (words, cycles). The words are a
        slice of the image: callers copy them into a list line."""
        widx = addr >> 2
        self.reads += nwords
        self.energy_read_nj += (self.timings.read_energy_nj * nwords
                                * self.timings.burst_energy_factor)
        return (self.words[widx:widx + nwords], self.timings.line_read(nwords))

    def write_line(self, addr: int, data: list[int]) -> int:
        """Write an aligned line; returns cycles."""
        widx = addr >> 2
        # an array image takes slice assignment only from an array
        self.words[widx:widx + len(data)] = array("I", data)
        self.writes += len(data)
        self.energy_write_nj += (self.timings.write_energy_nj * len(data)
                                 * self.timings.burst_energy_factor)
        return self.timings.line_write(len(data))

    # ---------------------------------------------------------------------
    @property
    def total_energy_nj(self) -> float:
        return self.energy_read_nj + self.energy_write_nj

    def reset_stats(self) -> None:
        self.reads = 0
        self.writes = 0
        self.energy_read_nj = 0.0
        self.energy_write_nj = 0.0
