"""Set-associative cache array: geometry, lines, replacement policies.

The array holds real data words (value-accurate simulation). Replacement is
LRU or FIFO, selected per the paper's sensitivity study (§6.5): LRU tracks a
use stamp on every access, FIFO only a fill stamp - the energy model charges
LRU bookkeeping extra energy per access, which is exactly the effect the
paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

LRU = "lru"
FIFO = "fifo"
REPLACEMENT_POLICIES = (LRU, FIFO)


@dataclass(frozen=True)
class CacheGeometry:
    """Size/associativity/line geometry with derived index math.

    Addresses are byte addresses; lines are aligned power-of-two sized.
    """

    size_bytes: int = 8192
    assoc: int = 2
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.line_bytes < 4 or self.line_bytes & (self.line_bytes - 1):
            raise ConfigError("line_bytes must be a power of two >= 4")
        if self.assoc < 1:
            raise ConfigError("assoc must be >= 1")
        if (self.size_bytes % (self.line_bytes * self.assoc)) != 0:
            raise ConfigError(
                "size_bytes must be a multiple of line_bytes * assoc")
        n_sets = self.size_bytes // (self.line_bytes * self.assoc)
        if n_sets & (n_sets - 1):
            raise ConfigError("number of sets must be a power of two")

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.assoc)

    @property
    def n_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def words_per_line(self) -> int:
        return self.line_bytes // 4

    @property
    def line_shift(self) -> int:
        return self.line_bytes.bit_length() - 1

    @property
    def set_mask(self) -> int:
        return self.n_sets - 1


class CacheLine:
    """One cache line with data payload and replacement metadata.

    Invariant: an invalid line always carries ``tag == -1`` (enforced by
    ``__init__``/``invalidate``), so tag comparison alone decides a hit -
    the hot lookup paths rely on this and skip the ``valid`` check.
    """

    __slots__ = ("tag", "valid", "dirty", "data", "use_stamp", "fill_stamp")

    def __init__(self, words_per_line: int):
        self.tag = -1
        self.valid = False
        self.dirty = False
        self.data = [0] * words_per_line
        self.use_stamp = 0
        self.fill_stamp = 0

    def invalidate(self) -> None:
        self.valid = False
        self.dirty = False
        self.tag = -1


class SetAssocArray:
    """The raw array; policy-free except for victim selection.

    Designs drive it through :meth:`find`, :meth:`victim`, and direct line
    mutation; the array never touches backing memory itself.
    """

    def __init__(self, geometry: CacheGeometry, replacement: str = LRU):
        if replacement not in REPLACEMENT_POLICIES:
            raise ConfigError(f"unknown replacement policy {replacement!r}")
        self.geometry = geometry
        self.replacement = replacement
        wpl = geometry.words_per_line
        self.sets: list[list[CacheLine]] = [
            [CacheLine(wpl) for _ in range(geometry.assoc)]
            for _ in range(geometry.n_sets)
        ]
        self._stamp = 0
        # hoisted geometry/policy for the hot path
        self.line_shift = geometry.line_shift
        self.set_mask = geometry.set_mask
        self.words_per_line = wpl
        self._lru = replacement == LRU
        # MRU-way cache: the line that last hit (or was installed) per set.
        # Purely a lookup accelerator - a hit is still decided by the tag
        # check, and lines mutate in place, so a stale pointer just misses
        # into the normal set probe. Never rebound (the lockstep column
        # engine binds the list object itself).
        self.mru: list[CacheLine] = [cset[0] for cset in self.sets]

    def find(self, addr: int) -> CacheLine | None:
        """Return the valid line holding ``addr``, updating LRU stamps."""
        lineno = addr >> self.line_shift
        si = lineno & self.set_mask
        line = self.mru[si]
        if line.tag != lineno:
            for line in self.sets[si]:
                if line.tag == lineno:  # invalid lines hold tag -1: no hit
                    self.mru[si] = line
                    break
            else:
                return None
        if self._lru:
            self._stamp += 1
            line.use_stamp = self._stamp
        return line

    def peek(self, addr: int) -> CacheLine | None:
        """Like :meth:`find` but with no replacement-state side effects."""
        lineno = addr >> self.line_shift
        for line in self.sets[lineno & self.set_mask]:
            if line.tag == lineno:
                return line
        return None

    def victim(self, addr: int) -> CacheLine:
        """Choose the line to fill for ``addr`` (invalid first, else policy)."""
        cset = self.sets[(addr >> self.line_shift) & self.set_mask]
        best = None
        best_key = 0
        lru = self._lru
        for line in cset:
            if not line.valid:
                return line
            key = line.use_stamp if lru else line.fill_stamp
            if best is None or key < best_key:
                best = line
                best_key = key
        return best

    def install(self, addr: int, data: list[int]) -> CacheLine:
        """Fill the victim line for ``addr`` with ``data`` (caller must have
        handled the old contents); returns the line."""
        line = self.victim(addr)
        lineno = addr >> self.line_shift
        line.tag = lineno
        line.valid = True
        line.dirty = False
        line.data = list(data)
        self._stamp += 1
        line.use_stamp = self._stamp
        line.fill_stamp = self._stamp
        self.mru[lineno & self.set_mask] = line
        return line

    def line_addr(self, line: CacheLine) -> int:
        """Byte address of the first word of a valid line."""
        return line.tag << self.line_shift

    def invalidate_all(self) -> None:
        for cset in self.sets:
            for line in cset:
                line.invalidate()

    def dirty_lines(self) -> list[CacheLine]:
        return [l for cset in self.sets for l in cset if l.valid and l.dirty]

    def valid_lines(self) -> list[CacheLine]:
        return [l for cset in self.sets for l in cset if l.valid]
