"""Power traces: piecewise-constant harvested power over time.

A trace answers two questions for the simulator:

* how much energy arrives in an interval (``energy_nj``), charged while the
  program runs, and
* how long until a given amount of energy has been harvested
  (``time_to_harvest``), used to fast-forward through power-off periods.

Times are nanoseconds; power is watts (1 W = 1 nJ/ns).
"""

from __future__ import annotations

import bisect
import math

from repro.errors import TraceError


class PowerTrace:
    """Piecewise-constant power trace.

    Subclasses may generate segments lazily by overriding :meth:`_extend`;
    the base class holds a fixed segment list and raises
    :class:`TraceError` when asked beyond its horizon.
    """

    def __init__(self, starts_ns: list[int], powers_w: list[float],
                 name: str = "trace"):
        if len(starts_ns) != len(powers_w) or not starts_ns:
            raise TraceError("trace needs matching, non-empty segment lists")
        if starts_ns[0] != 0:
            raise TraceError("trace must start at t=0")
        if any(b <= a for a, b in zip(starts_ns, starts_ns[1:])):
            raise TraceError("segment starts must be strictly increasing")
        bad = [p for p in powers_w if not (math.isfinite(p) and p >= 0)]
        if bad:
            raise TraceError(
                f"power must be finite and >= 0, got {bad[0]!r} W")
        self.name = name
        self.starts = list(starts_ns)
        self.powers = list(powers_w)
        self._idx = 0  # cache for sequential access

    # -- lazy extension ----------------------------------------------------
    def _extend(self, until_ns: int) -> None:
        """Generate segments to cover ``until_ns``; no-op for fixed traces."""

    def _ensure(self, t_ns: int) -> None:
        """Extend lazy coverage through ``t_ns``.

        A query strictly before the last segment's start is always
        covered, so only queries at or past it can need generation -
        gating on that keeps the hot sequential path a single
        comparison. Fixed traces treat their last segment as
        open-ended (:meth:`_extend` is a no-op); lazily generated
        traces append segments until ``t_ns`` is covered.
        """
        if t_ns >= self.starts[-1]:
            self._extend(t_ns)

    def _seek(self, t_ns: int) -> int:
        """Index of the segment containing ``t_ns``.

        Negative times raise: ``bisect_right - 1`` would return ``-1``,
        which Python indexing silently wraps to the *last* segment, so an
        unguarded query would integrate the wrong segment's power (the
        off-by-one-segment trap every caller of this method shares).
        """
        if t_ns < 0:
            raise TraceError("negative time")
        self._ensure(t_ns)
        i = self._idx
        starts = self.starts
        n = len(starts)
        if i < n and starts[i] <= t_ns and (i + 1 == n or t_ns < starts[i + 1]):
            return i
        if i + 1 < n and starts[i + 1] <= t_ns and (
                i + 2 == n or t_ns < starts[i + 2]):
            self._idx = i + 1
            return i + 1
        i = bisect.bisect_right(starts, t_ns) - 1
        self._idx = i
        return i

    # -- queries -------------------------------------------------------
    def power_w(self, t_ns: int) -> float:
        """Instantaneous harvested power at time ``t_ns``."""
        return self.powers[self._seek(t_ns)]

    def energy_nj(self, t0_ns: int, t1_ns: int) -> float:
        """Energy harvested in [t0, t1), in nJ."""
        if t1_ns < t0_ns:
            raise TraceError("reversed interval")
        if t1_ns == t0_ns:
            return 0.0
        self._ensure(t1_ns)
        i = self._seek(t0_ns)
        starts, powers = self.starts, self.powers
        total = 0.0
        t = t0_ns
        while True:
            seg_end = starts[i + 1] if i + 1 < len(starts) else t1_ns
            end = min(seg_end, t1_ns)
            total += powers[i] * (end - t)
            if end >= t1_ns:
                return total
            t = end
            i += 1

    def _coverage_end_ns(self) -> int:
        """End of generated coverage: the last segment runs to this time
        (the fast engine harvests a chunk that ends before it without
        asking :meth:`_extend`), and asking :meth:`_extend` for it
        produces at least one more segment on lazily generated traces.
        Fixed traces return a sentinel past any horizon (their last segment
        is open-ended)."""
        return 2 * 10**15

    def _next_boundary(self, i: int, horizon_ns: int) -> int:
        """End time of segment ``i``, generating the next segment lazily
        for generated traces. Fixed traces' last segment runs to the
        horizon."""
        if i + 1 < len(self.starts):
            return self.starts[i + 1]
        self._extend(self._coverage_end_ns())
        if i + 1 < len(self.starts):
            return self.starts[i + 1]
        return horizon_ns

    def time_to_harvest(self, t0_ns: int, needed_nj: float,
                        horizon_ns: int = 10**15) -> int:
        """Earliest time by which ``needed_nj`` has arrived since ``t0``.

        Raises :class:`TraceError` past ``horizon_ns`` (dead source).
        """
        if needed_nj <= 0:
            return t0_ns
        i = self._seek(t0_ns)
        t = t0_ns
        remaining = needed_nj
        while t < horizon_ns:
            seg_end = self._next_boundary(i, horizon_ns)
            p = self.powers[i]
            if p > 0:
                dt = remaining / p
                if t + dt <= seg_end:
                    return int(t + dt) + 1
                remaining -= p * (seg_end - t)
            t = seg_end
            i = min(i + 1, len(self.starts) - 1)
        raise TraceError(
            f"{self.name}: source dead - {needed_nj:.1f} nJ not harvested "
            f"within horizon")

    def charge_until(self, t0_ns: int, e0_nj: float, e_target_nj: float,
                     drain_w: float = 0.0, e_floor_nj: float = 0.0,
                     horizon_ns: int = 10**15) -> int:
        """Time at which a capacitor charging from this source reaches
        ``e_target_nj``, while leaking ``drain_w`` (off-period self-
        discharge). Energy never falls below ``e_floor_nj``.

        Models the power-off period: segments weaker than the leak make no
        progress (or lose charge), so a long fade erodes any leftover
        checkpoint reserve. Raises :class:`TraceError` past the horizon.
        """
        if e0_nj >= e_target_nj:
            return t0_ns
        i = self._seek(t0_ns)
        t = t0_ns
        e = e0_nj
        while t < horizon_ns:
            seg_end = self._next_boundary(i, horizon_ns)
            net = self.powers[i] - drain_w
            span = seg_end - t
            if net > 0:
                dt = (e_target_nj - e) / net
                if t + dt <= seg_end:
                    return int(t + dt) + 1
                e += net * span
            elif net < 0:
                e = max(e_floor_nj, e + net * span)
            t = seg_end
            i = min(i + 1, len(self.starts) - 1)
        raise TraceError(f"{self.name}: source dead - never recharged")


class ConstantTrace(PowerTrace):
    """A constant-power source (tests, solar-like idealizations)."""

    def __init__(self, power_w: float, name: str = "constant"):
        super().__init__([0], [power_w], name)


def save_csv(trace: PowerTrace, path: str) -> None:
    """Write trace segments as ``start_ns,power_w`` CSV."""
    with open(path, "w") as f:
        f.write("start_ns,power_w\n")
        for t, p in zip(trace.starts, trace.powers):
            f.write(f"{t},{p}\n")


def load_csv(path: str, name: str | None = None) -> PowerTrace:
    """Read a trace written by :func:`save_csv`."""
    starts: list[int] = []
    powers: list[float] = []
    with open(path) as f:
        header = f.readline()
        if not header.startswith("start_ns"):
            raise TraceError(f"{path}: missing trace header")
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                a, p = line.split(",")
                start, power = int(a), float(p)
            except ValueError:
                raise TraceError(f"{path}: line {lineno}: expected "
                                 f"'start_ns,power_w', got {line!r}") from None
            starts.append(start)
            powers.append(power)
    return PowerTrace(starts, powers, name or path)
