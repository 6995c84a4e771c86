"""Capacitor energy-buffer model.

Energy harvesting systems buffer ambient energy in a small capacitor
(Table 2: 1 uF default). Stored energy follows E = 1/2 C V^2; the simulator
tracks energy in nanojoules (1 W = 1 nJ/ns, so power x time-in-ns gives nJ
directly at the 1 GHz clock).
"""

from __future__ import annotations

import math

from repro.errors import ConfigError, EnergyError


def energy_nj(capacitance_f: float, volts: float) -> float:
    """Stored energy of a capacitor at a voltage, in nanojoules."""
    return 0.5 * capacitance_f * volts * volts * 1e9


class Capacitor:
    """A capacitor with voltage bounds [0, v_max].

    ``consume`` may legitimately drive the voltage below ``v_min`` only
    during a JIT checkpoint (the reserve sizing guarantees it stays above;
    :class:`~repro.sim.system.System` asserts this invariant).
    """

    def __init__(self, capacitance_f: float, v_max: float = 3.5,
                 v_min: float = 2.8, v_initial: float | None = None):
        if not (math.isfinite(capacitance_f) and capacitance_f > 0):
            raise ConfigError(f"capacitance must be finite and positive, "
                              f"got {capacitance_f!r} F")
        if not 0 < v_min < v_max:
            raise ConfigError("need 0 < v_min < v_max")
        self.capacitance_f = capacitance_f
        self.v_max = v_max
        self.v_min = v_min
        self._e_max = energy_nj(capacitance_f, v_max)
        self._e_nj = energy_nj(capacitance_f, v_initial if v_initial is not None
                               else v_max)
        if self._e_nj > self._e_max:
            raise ConfigError("initial voltage above v_max")

    # ------------------------------------------------------------------
    @property
    def energy(self) -> float:
        """Stored energy in nJ."""
        return self._e_nj

    @property
    def voltage(self) -> float:
        return math.sqrt(2.0 * self._e_nj * 1e-9 / self.capacitance_f)

    @property
    def full(self) -> bool:
        return self._e_nj >= self._e_max

    def energy_between(self, v_hi: float, v_lo: float) -> float:
        """Usable energy between two voltage levels, in nJ."""
        return (energy_nj(self.capacitance_f, v_hi)
                - energy_nj(self.capacitance_f, v_lo))

    def voltage_at(self, e_nj: float) -> float:
        return math.sqrt(max(0.0, 2.0 * e_nj * 1e-9 / self.capacitance_f))

    def voltage_for_reserve(self, reserve_nj: float) -> float:
        """The Vbackup threshold leaving ``reserve_nj`` above v_min."""
        return self.voltage_at(energy_nj(self.capacitance_f, self.v_min)
                               + reserve_nj)

    # ------------------------------------------------------------------
    def consume(self, nj: float) -> None:
        if nj < 0:
            raise EnergyError(f"cannot consume negative energy {nj}")
        self._e_nj -= nj
        if self._e_nj < 0.0:
            raise EnergyError("capacitor fully drained: reserve was undersized")

    def harvest(self, nj: float) -> None:
        if nj < 0:
            raise EnergyError(f"cannot harvest negative energy {nj}")
        self._e_nj = min(self._e_max, self._e_nj + nj)

    def set_voltage(self, volts: float) -> None:
        if not 0 <= volts <= self.v_max + 1e-9:
            raise ConfigError(f"voltage {volts} outside [0, {self.v_max}]")
        self._e_nj = min(self._e_max, energy_nj(self.capacitance_f, volts))
