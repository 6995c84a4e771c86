"""Capacitor model: E = 1/2 C V^2, consume/harvest, reserve voltages."""

import math

import pytest

from repro.energy.capacitor import Capacitor, energy_nj
from repro.errors import ConfigError, EnergyError


def test_energy_formula():
    # 1 uF at 3.5 V -> 6.125 uJ
    assert energy_nj(1e-6, 3.5) == pytest.approx(6125.0)
    assert energy_nj(1e-6, 0.0) == 0.0


def test_initial_state_full():
    cap = Capacitor(1e-6, 3.5, 2.8)
    assert cap.full
    assert cap.voltage == pytest.approx(3.5)


def test_consume_and_voltage_drop():
    cap = Capacitor(1e-6, 3.5, 2.8)
    cap.consume(1000.0)
    assert cap.energy == pytest.approx(6125.0 - 1000.0)
    assert cap.voltage == pytest.approx(math.sqrt(2 * 5125e-9 / 1e-6))


def test_harvest_clamps_at_vmax():
    cap = Capacitor(1e-6, 3.5, 2.8, v_initial=3.0)
    cap.harvest(1e9)
    assert cap.voltage == pytest.approx(3.5)


def test_overdrain_raises():
    cap = Capacitor(1e-6, 3.5, 2.8)
    with pytest.raises(EnergyError, match="drained"):
        cap.consume(1e9)


def test_negative_amounts_rejected():
    cap = Capacitor(1e-6, 3.5, 2.8)
    with pytest.raises(EnergyError):
        cap.consume(-1.0)
    with pytest.raises(EnergyError):
        cap.harvest(-1.0)


def test_energy_between():
    cap = Capacitor(1e-6, 3.5, 2.8)
    window = cap.energy_between(3.5, 2.8)
    assert window == pytest.approx(6125.0 - 3920.0)


def test_voltage_for_reserve():
    cap = Capacitor(1e-6, 3.5, 2.8)
    vb = cap.voltage_for_reserve(500.0)
    # energy at vb == energy at vmin + 500
    assert energy_nj(1e-6, vb) == pytest.approx(
        energy_nj(1e-6, 2.8) + 500.0)
    assert 2.8 < vb < 3.5


def test_voltage_for_zero_reserve_is_vmin():
    cap = Capacitor(1e-6, 3.5, 2.8)
    assert cap.voltage_for_reserve(0.0) == pytest.approx(2.8)


def test_set_voltage():
    cap = Capacitor(1e-6, 3.5, 2.8)
    cap.set_voltage(3.0)
    assert cap.voltage == pytest.approx(3.0)
    with pytest.raises(ConfigError):
        cap.set_voltage(4.0)


def test_config_validation():
    with pytest.raises(ConfigError):
        Capacitor(0.0, 3.5, 2.8)
    with pytest.raises(ConfigError):
        Capacitor(1e-6, 2.8, 3.5)
    with pytest.raises(ConfigError):
        Capacitor(1e-6, 3.5, 2.8, v_initial=3.6)


@pytest.mark.parametrize("capacitance", [math.nan, math.inf])
def test_non_finite_capacitance_rejected(capacitance):
    # NaN passed the old "<= 0" check, and a run then chased a NaN
    # charge target through the power trace without end
    with pytest.raises(ConfigError, match=repr(capacitance)):
        Capacitor(capacitance, 3.5, 2.8)


def test_build_system_rejects_nan_capacitance():
    # built only, never run: the run is what used to hang
    from repro.sim.factory import build_system
    from repro.workloads import build_workload
    with pytest.raises(ConfigError, match="nan"):
        build_system(build_workload("sha", 0.1), "WL-Cache", "trace1",
                     capacitance_f=math.nan)


def test_smaller_capacitor_smaller_window():
    big = Capacitor(1e-6, 3.5, 2.8)
    small = Capacitor(1e-7, 3.5, 2.8)
    assert small.energy_between(3.5, 2.8) == pytest.approx(
        big.energy_between(3.5, 2.8) / 10)
