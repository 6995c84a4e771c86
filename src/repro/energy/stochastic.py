"""Seeded stochastic trace ensembles for Monte-Carlo campaigns.

The five named sources in :mod:`repro.energy.synthetic` are deterministic
generators: one seed, one trace. Campaign-scale evaluation
(:mod:`repro.mc`) needs *ensembles* - hundreds of statistically similar
but distinct harvesting conditions - so this module adds stochastic
families whose every instance is fully reproducible from
``(family, seed)``:

* ``mc-rf-home`` / ``mc-rf-office`` / ``mc-rf-mobile`` - perturbed
  variants of the paper's three RF sources: the seed jitters the family's
  *parameters* (mean power, variance, fade probability/depth, segment
  durations) around the named source's operating point and drives an
  independent segment stream, with seeded *burst dropout* (total blackout
  windows lasting many segments) layered on top.
* ``mc-solar`` / ``mc-thermal`` - perturbed solar/thermal with parameter
  jitter and, for solar, rare long deep-cloud dropouts.
* ``mc-rf-long`` - a long-horizon RF variant with 20-60 ms segments and
  multi-second good/poor regimes, so multi-hour horizons stay cheap to
  generate lazily (an hour is ~90 k segments, produced on demand).
* ``csv:<path>`` - recorded real-trace ingestion: a finite
  ``start_ns,power_w`` recording (:func:`repro.energy.traces.load_csv`)
  tiled periodically, with the seed selecting a reproducible phase
  rotation into the recording so an ensemble over one recording varies
  the alignment of program progress against the recorded fades.

Every family is registered alongside :func:`~repro.energy.synthetic.
make_trace`, so sweep tasks, pool workers, and the batch replay engine
resolve ``(family, seed)`` exactly like the named sources - the seed
travels as ``SimConfig.trace_seed``.

Determinism contract: parameter jitter and the segment stream derive
from ``zlib.crc32`` of ``(family, seed, purpose)`` - never ``hash()``,
which is randomized per process and would break cross-worker
reproducibility. A recording's family identity for that purpose is a
crc32 of its parsed content, not its path.
"""

from __future__ import annotations

import random
import zlib

from repro.energy.synthetic import (US, RFTrace, SolarTrace, ThermalTrace,
                                    register_trace_family)
from repro.energy.traces import PowerTrace, load_csv
from repro.errors import TraceError

#: family names registered by this module (the ``csv:`` prefix is
#: resolved dynamically, not listed here)
MC_FAMILIES = ("mc-rf-home", "mc-rf-office", "mc-rf-mobile", "mc-solar",
               "mc-thermal", "mc-rf-long")

#: recorded-trace family prefix: ``csv:results/office.csv``
RECORDED_PREFIX = "csv:"


def derive_seed(family: str, seed: int, purpose: str) -> int:
    """A deterministic sub-seed for ``(family, seed, purpose)``.

    Process-independent (crc32, not ``hash()``): the same campaign point
    must build the same trace in every pool worker.
    """
    return zlib.crc32(f"{family}/{seed}/{purpose}".encode())


def _jitter(rng: random.Random, frac: float) -> float:
    """A multiplicative jitter factor in ``[1 - frac, 1 + frac]``."""
    return 1.0 + frac * (2.0 * rng.random() - 1.0)


class StochasticRF(RFTrace):
    """An RF source with seeded parameter jitter and burst dropout.

    The seed perturbs the operating point (mean, variance, fade
    behaviour, segment durations) through an RNG independent of the
    segment stream, then occasional *dropout bursts* - total blackouts
    lasting ``dropout_us`` - model reader duty-cycling and occlusion
    that the named sources' short fades never produce.
    """

    def __init__(self, name: str, seed: int, mean_w: float, sigma_w: float,
                 fade_prob: float, fade_depth: float,
                 seg_us: tuple[float, float],
                 jitter: float = 0.15,
                 dropout_prob: float = 0.02,
                 dropout_us: tuple[float, float] = (60.0, 240.0),
                 regime_dwell_us: tuple[float, float] = (90.0, 200.0)):
        prng = random.Random(derive_seed(name, seed, "params"))
        self.dropout_prob = dropout_prob
        self.dropout_us = dropout_us
        self._dropout_left = 0
        lo, hi = seg_us
        super().__init__(
            name, derive_seed(name, seed, "segments"),
            mean_w=mean_w * _jitter(prng, jitter),
            sigma_w=sigma_w * _jitter(prng, jitter),
            fade_prob=min(0.9, fade_prob * _jitter(prng, jitter)),
            fade_depth=fade_depth * _jitter(prng, jitter),
            seg_us=(lo * _jitter(prng, jitter), hi * _jitter(prng, jitter)),
            regime_dwell_us=(regime_dwell_us[0] * _jitter(prng, jitter),
                             regime_dwell_us[1] * _jitter(prng, jitter)),
        )

    def _segment(self, rng: random.Random) -> tuple[int, float]:
        dur, p = super()._segment(rng)
        if self._dropout_left > 0:
            self._dropout_left -= dur
            return (dur, 0.0)
        if rng.random() < self.dropout_prob:
            self._dropout_left = int(rng.uniform(*self.dropout_us) * US)
            return (dur, 0.0)
        return (dur, p)


class StochasticSolar(SolarTrace):
    """Solar with seeded parameter jitter and rare long deep-cloud dips."""

    def __init__(self, name: str = "mc-solar", seed: int = 7,
                 jitter: float = 0.12, deep_cloud_prob: float = 0.01,
                 deep_cloud_us: tuple[float, float] = (400.0, 1200.0)):
        prng = random.Random(derive_seed(name, seed, "params"))
        self.deep_cloud_prob = deep_cloud_prob
        self.deep_cloud_us = deep_cloud_us
        self._cloud_left = 0
        super().__init__(
            name, derive_seed(name, seed, "segments"),
            mean_w=0.56 * _jitter(prng, jitter),
            swing=0.10 * _jitter(prng, jitter),
            cloud_prob=0.12 * _jitter(prng, jitter),
            period_us=1500.0 * _jitter(prng, jitter))

    def _segment(self, rng: random.Random) -> tuple[int, float]:
        dur, p = super()._segment(rng)
        if self._cloud_left > 0:
            self._cloud_left -= dur
            return (dur, p * 0.05)
        if rng.random() < self.deep_cloud_prob:
            self._cloud_left = int(rng.uniform(*self.deep_cloud_us) * US)
            return (dur, p * 0.05)
        return (dur, p)


class StochasticThermal(ThermalTrace):
    """Thermal with seeded jitter of the gradient mean and its noise."""

    def __init__(self, name: str = "mc-thermal", seed: int = 11,
                 jitter: float = 0.10):
        prng = random.Random(derive_seed(name, seed, "params"))
        super().__init__(
            name, derive_seed(name, seed, "segments"),
            mean_w=0.54 * _jitter(prng, jitter),
            sigma_w=0.035 * _jitter(prng, jitter))


# ---------------------------------------------------------------------------
# family factories (signature-compatible with TRACE_FACTORIES entries)
# ---------------------------------------------------------------------------


def mc_rf_home(seed: int = 0) -> StochasticRF:
    """Perturbed Trace 1 (RF, home): mild dropout, stable-ish.

    Dropout windows are sized in segments-worth of time so the ensemble
    mean stays within ~15% of the named source it perturbs - the
    families vary the *conditions*, not the source class.
    """
    return StochasticRF("mc-rf-home", seed, mean_w=0.70, sigma_w=0.08,
                        fade_prob=0.34, fade_depth=0.15, seg_us=(2.8, 5.5),
                        dropout_prob=0.008, dropout_us=(15.0, 60.0))


def mc_rf_office(seed: int = 0) -> StochasticRF:
    """Perturbed Trace 2 (RF, office): more dropout, less stable."""
    return StochasticRF("mc-rf-office", seed, mean_w=0.65, sigma_w=0.12,
                        fade_prob=0.44, fade_depth=0.12, seg_us=(2.4, 5.0),
                        dropout_prob=0.012, dropout_us=(20.0, 80.0))


def mc_rf_mobile(seed: int = 0) -> StochasticRF:
    """Perturbed Trace 3 (RF, mobile): heavy dropout, highly unstable."""
    return StochasticRF("mc-rf-mobile", seed, mean_w=0.60, sigma_w=0.15,
                        fade_prob=0.54, fade_depth=0.10, seg_us=(2.0, 4.5),
                        dropout_prob=0.018, dropout_us=(25.0, 100.0))


def mc_solar(seed: int = 0) -> StochasticSolar:
    return StochasticSolar(seed=seed)


def mc_thermal(seed: int = 0) -> StochasticThermal:
    return StochasticThermal(seed=seed)


def mc_rf_long(seed: int = 0) -> StochasticRF:
    """Long-horizon RF: 20-60 ms segments, multi-second regimes.

    Meant for multi-hour lazily-extended campaigns - coverage grows on
    demand at ~90 k segments per simulated hour instead of the short
    families' ~10 M, so tail studies over hours stay tractable.
    """
    return StochasticRF("mc-rf-long", seed, mean_w=0.66, sigma_w=0.10,
                        fade_prob=0.38, fade_depth=0.14,
                        seg_us=(20_000.0, 60_000.0),
                        dropout_prob=0.03,
                        dropout_us=(150_000.0, 600_000.0),
                        regime_dwell_us=(2_000_000.0, 8_000_000.0))


# ---------------------------------------------------------------------------
# recorded real-trace ingestion
# ---------------------------------------------------------------------------


class RecordedTrace(PowerTrace):
    """A finite recording tiled periodically with a phase rotation.

    The recording covers ``[0, period_ns)``; the tiled trace's power at
    ``t`` is the recording's power at ``(t + offset) mod period``.
    Extension is lazy: each :meth:`_extend` appends whole rotated-period
    copies, so multi-hour replays of a short recording stay cheap.
    """

    def __init__(self, rec_starts: list[int], rec_powers: list[float],
                 period_ns: int, offset_ns: int, name: str):
        if period_ns <= rec_starts[-1]:
            raise TraceError(
                f"{name}: period {period_ns} must exceed the last segment "
                f"start {rec_starts[-1]}")
        offset_ns %= period_ns
        # one rotated period: boundaries where (t + offset) mod period
        # crosses a recorded segment start, in tiled-time order
        bounds = sorted((s - offset_ns) % period_ns for s in rec_starts)
        n = len(rec_starts)
        starts, powers = [], []
        for b in bounds:
            src = (b + offset_ns) % period_ns
            # segment of the recording containing src (starts are sorted)
            i = n - 1
            while rec_starts[i] > src:
                i -= 1
            starts.append(b)
            powers.append(rec_powers[i])
        if starts[0] != 0:
            # the rotation put a boundary after t=0: prepend the segment
            # that covers it (the recording's last before wrap)
            src = offset_ns
            i = n - 1
            while rec_starts[i] > src:
                i -= 1
            starts.insert(0, 0)
            powers.insert(0, rec_powers[i])
        self._period_ns = period_ns
        self._period_starts = list(starts)
        self._period_powers = list(powers)
        self._tiles = 1
        super().__init__(starts, powers, name)

    def _coverage_end_ns(self) -> int:
        return self._tiles * self._period_ns

    def _extend(self, until_ns: int) -> None:
        # Append whole rotated-period copies. A seam boundary with equal
        # power on both sides is kept: the segment-list shape must depend
        # only on (recording, offset), never on float equality of
        # recorded powers, so equal (family, seed) traces stay
        # bit-identical regardless of query order.
        while self._coverage_end_ns() <= until_ns:
            base = self._tiles * self._period_ns
            for s, p in zip(self._period_starts, self._period_powers):
                self.starts.append(base + s)
                self.powers.append(p)
            self._tiles += 1


#: per-path recording cache: (starts, powers, period_ns, content_id)
_RECORDED_CACHE: dict[str, tuple[list[int], list[float], int, str]] = {}


def _load_recording(path: str) -> tuple[list[int], list[float], int, str]:
    """The parsed recording at ``path``, its tiling period, and an
    identity derived from its content (never its path), so one CSV
    stored at two paths seeds the same phase rotations."""
    rec = _RECORDED_CACHE.get(path)
    if rec is None:
        tr = load_csv(path)
        starts, powers = tr.starts, tr.powers
        if len(starts) > 1:
            # the CSV gives no end time for the final segment; give it
            # the mean duration of the others so the period is defined
            mean_dur = max(1, (starts[-1] - starts[0]) // (len(starts) - 1))
        else:
            mean_dur = 10**6  # single segment: 1 ms tiles of constant power
        content = zlib.crc32(repr((starts, powers)).encode())
        rec = (starts, powers, starts[-1] + mean_dur,
               f"{RECORDED_PREFIX}{content:08x}")
        _RECORDED_CACHE[path] = rec
    return rec


def recorded_trace(name: str, seed: int | None = None) -> RecordedTrace:
    """Build a ``csv:<path>`` family member.

    The seed selects a uniformly distributed phase rotation into the
    recording (``seed=None`` or 0 keeps the recorded alignment), so an
    ensemble over one recording decorrelates program progress from the
    recorded fade schedule while preserving the power distribution
    exactly - energy over any whole number of periods is seed-invariant.
    The rotation derives from the recording's content and the seed, not
    from the path, so campaign shards that read copies of one recording
    at different paths build identical traces.
    """
    if not name.startswith(RECORDED_PREFIX):
        raise TraceError(f"recorded trace family must start with "
                         f"{RECORDED_PREFIX!r}, got {name!r}")
    path = name[len(RECORDED_PREFIX):]
    starts, powers, period, content_id = _load_recording(path)
    if seed:
        offset = random.Random(
            derive_seed(content_id, seed, "phase")).randrange(period)
    else:
        offset = 0
    return RecordedTrace(starts, powers, period, offset, name)


def _register() -> None:
    for fname, factory in (("mc-rf-home", mc_rf_home),
                           ("mc-rf-office", mc_rf_office),
                           ("mc-rf-mobile", mc_rf_mobile),
                           ("mc-solar", mc_solar),
                           ("mc-thermal", mc_thermal),
                           ("mc-rf-long", mc_rf_long)):
        register_trace_family(fname, factory, overwrite=True)


_register()
