"""End-to-end pipeline: pumped-state preparation, compensated squeezing
evolution with decay over a swept drive duration, probe record synthesis,
and covariance reconstruction.

Configuration is a flat key=value text file; see :class:`ExperimentConfig`
for the schema.  Every derived quantity is reproducible from the config and
its seed alone, and outputs embed the config hash so files can be traced
back to their parameters.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, replace
from typing import ClassVar

import numpy as np

from .dynamics import compensated_hamiltonian, lindblad_trajectory
from .errors import SweepPointError
from .probe import (MeasurementRecord, _check_kappa2, canonical_moments, readout_model,
                    simulate_records)
from .spin_algebra import QuantumState, SpinQuantumNumber, coherent_spin_state, spin_operators
from .squeezing import SqueezingReport, squeezing_report
from .tables import parse_number, parse_whole_number
from .tomography import CorrectedCovariance, correct_covariance

__all__ = [
    "ExperimentConfig",
    "SweepRow",
    "prepare_initial_state",
    "point_record",
    "run_sweep",
]

# Shipped defaults for the free drive parameters.  The twisting rate sets
# where the squeezing optimum falls inside the 0-6 ms window; the extra
# scatter rate models light-induced depolarization while the drive is on;
# the compensation residual detunes the late-time coherent dynamics so the
# mean spin stays finite over the whole window (without it the twisting
# wraps the distribution around the sphere and <Fx> crosses zero near
# 2.4 ms at this rate).  With the default decay times (t1=80 ms, t2=20 ms)
# these values put the minimum of zeta2 near 0.54 at ~0.8 ms, and with
# decay disabled and exact compensation the sweep reaches the
# countertwisting limit.
DEFAULT_TWISTING_RATE = 0.12  # rad/ms, effective coefficient of (Fz^2 - Fy^2)
DEFAULT_EXTRA_SCATTER_RATE = 0.01  # 1/ms while the drive pulse is on
DEFAULT_COMPENSATION_RESIDUAL = 0.15  # rad/ms of uncompensated Fx^2

_WHOLE_NUMBER_KEYS = ("n_shots", "seed")

# size bounds, checked before anything of that size is allocated: a desk run
# needs 61 durations and 10^4 shots per point, and one point's record at
# 10^7 shots is already 160 MB
MAX_DURATIONS = 100_000
MAX_SHOTS = 10**7


def _default_durations() -> tuple[float, ...]:
    return _parse_durations("0:6:0.1")


@dataclass(frozen=True)
class ExperimentConfig:
    """Physical and sampling parameters of one simulated run.

    Config file schema (flat ``key=value`` lines, ``#`` comments allowed)::

        f                      total spin (default 4)
        twisting_rate          effective (Fz^2 - Fy^2) coefficient, rad/ms
                               (default 0.12); the quadratic Zeeman
                               coefficient is twice this
        compensation_residual  uncompensated Fx^2 term, rad/ms (default 0.15)
        t1                     depolarization time in the dark, ms (default 80)
        t2                     dephasing time in the dark, ms (default 20)
        extra_scatter_rate     drive-induced depolarization, 1/ms
        pump_fraction          fraction pumped into the stretched state (0.98)
        raman_durations        comma list of ms values, or start:stop:step
        kappa2                 probe coupling strength (default 0.8)
        n_shots                shots per sweep point (default 10000)
        seed                   master seed (default 12345)

    Unknown keys are rejected with ``ValueError``, and so are non-finite
    values (only t1 and t2 may be inf: that decay channel is off),
    t2 > t1 (which breaks complete positivity of the decay channels, so a
    finite t1 needs a finite t2), extra_scatter_rate < 0, kappa2 outside
    [0, probe.MAX_KAPPA2], fractional n_shots or seed, n_shots outside
    [1, MAX_SHOTS], seed < 0, and a key that a file sets twice; a file's
    raman_durations may hold at most MAX_DURATIONS values.  n_shots and
    seed are kept exactly, at any integer size.  The dynamics are in the
    frame rotating at the Larmor frequency, so it is not a parameter.
    """

    f: float = 4.0
    twisting_rate: float = DEFAULT_TWISTING_RATE
    compensation_residual: float = DEFAULT_COMPENSATION_RESIDUAL
    t1: float = 80.0
    t2: float = 20.0
    extra_scatter_rate: float = DEFAULT_EXTRA_SCATTER_RATE
    pump_fraction: float = 0.98
    raman_durations: tuple[float, ...] = field(default_factory=_default_durations)
    kappa2: float = 0.8
    n_shots: int = 10000
    seed: int = 12345

    def __post_init__(self) -> None:
        durations = tuple(float(t) for t in self.raman_durations)
        object.__setattr__(self, "raman_durations", durations)
        if not durations:
            raise ValueError("raman_durations is empty; a start:stop:step range needs stop >= start")
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name in _WHOLE_NUMBER_KEYS:
                # read as text, not by numpy, so an integer of any size is kept exactly
                object.__setattr__(self, spec.name, parse_whole_number(spec.name, str(value)))
            elif np.isnan(value).any() or (np.isinf(value).any() and spec.name not in ("t1", "t2")):
                raise ValueError(f"{spec.name} must be finite, got {value!r}")
        SpinQuantumNumber.coerce(self.f)  # validates integer/half-integer
        if not 0 < self.t2 <= self.t1:
            raise ValueError(f"decay times need 0 < t2 <= t1, got t1={self.t1!r}, t2={self.t2!r}")
        if self.extra_scatter_rate < 0:
            raise ValueError(f"extra_scatter_rate must be >= 0, got {self.extra_scatter_rate!r}")
        if not (0.0 < self.pump_fraction <= 1.0):
            raise ValueError(f"pump_fraction must be in (0, 1], got {self.pump_fraction}")
        if any(t < 0 for t in durations):
            raise ValueError("raman_durations must be non-negative")
        if any(b < a for a, b in zip(durations, durations[1:])):
            raise ValueError("raman_durations must be sorted ascending")
        _check_kappa2(self.kappa2)
        if self.n_shots < 1:
            raise ValueError(f"n_shots must be >= 1, got {self.n_shots}")
        if self.n_shots > MAX_SHOTS:
            raise ValueError(f"n_shots must be <= {MAX_SHOTS}, got {self.n_shots}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def spin(self) -> SpinQuantumNumber:
        return SpinQuantumNumber.coerce(self.f)

    # -- serialization ---------------------------------------------------

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(mapping) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = {}
        for key, raw in mapping.items():
            raw = str(raw).strip()
            if key == "raman_durations":
                kwargs[key] = _parse_durations(raw)
            elif key in _WHOLE_NUMBER_KEYS:
                kwargs[key] = parse_whole_number(key, raw)
            else:
                kwargs[key] = parse_number(key, raw)
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        mapping, first_line = {}, {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                key = key.strip()
                if key in first_line:
                    raise ValueError(
                        f"{path}:{lineno}: {key} is set again, first set on line {first_line[key]}"
                    )
                first_line[key] = lineno
                mapping[key] = value.strip()
        return cls.from_mapping(mapping)

    def canonical_text(self) -> str:
        """Stable key=value serialization used for hashing and echo files."""
        parts = []
        for spec in sorted(fields(self), key=lambda f: f.name):
            value = getattr(self, spec.name)
            if spec.name == "raman_durations":
                value = ",".join(f"{t:.17g}" for t in value)
            elif isinstance(value, float):
                value = f"{value:.17g}"
            parts.append(f"{spec.name}={value}")
        return "\n".join(parts) + "\n"

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, seed=seed)


def _parse_durations(text: str) -> tuple[float, ...]:
    """Parse '0,0.5,1.0' or 'start:stop:step' (stop inclusive up to round-off).

    More than MAX_DURATIONS durations raise ValueError before the tuple is built.
    """
    text = text.strip()
    if ":" not in text:
        pieces = [p for p in text.split(",") if p.strip()]
        _check_duration_count(len(pieces))
        return tuple(parse_number("raman_durations", p) for p in pieces)
    pieces = text.split(":")
    if len(pieces) != 3:
        raise ValueError(f"duration range must be start:stop:step, got {text!r}")
    start, stop, step = (parse_number("raman_durations", p) for p in pieces)
    if not np.isfinite([start, stop, step]).all():
        raise ValueError(f"raman_durations range must be finite, got {text!r}")
    if step <= 0:
        raise ValueError("duration step must be positive")
    n = np.floor((stop - start) / step + 1e-9) + 1  # inf when the step underflows
    _check_duration_count(n)
    return tuple(np.round(start + step * np.arange(int(n)), 12))


def _check_duration_count(n) -> None:
    if not n <= MAX_DURATIONS:
        raise ValueError(f"raman_durations must hold at most {MAX_DURATIONS} values, got {n:g}")


def prepare_initial_state(config: ExperimentConfig) -> QuantumState:
    """Pumped state: pump_fraction of the stretched state along +x, rest fully mixed.

    Residual population outside the probed manifold contributes no signal at
    the demodulated phase, so imperfect pumping is modelled entirely inside
    the manifold as the maximally mixed admixture.
    """
    spin = config.spin
    css = coherent_spin_state(spin, np.pi / 2.0, 0.0)
    d = spin.dimension
    rho = config.pump_fraction * css.rho + (1.0 - config.pump_fraction) * np.eye(d) / d
    return QuantumState(rho)


def _point_seed(config: ExperimentConfig, t_r: float) -> int:
    """Per-point record seed derived from (master seed, duration).

    Keyed on the duration quantized to 1 ps so the same point always gets
    the same records regardless of which durations accompany it.
    """
    key = np.random.SeedSequence([int(config.seed), int(round(t_r * 1e9))])
    return int(key.generate_state(1, dtype=np.uint64)[0])


def _evolved_states(config: ExperimentConfig, durations) -> list[QuantumState]:
    ops = spin_operators(config.spin)
    h = compensated_hamiltonian(
        ops, beta=2.0 * config.twisting_rate, residual=config.compensation_residual
    )
    # t1 depolarizes toward the fully mixed state, and the drive adds its
    # scatter rate.  The dephasing jump operator is sqrt(gamma_phi) Fx, with
    # gamma_phi set so that the decay rate of the m, m+-1 coherences in the
    # x basis, gamma_phi/2 plus the depolarization 1/t1, is 1/t2; so
    # gamma_phi >= 0, complete positivity, is the config's t2 <= t1.
    depolarization = 1.0 / config.t1 + config.extra_scatter_rate
    dephasing = 2.0 * (1.0 / config.t2 - 1.0 / config.t1)
    state0 = prepare_initial_state(config)
    return lindblad_trajectory(state0, h, depolarization, dephasing, durations)


def evolved_state(config: ExperimentConfig, t_r: float) -> QuantumState:
    """State after driving the prepared ensemble for t_r milliseconds."""
    return _evolved_states(config, [t_r])[0]


def _probe_point(
    config: ExperimentConfig, t_r: float, state: QuantumState
) -> tuple[SqueezingReport, MeasurementRecord]:
    """Squeezing report and synthesized probe record of one evolved sweep point.

    The record's canonical normalization is the report's mean spin length,
    mirroring the auxiliary mean-spin monitor of the measurement sequence.
    """
    report = squeezing_report(state)
    cov = canonical_moments(report)
    record = simulate_records(cov, config.kappa2, config.n_shots, _point_seed(config, t_r))
    return report, record


def point_record(config: ExperimentConfig, t_r: float) -> MeasurementRecord:
    """Synthesize the probe record for one drive duration."""
    return _probe_point(config, t_r, evolved_state(config, t_r))[1]


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: model-exact parameters plus the sampled reconstruction."""

    UNITS: ClassVar[tuple[str, ...]] = ("ms", "1", "1", "1", "1", "1", "1", "hbar")

    t_r: float
    chi2_true: float
    zeta2_true: float
    xi2_true: float
    zeta2_reconstructed: float
    zeta2_error: float
    mean_spin_fraction: float
    css_reference_variance: float


def run_sweep(config: ExperimentConfig) -> tuple[SweepRow, ...]:
    """Evolve, probe and reconstruct every drive duration in the config, one row each.

    zeta2_true / chi2_true / xi2_true come from the evolved density matrix;
    zeta2_reconstructed applies the covariance correction to the synthesized
    records, with its propagated 1-sigma sampling error.  A failure while
    analysing, probing or reconstructing one point raises
    :class:`SweepPointError` naming its duration, chained to the original
    exception.
    """
    durations = config.raman_durations
    states = _evolved_states(config, durations)
    jx0 = config.pump_fraction * config.spin.f_value  # mean spin before the drive
    rows = []
    for t_r, state in zip(durations, states):
        try:
            report, record = _probe_point(config, t_r, state)
            corrected = correct_covariance(record)
            zeta2_rec = 2.0 * corrected.min_variance
            zeta2_err = _zeta2_error(corrected, config.kappa2)
        except Exception as exc:
            raise SweepPointError(t_r, exc) from exc
        rows.append(
            SweepRow(
                t_r=t_r,
                chi2_true=report.chi2,
                zeta2_true=report.zeta2,
                xi2_true=report.xi2,
                zeta2_reconstructed=zeta2_rec,
                zeta2_error=zeta2_err,
                mean_spin_fraction=report.mean_spin_length / jx0,
                css_reference_variance=report.mean_spin_length / 2.0,
            )
        )
    return tuple(rows)


def _zeta2_error(corrected: CorrectedCovariance, kappa2: float) -> float:
    """1-sigma error of 2*min_variance propagated from the output-variance estimate."""
    v_min = max(corrected.min_variance, 0.0)
    gain, noise = readout_model(kappa2)
    return 2.0 * corrected.statistical_error * (noise + gain * v_min) / gain

