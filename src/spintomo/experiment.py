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
                    simulate_records, simulated_statistics)
from .spin_algebra import check_density, coherent_spin_state, spin_dimension, spin_operators
from .squeezing import squeezing_report
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
# needs 61 durations and 10^4 shots per point, and one `records` file's shots
# at 10^7 are already 160 MB (a sweep point draws its statistics, not shots)
MAX_DURATIONS = 100_000
MAX_SHOTS = 10**7
# bound on |twisting_rate| and |compensation_residual|, rad/ms, and on the two
# decay rates derived from t1, t2 and extra_scatter_rate, 1/ms: keeps the
# Hamiltonian and its Liouvillian far from overflow, as probe.MAX_KAPPA2 does
MAX_RATE = 1e100


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
    values (only t1 and t2 may be inf: that decay channel is off), f < 1/2,
    t2 > t1 (which breaks complete positivity of the decay channels, so a
    finite t1 needs a finite t2), extra_scatter_rate < 0, kappa2 outside
    [0, probe.MAX_KAPPA2], |twisting_rate| or |compensation_residual|
    above MAX_RATE, either decay rate of :func:`_decay_rates` above
    MAX_RATE, fractional n_shots or seed, n_shots outside
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
        if not self.f >= 0.5:
            raise ValueError(f"f must be >= 1/2 (spin 0 has no mean spin), got {self.f!r}")
        spin_dimension(self.f)  # validates integer/half-integer
        if not 0 < self.t2 <= self.t1:
            raise ValueError(f"decay times need 0 < t2 <= t1, got t1={self.t1!r}, t2={self.t2!r}")
        for name in ("twisting_rate", "compensation_residual"):
            rate = getattr(self, name)
            if abs(rate) > MAX_RATE:
                raise ValueError(f"|{name}| must be <= {MAX_RATE:g} rad/ms, got {rate!r}")
        if self.extra_scatter_rate < 0:
            raise ValueError(f"extra_scatter_rate must be >= 0, got {self.extra_scatter_rate!r}")
        depolarization, dephasing = _decay_rates(self)
        for keys, rate in (("1/t1 + extra_scatter_rate", depolarization),
                           ("2 (1/t2 - 1/t1)", dephasing)):
            if rate > MAX_RATE:
                raise ValueError(f"decay rate {keys} must be <= {MAX_RATE:g} 1/ms, got {rate!r}")
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


def prepare_initial_state(config: ExperimentConfig) -> np.ndarray:
    """Pumped density matrix: pump_fraction of the stretched state along +x, rest fully mixed.

    Residual population outside the probed manifold contributes no signal at
    the demodulated phase, so imperfect pumping is modelled entirely inside
    the manifold as the maximally mixed admixture.
    """
    css = coherent_spin_state(config.f, np.pi / 2.0, 0.0)
    d = len(css)
    return check_density(config.pump_fraction * css + (1.0 - config.pump_fraction) * np.eye(d) / d)


def _point_seed(config: ExperimentConfig, t_r: float) -> int:
    """Per-point record seed: Cantor's pairing of (master seed, duration in ps).

    Keyed on the duration quantized to 1 ps so the same point always gets
    the same records regardless of which durations accompany it.  The pairing
    maps pairs of non-negative integers one-to-one onto the non-negative
    integers, at any size, so two points never share a seed.
    """
    seed, picoseconds = int(config.seed), int(round(t_r * 1e9))
    total = seed + picoseconds
    return total * (total + 1) // 2 + picoseconds


def _decay_rates(config: ExperimentConfig) -> tuple[float, float]:
    """(depolarization, dephasing) rates of the master equation, 1/ms.

    t1 depolarizes toward the fully mixed state, and the drive adds its
    scatter rate.  The dephasing jump operator is sqrt(gamma_phi) Fx, with
    gamma_phi set so that the decay rate of the m, m+-1 coherences in the
    x basis, gamma_phi/2 plus the depolarization 1/t1, is 1/t2; so
    gamma_phi >= 0, complete positivity, is the config's t2 <= t1.
    """
    depolarization = 1.0 / config.t1 + config.extra_scatter_rate
    dephasing = 2.0 * (1.0 / config.t2 - 1.0 / config.t1)
    return depolarization, dephasing


def _evolved_states(config: ExperimentConfig, durations) -> np.ndarray:
    """The (n, d, d) stack of density matrices after each drive duration, in ms."""
    ops = spin_operators(config.f)
    h = compensated_hamiltonian(
        ops, beta=2.0 * config.twisting_rate, residual=config.compensation_residual
    )
    depolarization, dephasing = _decay_rates(config)
    rho0 = prepare_initial_state(config)
    return lindblad_trajectory(rho0, h, depolarization, dephasing, durations)


def evolved_state(config: ExperimentConfig, t_r: float) -> np.ndarray:
    """Density matrix after driving the prepared ensemble for t_r milliseconds."""
    return _evolved_states(config, [t_r])[0]


def point_record(config: ExperimentConfig, t_r: float) -> MeasurementRecord:
    """Synthesize the probe record for one drive duration.

    Its canonical normalization is the mean spin length, as the auxiliary
    mean-spin monitor of the measurement sequence gives it.
    """
    report = squeezing_report(evolved_state(config, t_r))
    cov = canonical_moments(report.cov, report.length)
    return simulate_records(cov, config.kappa2, config.n_shots, _point_seed(config, t_r))


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

    zeta2_true / chi2_true / xi2_true come from one squeezing report of all
    the evolved density matrices; zeta2_reconstructed applies the covariance
    correction to each point's record statistics, with its propagated 1-sigma
    sampling error.  The statistics are drawn first, from their exact law
    (:func:`~spintomo.probe.simulated_statistics`), so no shot is formed and a
    point costs the same at any ``n_shots``; the same point's
    :func:`point_record` draws its shots given those statistics, so it gives
    the same row to round-off.  A failure while probing or reconstructing one
    point, a collapsed mean spin included, raises :class:`SweepPointError`
    naming its duration, chained to the original exception.
    """
    durations = config.raman_durations
    states = _evolved_states(config, durations)
    report = squeezing_report(states)
    jx0 = config.pump_fraction * ((states.shape[-1] - 1) / 2.0)  # mean spin before the drive
    rows = []
    for i, t_r in enumerate(durations):
        try:
            cov = canonical_moments(report.cov[i], report.length[i])
            stats = simulated_statistics(cov, config.kappa2, config.n_shots, _point_seed(config, t_r))
            zeta2_rec, zeta2_err = _zeta2_estimate(correct_covariance(stats), config.kappa2)
        except Exception as exc:
            raise SweepPointError(t_r, exc) from exc
        rows.append(
            SweepRow(
                t_r=t_r,
                chi2_true=float(report.chi2[i]),
                zeta2_true=float(report.zeta2[i]),
                xi2_true=float(report.xi2[i]),
                zeta2_reconstructed=zeta2_rec,
                zeta2_error=zeta2_err,
                mean_spin_fraction=float(report.length[i]) / jx0,
                css_reference_variance=float(report.length[i]) / 2.0,
            )
        )
    return tuple(rows)


def _zeta2_estimate(corrected: CorrectedCovariance, kappa2: float) -> tuple[float, float]:
    """(zeta2, sigma): 2*min_variance and its error propagated from the output variance."""
    v_min = corrected.min_variance
    gain, noise = readout_model(kappa2)
    sigma = 2.0 * corrected.statistical_error * (noise + gain * max(v_min, 0.0)) / gain
    return 2.0 * v_min, sigma

