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
import io
import json
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from .dynamics import DecayChannels, compensated_hamiltonian, lindblad_trajectory
from .errors import SweepPointError
from .probe import MeasurementRecord, canonical_moments, readout_model, simulate_records
from .spin_algebra import QuantumState, SpinQuantumNumber, coherent_spin_state, spin_operators
from .squeezing import SqueezingReport, squeezing_report
from .tables import write_table
from .tomography import CorrectedCovariance, OscillatorDensityMatrix, correct_covariance, mle_reconstruct

__all__ = [
    "ExperimentConfig",
    "SweepRow",
    "SweepResult",
    "prepare_initial_state",
    "point_record",
    "run_sweep",
    "reconstruct_sweep",
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


def _default_durations() -> tuple[float, ...]:
    return tuple(np.round(np.arange(0.0, 6.0 + 1e-9, 0.1), 10))


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
    fractional n_shots or seed, and seed < 0.  The dynamics are in the
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
            if np.isnan(value).any() or (np.isinf(value).any() and spec.name not in ("t1", "t2")):
                raise ValueError(f"{spec.name} must be finite, got {value!r}")
            if spec.name in ("n_shots", "seed"):
                if not float(value).is_integer():
                    raise ValueError(f"{spec.name} must be an integer, got {value!r}")
                object.__setattr__(self, spec.name, int(value))
        SpinQuantumNumber.coerce(self.f)  # validates integer/half-integer
        if not (self.t1 > 0 and self.t2 > 0):
            raise ValueError("t1 and t2 must be positive")
        if not (0.0 < self.pump_fraction <= 1.0):
            raise ValueError(f"pump_fraction must be in (0, 1], got {self.pump_fraction}")
        if any(t < 0 for t in durations):
            raise ValueError("raman_durations must be non-negative")
        if any(b < a for a, b in zip(durations, durations[1:])):
            raise ValueError("raman_durations must be sorted ascending")
        if self.kappa2 < 0:
            raise ValueError(f"kappa2 must be >= 0, got {self.kappa2}")
        if self.n_shots < 1:
            raise ValueError(f"n_shots must be >= 1, got {self.n_shots}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def spin(self) -> SpinQuantumNumber:
        return SpinQuantumNumber.coerce(self.f)

    @property
    def decay(self) -> DecayChannels:
        return DecayChannels(
            t1=self.t1, t2=self.t2, extra_scatter_rate=self.extra_scatter_rate
        )

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
            kwargs[key] = _parse_durations(raw) if key == "raman_durations" else float(raw)
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        mapping = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                mapping[key.strip()] = value.strip()
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
        return replace(self, seed=int(seed))


def _parse_durations(text: str) -> tuple[float, ...]:
    """Parse '0,0.5,1.0' or 'start:stop:step' (stop inclusive up to round-off)."""
    text = text.strip()
    if ":" in text:
        pieces = text.split(":")
        if len(pieces) != 3:
            raise ValueError(f"duration range must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in pieces)
        if not np.isfinite([start, stop, step]).all():
            raise ValueError(f"raman_durations range must be finite, got {text!r}")
        if step <= 0:
            raise ValueError("duration step must be positive")
        n = int(np.floor((stop - start) / step + 1e-9)) + 1
        return tuple(np.round(start + step * np.arange(n), 12))
    return tuple(float(p) for p in text.split(",") if p.strip())


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
    state0 = prepare_initial_state(config)
    return lindblad_trajectory(state0, h, config.decay, durations)


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
    moments = canonical_moments(report)
    record = simulate_records(moments, config.kappa2, config.n_shots, _point_seed(config, t_r))
    return report, record


def point_record(config: ExperimentConfig, t_r: float) -> MeasurementRecord:
    """Synthesize the probe record for one drive duration."""
    return _probe_point(config, t_r, evolved_state(config, t_r))[1]


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: model-exact parameters plus the sampled reconstruction."""

    t_r: float
    chi2_true: float
    zeta2_true: float
    xi2_true: float
    zeta2_reconstructed: float
    zeta2_error: float
    mean_spin_fraction: float
    css_reference_variance: float


@dataclass(frozen=True)
class SweepResult:
    """Rows of a drive-duration sweep, tagged with the config hash."""

    rows: tuple[SweepRow, ...]
    config_hash: str

    _COLUMNS = tuple(f.name for f in fields(SweepRow))
    _UNITS = ("ms", "1", "1", "1", "1", "1", "1", "hbar")

    def to_csv(self, stream) -> None:
        comments = [f"config_sha256={self.config_hash}", "units: " + ",".join(self._UNITS)]
        write_table(stream, comments, self._COLUMNS, (astuple(row) for row in self.rows))

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()

    def to_dict(self) -> dict:
        return {
            "config_sha256": self.config_hash,
            "columns": list(self._COLUMNS),
            "units": list(self._UNITS),
            "rows": [dict(zip(self._COLUMNS, astuple(row))) for row in self.rows],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Evolve, probe and reconstruct every drive duration in the config.

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
    return SweepResult(rows=tuple(rows), config_hash=config.config_hash)


def _zeta2_error(corrected: CorrectedCovariance, kappa2: float) -> float:
    """1-sigma error of 2*min_variance propagated from the output-variance estimate."""
    v_min = max(corrected.min_variance, 0.0)
    gain, noise = readout_model(kappa2)
    return 2.0 * corrected.statistical_error * (noise + gain * v_min) / gain


def reconstruct_sweep(
    config: ExperimentConfig, durations=None
) -> list[tuple[float, OscillatorDensityMatrix]]:
    """Maximum-likelihood reconstruction at each drive duration (heavy pass).

    ``durations`` defaults to the config's sweep grid.  Records are
    regenerated deterministically from the config, so each reconstruction
    corresponds shot-for-shot to the same duration in ``run_sweep(config)``.
    A failure at one point raises :class:`SweepPointError` naming it.
    """
    if durations is None:
        durations = config.raman_durations
    states = _evolved_states(config, durations)
    out = []
    for t_r, state in zip(durations, states):
        try:
            _, record = _probe_point(config, t_r, state)
            out.append((t_r, mle_reconstruct(record)))
        except Exception as exc:
            raise SweepPointError(t_r, exc) from exc
    return out
