"""Faraday-probe measurement model: canonical moments, per-shot record
synthesis, and the vacuum / thermal calibration procedures.

The probe demodulates the polarization signal at the Larmor frequency into a
cosine and a sine component per shot.  In the large-ensemble harmonic
approximation the transverse spin pair maps to canonical quadratures

    x = F_y' / sqrt(<F_x>),    p = F_z' / sqrt(<F_x>),

normalized so a fully polarized coherent state is the vacuum with
var(x) = var(p) = 1/2.  Each demodulated outcome is then

    y_c = l_c + sqrt(kappa2/2) x + sqrt(kappa2^2/12) b_c
    y_s = l_s + sqrt(kappa2/2) p + sqrt(kappa2^2/12) b_s

with l (input light shot noise) and b (probe back-action fed into the
readout) independent zero-mean Gaussians of variance 1/2.  kappa2 is the
dimensionless atom-light coupling of one probe pass; it is an input here,
calibrated in the lab against the thermal ensemble noise.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .errors import PhysicalityError
from .spin_algebra import QuantumState, SpinOperators, moments, variance_extrema

__all__ = [
    "CanonicalMoments",
    "MeasurementRecord",
    "THERMAL_TRANSVERSE_VARIANCE",
    "canonical_moments",
    "output_variance",
    "simulate_records",
    "simulate_thermal_records",
    "simulate_vacuum_records",
    "thermal_calibration",
    "vacuum_calibration",
    "record_to_csv",
    "record_from_csv",
]

# Transverse spin variance per atom of the unpolarized 16-level Cs ground
# state, in canonical units.  Only the F=4 manifold precesses at the probed
# Larmor phase: an atom occupies it with probability 9/16 and contributes
# <Fz^2> = (1/9) sum_{m=-4..4} m^2 = 20/3 there, giving a per-atom spin
# variance of (9/16)(20/3) = 15/4.  Canonical units divide by the fully
# pumped reference <Fx> = 4, hence (15/4)/4 = 15/16.
THERMAL_TRANSVERSE_VARIANCE = 15.0 / 16.0


@dataclass(frozen=True)
class CanonicalMoments:
    """First and second moments of the canonical quadrature pair (x, p)."""

    mean_x: float
    mean_p: float
    var_x: float
    var_p: float
    cov_xp: float

    def __post_init__(self) -> None:
        if not (self.var_x > 0 and self.var_p > 0):
            raise PhysicalityError(
                f"variances must be positive, got var_x={self.var_x}, var_p={self.var_p}"
            )
        det = self.var_x * self.var_p - self.cov_xp**2
        if det < 0.25 - 1e-9:
            raise PhysicalityError(
                f"covariance determinant {det:.6g} below the Heisenberg floor 1/4"
            )

    @classmethod
    def from_moments(cls, mean: np.ndarray, cov: np.ndarray) -> "CanonicalMoments":
        """Build from the (x, p) mean 2-vector and 2x2 covariance of :func:`moments`."""
        return cls(
            mean_x=float(mean[0]),
            mean_p=float(mean[1]),
            var_x=float(cov[0, 0]),
            var_p=float(cov[1, 1]),
            cov_xp=float(cov[0, 1]),
        )

    @property
    def covariance_matrix(self) -> np.ndarray:
        return np.array([[self.var_x, self.cov_xp], [self.cov_xp, self.var_p]])

    @property
    def min_variance(self) -> float:
        """Smaller eigenvalue of the (x, p) covariance."""
        return float(variance_extrema(self.covariance_matrix)[0])


@dataclass(frozen=True)
class MeasurementRecord:
    """Per-shot pairs (y_c, y_s) in vacuum units plus coupling metadata."""

    shots: np.ndarray
    kappa2: float
    seed: int

    def __post_init__(self) -> None:
        shots = np.asarray(self.shots, dtype=float)
        if shots.ndim != 2 or shots.shape[1] != 2:
            raise ValueError(f"shots must have shape (n, 2), got {shots.shape}")
        if shots.shape[0] < 1:
            raise ValueError("record must contain at least one shot")
        if self.kappa2 < 0:
            raise ValueError(f"kappa2 must be >= 0, got {self.kappa2}")
        shots = np.ascontiguousarray(shots)
        shots.setflags(write=False)
        object.__setattr__(self, "shots", shots)

    @property
    def n_shots(self) -> int:
        return self.shots.shape[0]

    @property
    def y_c(self) -> np.ndarray:
        return self.shots[:, 0]

    @property
    def y_s(self) -> np.ndarray:
        return self.shots[:, 1]

    def scaled(self, factor: float) -> "MeasurementRecord":
        """Record with every outcome multiplied by ``factor`` (detector gain)."""
        return replace(self, shots=self.shots * float(factor))


def canonical_moments(state: QuantumState, ops: SpinOperators, pump_jx: float) -> CanonicalMoments:
    """Canonical (x, p) moments of a spin state, normalized by the mean spin.

    ``pump_jx`` is the per-atom <F_x> reference used for the normalization;
    the pipeline passes the current mean spin, under which the commutator of
    (x, p) is exactly canonical and a coherent state maps to vacuum.  The
    (F_y, F_z) moments come from :func:`~spintomo.spin_algebra.moments`,
    which rejects an operator set of the wrong dimension.
    """
    if pump_jx <= 0:
        raise ValueError(f"pump_jx must be positive, got {pump_jx}")
    mean, cov = moments(state.rho, (ops.fy, ops.fz))
    return CanonicalMoments.from_moments(mean / np.sqrt(pump_jx), cov / pump_jx)


def output_variance(moments: CanonicalMoments, kappa2: float) -> tuple[float, float]:
    """Variances of the demodulated outputs (y_c, y_s) for given atomic moments.

    var(y_c) = 1/2 + (kappa2/2) var_x + (kappa2^2/12)(1/2), and the sine
    component likewise with var_p; both light modes enter in vacuum.
    """
    if kappa2 < 0:
        raise ValueError(f"kappa2 must be >= 0, got {kappa2}")
    back_action = (kappa2**2 / 12.0) * 0.5
    var_yc = 0.5 + (kappa2 / 2.0) * moments.var_x + back_action
    var_ys = 0.5 + (kappa2 / 2.0) * moments.var_p + back_action
    return var_yc, var_ys


def simulate_records(
    moments: CanonicalMoments,
    kappa2: float,
    n_shots: int,
    seed: int,
) -> MeasurementRecord:
    """Draw a seeded record of (y_c, y_s) pairs from the Gaussian probe model.

    Draw order is fixed (atomic pair, then light, then back-action) so a
    given seed always produces bit-identical records.
    """
    if n_shots < 1:
        raise ValueError(f"n_shots must be >= 1, got {n_shots}")
    if kappa2 < 0:
        raise ValueError(f"kappa2 must be >= 0, got {kappa2}")
    rng = np.random.default_rng(seed)
    cov = moments.covariance_matrix
    chol = np.linalg.cholesky(cov)
    atomic = np.array([moments.mean_x, moments.mean_p]) + rng.standard_normal(
        (n_shots, 2)
    ) @ chol.T
    light = rng.standard_normal((n_shots, 2)) * np.sqrt(0.5)
    back = rng.standard_normal((n_shots, 2)) * np.sqrt(0.5)
    shots = light + np.sqrt(kappa2 / 2.0) * atomic + np.sqrt(kappa2**2 / 12.0) * back
    return MeasurementRecord(shots=shots, kappa2=kappa2, seed=int(seed))


def simulate_thermal_records(
    kappa2: float,
    n_shots: int,
    seed: int,
    atomic_variance: float = THERMAL_TRANSVERSE_VARIANCE,
) -> MeasurementRecord:
    """Record of an unpolarized ensemble: atomic noise only, no back-action.

    The thermal state carries no mean spin for the probe to act back on, so
    the outputs are y = l + sqrt(kappa2/2) * xi with xi the thermal
    transverse noise in canonical units.
    """
    if n_shots < 1:
        raise ValueError(f"n_shots must be >= 1, got {n_shots}")
    if kappa2 < 0:
        raise ValueError(f"kappa2 must be >= 0, got {kappa2}")
    rng = np.random.default_rng(seed)
    atomic = rng.standard_normal((n_shots, 2)) * np.sqrt(atomic_variance)
    light = rng.standard_normal((n_shots, 2)) * np.sqrt(0.5)
    shots = light + np.sqrt(kappa2 / 2.0) * atomic
    return MeasurementRecord(shots=shots, kappa2=kappa2, seed=int(seed))


def simulate_vacuum_records(n_shots: int, seed: int, raw_scale: float = 1.0) -> MeasurementRecord:
    """Record with no atoms: pure shot noise, optionally in raw detector units."""
    if n_shots < 1:
        raise ValueError(f"n_shots must be >= 1, got {n_shots}")
    rng = np.random.default_rng(seed)
    shots = rng.standard_normal((n_shots, 2)) * np.sqrt(0.5) * raw_scale
    return MeasurementRecord(shots=shots, kappa2=0.0, seed=int(seed))


def _pooled_variance(record: MeasurementRecord) -> float:
    """Mean of the per-quadrature sample variances (ddof=1)."""
    return float(np.mean(np.var(record.shots, axis=0, ddof=1)))


def thermal_calibration(
    record: MeasurementRecord,
    pump_fraction_reference: float = 1.0,
    thermal_variance: float = THERMAL_TRANSVERSE_VARIANCE,
) -> float:
    """Estimate kappa2 from the resonant noise of a thermal-ensemble record.

    With back-action absent the output variance is
    1/2 + (kappa2/2) * thermal_variance / pump_fraction_reference, so

        kappa2 = (sample_var - 1/2) * 2 * pump_fraction_reference / thermal_variance.

    ``pump_fraction_reference`` rescales the canonical normalization when the
    reference ensemble used to define <F_x> was not fully pumped.
    """
    if not (0 < pump_fraction_reference <= 1):
        raise ValueError(f"pump_fraction_reference must be in (0, 1], got {pump_fraction_reference}")
    sample_var = _pooled_variance(record)
    if sample_var <= 0.5:
        raise PhysicalityError(
            f"no atomic noise resolved: pooled variance {sample_var:.6g} <= vacuum 1/2"
        )
    return (sample_var - 0.5) * 2.0 * pump_fraction_reference / thermal_variance


def vacuum_calibration(record: MeasurementRecord) -> float:
    """Amplitude scale that maps a no-atom record onto vacuum units.

    Returns s with s^2 * var_raw = 1/2; apply with ``record.scaled(s)``.
    """
    raw_var = _pooled_variance(record)
    if raw_var <= 0:
        raise PhysicalityError("vacuum record has zero variance; cannot set the noise scale")
    return float(np.sqrt(0.5 / raw_var))


def record_to_csv(
    record: MeasurementRecord,
    stream,
    header_comments: dict | None = None,
) -> None:
    """Serialize a record; 17 significant digits keep the round trip bit-exact."""
    stream.write(f"# kappa2={record.kappa2:.17g}\n")
    stream.write(f"# n_shots={record.n_shots}\n")
    stream.write(f"# seed={record.seed}\n")
    for key, val in (header_comments or {}).items():
        stream.write(f"# {key}={val}\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["y_c", "y_s"])
    for y_c, y_s in record.shots:
        writer.writerow([f"{y_c:.17g}", f"{y_s:.17g}"])


def record_from_csv(stream) -> MeasurementRecord:
    """Parse a record written by :func:`record_to_csv`."""
    kappa2 = None
    seed = 0
    rows = []
    reader = csv.reader(stream)
    for row in reader:
        if not row:
            continue
        first = row[0].strip()
        if first.startswith("#"):
            text = ",".join(row).lstrip("# ").strip()
            if "=" in text:
                key, _, val = text.partition("=")
                key = key.strip()
                if key == "kappa2":
                    kappa2 = float(val)
                elif key == "seed":
                    seed = int(val)
            continue
        if first == "y_c":
            continue
        rows.append((float(row[0]), float(row[1])))
    if kappa2 is None:
        raise ValueError("record file is missing the kappa2 header")
    if not rows:
        raise ValueError("record file contains no shots")
    return MeasurementRecord(shots=np.array(rows), kappa2=kappa2, seed=seed)
