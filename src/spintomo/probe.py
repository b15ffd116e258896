"""Faraday-probe measurement model: canonical covariance, per-shot record
synthesis, and the record file format.

The probe demodulates the polarization signal at the Larmor frequency into a
cosine and a sine component per shot.  In the large-ensemble harmonic
approximation the transverse spin pair maps to canonical quadratures

    x = F_y' / sqrt(<F_x'>),    p = F_z' / sqrt(<F_x'>),

where the primed frame has x' along the mean spin (the frame of
:class:`~spintomo.squeezing.SqueezingReport`), so <F_x'> = |<F>| and
<F_y'> = <F_z'> = 0.  Any coherent state is then the vacuum with
var(x) = var(p) = 1/2.  Each demodulated outcome is then

    y_c = l_c + sqrt(kappa2/2) x + sqrt(kappa2^2/12) b_c
    y_s = l_s + sqrt(kappa2/2) p + sqrt(kappa2^2/12) b_s

with l (input light shot noise) and b (probe back-action fed into the
readout) independent zero-mean Gaussians of variance 1/2.  kappa2 is the
dimensionless atom-light coupling of one probe pass.  The lab calibrates it
against the thermal ensemble noise; here it is an input, and a record file
carries it in its ``kappa2`` header.

The three terms sum to one zero-mean Gaussian pair of covariance
gain * cov(x, p) + noise * I with (gain, noise) from :func:`readout_model`,
so a record draws each shot as that one pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PhysicalityError
from .squeezing import SqueezingReport
from .tables import parse_number, parse_whole_number, read_table, write_table

__all__ = [
    "MeasurementRecord",
    "canonical_moments",
    "readout_model",
    "simulate_records",
    "record_to_csv",
    "record_from_csv",
]


MAX_KAPPA2 = 1e100  # keeps kappa2^2/24, and sums of squared shots, far from overflow


def _check_kappa2(kappa2: float) -> None:
    """Reject a negative, non-finite or overflowing (above ``MAX_KAPPA2``) probe coupling."""
    if not 0.0 <= kappa2 < np.inf:
        raise ValueError(f"kappa2 must be finite and >= 0, got {kappa2}")
    if kappa2 > MAX_KAPPA2:
        raise ValueError(f"kappa2 must be <= {MAX_KAPPA2:g}, got {kappa2}")


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
        finite = np.isfinite(shots)
        if not finite.all():
            bad = np.flatnonzero(~finite.all(axis=1))[0]
            raise ValueError(f"shot {bad} is not finite: {shots[bad].tolist()}")
        _check_kappa2(self.kappa2)
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


def canonical_moments(report: SqueezingReport) -> np.ndarray:
    """2x2 covariance of the canonical (x, p) pair of a state, from its squeezing report.

    The quadratures are the report's transverse pair (F_y', F_z') divided by
    sqrt(|<F>|), under which their commutator is exactly canonical.  Their
    means vanish by construction of the frame.
    """
    return report.cov / report.mean_spin_length


def readout_model(kappa2: float) -> tuple[float, float]:
    """Gain and added noise of one demodulated output: var(y) = gain * var(atomic) + noise.

    gain = kappa2/2 is the coupled atomic signal; noise = 1/2 + kappa2^2/24 is
    the light shot noise plus the back-action (kappa2^2/12 times its vacuum
    variance 1/2).  Every inversion of the probe's variance budget uses this.
    """
    _check_kappa2(kappa2)
    return kappa2 / 2.0, 0.5 + kappa2**2 / 24.0


def simulate_records(cov, kappa2: float, n_shots: int, seed: int) -> MeasurementRecord:
    """Draw a seeded record of (y_c, y_s) pairs from the Gaussian probe model.

    ``cov`` is the symmetric 2x2 (x, p) covariance of :func:`canonical_moments`;
    variances that are not positive or a determinant below the Heisenberg floor
    1/4 (to 1e-9) raise :class:`PhysicalityError`.  Each shot is one zero-mean
    normal pair, the sum of the three terms of the module docstring, drawn from
    the output covariance of :func:`readout_model`.  A given seed always
    produces bit-identical records.
    """
    cov = np.asarray(cov, dtype=float)
    if not (cov[0, 0] > 0 and cov[1, 1] > 0):
        raise PhysicalityError(
            f"variances must be positive, got var_x={cov[0, 0]}, var_p={cov[1, 1]}"
        )
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    if det < 0.25 - 1e-9:
        raise PhysicalityError(f"covariance determinant {det:.6g} below the Heisenberg floor 1/4")
    if n_shots < 1:
        raise ValueError(f"n_shots must be >= 1, got {n_shots}")
    gain, noise = readout_model(kappa2)
    chol = np.linalg.cholesky(gain * cov + noise * np.eye(2))
    shots = np.random.default_rng(seed).standard_normal((n_shots, 2)) @ chol.T
    return MeasurementRecord(shots=shots, kappa2=kappa2, seed=int(seed))


def record_to_csv(record: MeasurementRecord, stream, header_comments: dict | None = None) -> None:
    """Serialize a record as a :mod:`~spintomo.tables` table; the round trip is bit-exact."""
    comments = [f"kappa2={record.kappa2:.17g}", f"n_shots={record.n_shots}", f"seed={record.seed}"]
    comments += [f"{key}={val}" for key, val in (header_comments or {}).items()]
    write_table(stream, comments, ("y_c", "y_s"), record.shots)


def record_from_csv(stream) -> MeasurementRecord:
    """Parse a record written by :func:`record_to_csv`.

    The ``kappa2`` header is required; an ``n_shots`` header, when present,
    must equal the number of rows, so a truncated file is an error.  A
    header key set twice, a header value that is not a number, or an
    ``n_shots`` or seed that is not a whole number raises ``ValueError``
    naming its key.
    """
    comments, columns, shots = read_table(stream)
    if columns != ["y_c", "y_s"]:
        raise ValueError(f"record file header must be y_c,y_s, got {','.join(columns)!r}")
    header = {}
    for key, sep, val in (c.partition("=") for c in comments):
        if not sep:
            continue
        key = key.strip()
        if key in header:
            raise ValueError(f"record file sets its {key} header twice")
        header[key] = val.strip()
    if "kappa2" not in header:
        raise ValueError("record file is missing the kappa2 header")
    if not len(shots):
        raise ValueError("record file contains no shots")
    stated = parse_whole_number("n_shots", header.get("n_shots", str(len(shots))))
    if stated != len(shots):
        raise ValueError(
            f"record file holds {len(shots)} shots, its n_shots header says {header['n_shots']}"
        )
    seed = parse_whole_number("seed", header.get("seed", "0"))
    kappa2 = parse_number("kappa2", header["kappa2"])
    return MeasurementRecord(shots=shots, kappa2=kappa2, seed=seed)
