"""Faraday-probe measurement model: canonical covariance, per-shot record
synthesis, and the record file format.

The probe demodulates the polarization signal at the Larmor frequency into a
cosine and a sine component per shot.  In the large-ensemble harmonic
approximation the transverse spin pair maps to canonical quadratures

    x = F_y' / sqrt(<F_x'>),    p = F_z' / sqrt(<F_x'>),

where the primed frame has x' along the mean spin (the frame of
:func:`~spintomo.squeezing.squeezing_report`), so <F_x'> = |<F>| and
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
so the shots are iid draws of that one pair.  The covariance correction
reads a record only through its :class:`RecordStatistics`, so a seeded
record draws its statistics first, from their exact law (Bartlett's
decomposition), and then its shots given them: :func:`simulated_statistics`
stops after the first step and forms no shot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import PhysicalityError
from .tables import parse_number, parse_whole_number, read_table, write_table

__all__ = [
    "MeasurementRecord",
    "RecordStatistics",
    "canonical_moments",
    "readout_model",
    "simulate_records",
    "simulated_statistics",
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


class RecordStatistics(NamedTuple):
    """Sample moments of a record's (y_c, y_s) shots: all that the covariance correction reads."""

    n_shots: int
    kappa2: float
    mean: np.ndarray  # (2,) sample means of (y_c, y_s)
    cov: np.ndarray  # (2, 2) sample covariance, ddof = 1


def _require_two_shots(n_shots: int) -> None:
    if n_shots < 2:
        raise ValueError("need at least 2 shots to estimate variances")


def _sample_moments(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mean (2,), ddof=1 covariance (2, 2)) of an (n, 2) array of pairs.

    Two passes over the column views: the means, then the three dot products
    of the centred columns, so a large common offset costs no digits of the
    spread.  Fewer than 2 pairs raise ``ValueError``.
    """
    n = len(pairs)
    _require_two_shots(n)
    a, b = pairs[:, 0], pairs[:, 1]
    mean_a, mean_b = a.sum() / n, b.sum() / n
    da, db = a - mean_a, b - mean_b
    k = n - 1
    cab = np.dot(da, db) / k
    return (np.array([mean_a, mean_b]),
            np.array([[np.dot(da, da) / k, cab], [cab, np.dot(db, db) / k]]))


@dataclass(frozen=True)
class MeasurementRecord:
    """Per-shot pairs (y_c, y_s) in vacuum units plus coupling metadata."""

    shots: np.ndarray
    kappa2: float
    seed: int
    t_r_ms: float | None = None  # the sweep point's drive duration, where a file names it

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
    def statistics(self) -> RecordStatistics:
        """The sample moments of the shots; fewer than 2 shots raise ``ValueError``."""
        mean, cov = _sample_moments(self.shots)
        return RecordStatistics(self.n_shots, self.kappa2, mean, cov)


def canonical_moments(cov, length) -> np.ndarray:
    """2x2 covariance of the canonical (x, p) pair from a squeezing report's ``cov`` and ``length``.

    The quadratures are the transverse pair (F_y', F_z') over sqrt(|<F>|), so their
    commutator is exactly canonical and their means vanish.  A mean spin shorter
    than 1e-9 (or NaN) has collapsed and raises :class:`PhysicalityError`.
    """
    if not length >= 1e-9:
        raise PhysicalityError(
            "mean spin collapsed: squeezing parameters referenced to |<F>| are undefined"
        )
    return np.asarray(cov, dtype=float) / length


def readout_model(kappa2: float) -> tuple[float, float]:
    """Gain and added noise of one demodulated output: var(y) = gain * var(atomic) + noise.

    gain = kappa2/2 is the coupled atomic signal; noise = 1/2 + kappa2^2/24 is
    the light shot noise plus the back-action (kappa2^2/12 times its vacuum
    variance 1/2).  Every inversion of the probe's variance budget uses this.
    """
    _check_kappa2(kappa2)
    return kappa2 / 2.0, 0.5 + kappa2**2 / 24.0


def _output_factor(cov, kappa2: float, n_shots: int) -> np.ndarray:
    """Cholesky factor of the output covariance gain * cov + noise * I, after the
    input checks of :func:`simulate_records`."""
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
    return np.linalg.cholesky(gain * cov + noise * np.eye(2))


def _standard_statistics(n_shots: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean m_z and Bartlett factor A of ``n_shots`` standard normal pairs, from their law.

    m_z ~ N(0, I / n), and independently (n - 1) S_z = A A^T ~ W_2(I, n - 1)
    with A lower triangular, A_11^2 ~ chi2(n - 1), A_22^2 ~ chi2(n - 2) and
    A_21 ~ N(0, 1) (Bartlett's decomposition: Anderson, *An Introduction to
    Multivariate Statistical Analysis*, 3rd ed., 2003, section 7.2).  Drawn
    from ``rng`` in this order: m_z, A_11^2, A_22^2, A_21, each chi-square as
    a gamma of scale 2, which gives 0 at 0 degrees of freedom (n = 2).  One
    shot has no spread, so A = 0 and only m_z is drawn.
    """
    mean = rng.standard_normal(2) / math.sqrt(n_shots)
    if n_shots < 2:
        return mean, np.zeros((2, 2))
    a11 = math.sqrt(rng.gamma((n_shots - 1) / 2.0, 2.0))
    a22 = math.sqrt(rng.gamma((n_shots - 2) / 2.0, 2.0))
    return mean, np.array([[a11, 0.0], [rng.standard_normal(), a22]])


def _shot_frame(n_shots: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(normals, whitening) of a uniformly random orthonormal frame F orthogonal to the all-ones vector.

    ``normals`` (2, n_shots) holds n standard normal pairs, drawn as two
    contiguous rows and centred.  ``whitening`` is the inverse of the lower
    Cholesky factor of their 2x2 Gram matrix, so F = whitening @ normals has
    orthonormal rows.  Where the centred space has fewer than two dimensions
    (n < 3) the missing rows of ``whitening`` are zero, as are the Bartlett
    factor's matching columns.
    """
    normals = rng.standard_normal((2, n_shots))
    normals -= normals.mean(axis=1, keepdims=True)
    whitening = np.zeros((2, 2))
    if n_shots > 1:
        (g11, g21), (_, g22) = (normals @ normals.T).tolist()
        c11 = math.sqrt(g11)
        whitening[0, 0] = 1.0 / c11
        if n_shots > 2:
            c21 = g21 / c11
            c22 = math.sqrt(g22 - c21 * c21)
            whitening[1] = -c21 / (c11 * c22), 1.0 / c22
    return normals, whitening


def _draw_shots(chol: np.ndarray, n_shots: int, rng: np.random.Generator) -> np.ndarray:
    """(n_shots, 2) shots of output Cholesky factor ``chol``: statistics first, then the frame."""
    mean, factor = _standard_statistics(n_shots, rng)
    normals, whitening = _shot_frame(n_shots, rng)
    # F^T A^T L^T + 1 (L m_z)^T, with F = whitening @ normals; the mean is added in
    # place, so the normals and the shots are the only arrays of n_shots rows
    shots = normals.T @ (chol @ factor @ whitening).T
    shots += chol @ mean
    return shots


def simulate_records(cov, kappa2: float, n_shots: int, seed: int) -> MeasurementRecord:
    """Draw a seeded record of (y_c, y_s) pairs from the Gaussian probe model.

    ``cov`` is the symmetric 2x2 (x, p) covariance of :func:`canonical_moments`;
    variances that are not positive or a determinant below the Heisenberg floor
    1/4 (to 1e-9) raise :class:`PhysicalityError`.  The shots are iid
    zero-mean normal pairs z L^T, the sum of the three terms of the module
    docstring, with L the Cholesky factor of the output covariance of
    :func:`readout_model`.  They are drawn in two steps from one generator of
    ``seed``.  The statistics come first: the standard normals' sample mean
    m_z and Bartlett factor A, as :func:`simulated_statistics` draws them.
    The shots are then drawn given them, as 1 (L m_z)^T + F^T A^T L^T with F a
    uniformly random orthonormal frame orthogonal to the all-ones vector.
    Since the orthonormal factor of a Gaussian matrix is Haar-distributed and
    independent of its Bartlett-distributed triangular factor, these are iid
    N(0, L L^T) in law.  A given seed always produces bit-identical records.
    """
    chol = _output_factor(cov, kappa2, n_shots)
    shots = _draw_shots(chol, n_shots, np.random.default_rng(seed))
    return MeasurementRecord(shots=shots, kappa2=kappa2, seed=int(seed))


def simulated_statistics(cov, kappa2: float, n_shots: int, seed: int) -> RecordStatistics:
    """The :class:`RecordStatistics` of ``simulate_records(cov, kappa2, n_shots, seed)``, shotless.

    The record's statistics are drawn first, from the exact law of the sample
    moments of Gaussian shots: for the standard normals' sample mean m_z and
    Bartlett factor A, its shots z L^T have sample mean L m_z and covariance
    L A A^T L^T / (n - 1).  Only the shots are left undrawn, so this equals
    the record's statistics to round-off, at a cost that does not grow with
    ``n_shots``.  An input that :func:`simulate_records` rejects raises the
    same error here, and fewer than 2 shots raise the ``ValueError`` of
    ``MeasurementRecord.statistics``.
    """
    chol = _output_factor(cov, kappa2, n_shots)
    _require_two_shots(n_shots)
    mean, factor = _standard_statistics(n_shots, np.random.default_rng(seed))
    root = chol @ factor
    return RecordStatistics(int(n_shots), kappa2, chol @ mean, root @ root.T / (n_shots - 1))


def record_to_csv(record: MeasurementRecord, stream, header_comments: dict | None = None) -> None:
    """Serialize a record as a :mod:`~spintomo.tables` table; the round trip is bit-exact."""
    comments = [f"kappa2={record.kappa2:.17g}", f"n_shots={record.n_shots}", f"seed={record.seed}"]
    comments += [f"{key}={val}" for key, val in (header_comments or {}).items()]
    write_table(stream, comments, ("y_c", "y_s"), record.shots)


def record_from_csv(stream) -> MeasurementRecord:
    """Parse a record written by :func:`record_to_csv`.

    The ``kappa2`` header is required; an ``n_shots`` header, when present,
    must equal the number of rows, so a truncated file is an error; a
    ``t_r_ms`` header, when present, is the record's ``t_r_ms``.  A header
    key set twice, a header value that is not a number, or an ``n_shots`` or
    seed that is not a whole number raises ``ValueError`` naming its key.
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
    t_r_ms = parse_number("t_r_ms", header["t_r_ms"]) if "t_r_ms" in header else None
    return MeasurementRecord(shots=shots, kappa2=kappa2, seed=seed, t_r_ms=t_r_ms)
