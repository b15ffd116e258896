"""Spin-squeezing simulation and tomographic verification toolkit.

Simulates squeezing of a single high-spin atom (twisting Hamiltonians,
tensor-light-shift drive compensated against the quadratic Zeeman shift,
T1/T2 decay), models the Faraday-probe readout of the collective state, and
reconstructs the state from synthetic measurement records by covariance
correction and maximum-likelihood tomography.
"""

from .dynamics import (
    DecayChannels,
    Hamiltonian,
    compensated_hamiltonian,
    evolve_lindblad,
    evolve_unitary,
    light_shift_hamiltonian,
    lindblad_trajectory,
    oat_hamiltonian,
    tact_hamiltonian,
    zeeman_hamiltonian,
)
from .errors import ConvergenceError, PhysicalityError, SweepPointError
from .experiment import (
    ExperimentConfig,
    SweepResult,
    SweepRow,
    evolved_state,
    point_record,
    prepare_initial_state,
    reconstruct_sweep,
    run_sweep,
)
from .probe import (
    CanonicalMoments,
    MeasurementRecord,
    THERMAL_TRANSVERSE_VARIANCE,
    canonical_moments,
    output_variance,
    record_from_csv,
    record_to_csv,
    simulate_records,
    simulate_thermal_records,
    simulate_vacuum_records,
    thermal_calibration,
    vacuum_calibration,
)
from .spin_algebra import (
    QuantumState,
    SpinOperators,
    SpinQuantumNumber,
    coherent_spin_state,
    coherent_state_vector,
    covariance,
    expectation,
    moments,
    rotate,
    spin_operators,
    variance_extrema,
)
from .squeezing import (
    HusimiGrid,
    SqueezingReport,
    TactOptimum,
    husimi,
    optimal_quadrature_angle,
    squeezing_report,
    tact_optimum,
)
from .tomography import (
    CorrectedCovariance,
    OscillatorDensityMatrix,
    correct_covariance,
    corrected_variance,
    mle_reconstruct,
    variances_from_rho,
)

__version__ = "0.1.0"
