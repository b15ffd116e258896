"""Spin-squeezing simulation and tomographic verification toolkit.

Simulates squeezing of a single high-spin atom (twisting Hamiltonians,
tensor-light-shift drive compensated against the quadratic Zeeman shift,
T1/T2 decay), models the Faraday-probe readout of the collective state, and
reconstructs the state from synthetic measurement records by covariance
correction and maximum-likelihood tomography.
"""

from .dynamics import compensated_hamiltonian, lindblad_trajectory, tact_hamiltonian
from .errors import PhysicalityError, SweepPointError
from .experiment import (
    ExperimentConfig,
    SweepRow,
    evolved_state,
    point_record,
    prepare_initial_state,
    run_sweep,
)
from .probe import (
    MeasurementRecord,
    RecordStatistics,
    canonical_moments,
    readout_model,
    record_from_csv,
    record_to_csv,
    simulate_records,
    simulated_statistics,
)
from .spin_algebra import (
    check_density,
    coherent_spin_state,
    coherent_state_vector,
    moments,
    spin_dimension,
    spin_operators,
    variance_extrema,
)
from .squeezing import (
    HusimiGrid,
    SqueezingReport,
    TactOptimum,
    husimi,
    squeezing_report,
    tact_optimum,
)
from .tomography import (
    CorrectedCovariance,
    OscillatorDensityMatrix,
    correct_covariance,
    mle_reconstruct,
)

__version__ = "0.1.0"
