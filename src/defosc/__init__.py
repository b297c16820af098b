"""f-deformed oscillator algebras and generalized coherent states.

Numerical realization of the ladder-operator and deformed-operator
constructions for the trigonometric Poschl-Teller and pseudoharmonic
potentials: truncated Fock-space matrices, coherent states by the
annihilation-eigenstate and displacement definitions, coordinate-space
eigenfunctions, and machine checks of the algebraic identities relating
them.
"""

from .errors import (
    ConfigError,
    DefoscError,
    DomainError,
    QuadratureError,
    SizeMismatchError,
    TruncationError,
)
from .models import (
    DeformationFunction,
    Model,
    ModelParams,
    deformation_for,
    harmonic_deformation,
    pseudoharmonic_deformation,
    pseudoharmonic_energy,
    solve_lambda,
    tpt_deformation,
    tpt_energy,
)
from .fock import (
    FockVector,
    OperatorMatrix,
    apply,
    commutator,
    deformed_hamiltonian_antisymmetric,
    deformed_hamiltonian_symmetric,
    identity_matrix,
    ladder_matrices,
    matrix_exponential,
    number_matrix,
)
from .coherent import (
    CoherentStateResult,
    Method,
    PhotonStatistics,
    annihilation_eigenstate,
    closed_form_bg_coefficients,
    compare_states,
    deformed_displacement_coefficients,
    displacement_state_closed_form,
    displacement_state_direct,
    displacement_state_factored,
    factored_displacement_matrices,
    glauber_coefficients,
    harmonic_limit_deviation,
    max_auto_cutoff,
    photon_statistics,
    tpt_ladder_coefficients,
    zeta_from_alpha,
)
from .position import (
    Grid,
    GridFunction,
    LadderFit,
    Measure,
    OverlapResult,
    coherent_wavefunction,
    grid_for,
    ladder_action_fd,
    orthonormality_gram,
    overlap_quadrature,
    pseudoharmonic_ladder_fd,
    pseudoharmonic_radials,
    radial_grid,
    sample_eigenfunction,
    tpt_eigenfunctions,
    tpt_grid,
    tpt_ground,
)

__version__ = "0.1.0"
