"""f-deformed oscillator algebras and generalized coherent states.

Numerical realization of the ladder-operator and deformed-operator
constructions for the trigonometric Poschl-Teller and pseudoharmonic
potentials: truncated Fock-space ladder operators, coherent states by the
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
    deformed_hamiltonian_antisymmetric,
    deformed_hamiltonian_symmetric,
    exp_ladder_apply,
    ladder_amplitudes,
    matrix_exponential,
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
    glauber_coefficients,
    grow_cutoff,
    harmonic_limit_deviation,
    max_auto_cutoff,
    photon_statistics,
    zeta_from_alpha,
)
from .position import (
    coherent_wavefunction,
    gauss_levels,
    ladder_matrix,
    orthonormality_gram,
    pseudoharmonic_radials,
    sample_points,
    tpt_eigenfunctions,
    tpt_ground,
)

__version__ = "0.1.0"
