"""Bell-inequality violation of GHZ states under unknown local reference frames.

The package quantifies how well n parties sharing a GHZ state can violate the
Mermin, Mermin-Klyshko and Svetlichny inequalities when their local reference
frames are unknown (random, from the Haar or the uniform-angle measure) or
restricted to rotations about a shared axis, and what the achieved values
certify about genuine multipartite entanglement and nonseparability.
"""

from .su2 import (
    Rotation,
    ghz_correlator,
    ghz_statevector,
    haar_rotation,
    observable_matrix,
    rotate_direction,
    rotate_directions,
    statevector_expectation,
    uniform_angle_rotation,
)
from .polynomials import (
    FAMILIES,
    FAMILY_MERMIN,
    FAMILY_MK,
    FAMILY_SVETLICHNY,
    BellPolynomial,
    BoundsTable,
    bounds_table,
    lhv_deterministic_max,
    make_polynomial,
)
from .optimizer import (
    CandidateSet,
    OptimizationOutcome,
    assignment_count,
    inplane_candidate_set,
    make_candidate_set,
    max_bell_value,
)
from .montecarlo import (
    BoundCrossing,
    BudgetExceededError,
    ExperimentConfig,
    ExperimentResult,
    merge_results,
    run_experiment,
    write_histogram_csv,
    write_summary_json,
)
from . import restricted

__version__ = "0.1.0"
