"""framedisc: finite frames, operator paving, and sign discrepancy.

Numerical constructions and cross-checks for the discrepancy form of the
paving problem: projection/vector-system reductions, tight-frame
completions, constructive partial results (Beck-Fiala signing, matroid
spanning partitions, Gaussian-measure balancing), certified subset
frame bounds, and the sharp counterexample family with its sqrt(k)
signed-discrepancy floor.
"""

from .counterexample import (
    CounterexampleInstance,
    counterexample_vectors,
    signed_norm_lower_bound,
    subset_center_distance,
    verify_counterexample,
)
from .engines import (
    BanaszczykContext,
    Outcome,
    ViolatingSet,
    banaszczyk_sign_search,
    beck_fiala_signs,
    certified_subset_bound,
    coordinate_profile,
    exhaustive_partition_search,
    exhaustive_sign_search,
    gaussian_median_radius,
    matroid_spanning_partition,
    partition_floor,
)
from .errors import (
    BudgetExceededError,
    EigensolverError,
    FrameDiscError,
    InfeasibleError,
    InvalidParameterError,
)
from .frames import (
    Partition,
    VectorSystem,
    complete_to_tight,
    frame_bound,
    frame_operator,
    partition,
    subset_frame_bound,
    tight_pad_unit,
    unit_norm_lift,
    vector_system,
)
from .linalg import (
    as_hermitian,
    diagonal_delta,
    eigensystem,
    is_projection,
    opnorm,
    rank_one,
)
from .reductions import (
    ReductionTrace,
    paving_quality,
    projection_to_vectors,
    random_projection,
    vectors_to_projection,
)
from .reports import Claim, VerificationReport, revalidate
from .rng import make_rng

__version__ = "0.1.0"
