"""Finite-dimensional toolkit for localised frames, co-orbit norms and
Galerkin kernel representations."""

__version__ = "0.1.0"

from .frames import (  # noqa: F401
    Frame,
    FramePair,
    IndexSet,
    NotAFrameError,
    analysis,
    canonical_dual,
    cross_gram,
    frame_bounds,
    frame_from_json,
    frame_operator,
    frame_to_json,
    gram,
    linear_index_set,
    product_cyclic_index_set,
    synthesis,
)
from .numeric import (  # noqa: F401
    ConditioningError,
    PreconditionError,
    matrix_from_json,
    matrix_to_json,
    solve_posdef,
    svd_values,
)
from .localisation import (  # noqa: F401
    JaffardParams,
    LocalisationReport,
    jaffard_norm,
    localisation_report,
    poly_weight,
    schur_weighted_bound,
)
from .coorbit import (  # noqa: F401
    CoorbitSpec,
    MixedSpaceSpec,
    OpNormInterval,
    SeqSpaceSpec,
    coorbit_norm,
    coorbit_opnorm,
    mixed_norm,
    tensor_weights,
    weighted_seq_norm,
)
from .tensor_kernels import (  # noqa: F401
    correspondence_residual,
    galerkin,
    galerkin_from_json,
    galerkin_to_json,
    synthesize_kernel,
)
from .theorems import (  # noqa: F401
    CompressionReport,
    VerificationReport,
    compress_operator,
    schatten_check,
    schur_characterization,
    verify_frame_independence,
    verify_inner,
    verify_outer,
    verify_projective,
)
from .generators import (  # noqa: F401
    GeneratorSpec,
    RNG_SCHEME,
    decaying_perturbation,
    finite_gabor,
    gaussian_window,
    mercedes,
    onb,
    random_operator,
    substream,
)
from .suite import run_suite, strip_timings  # noqa: F401
