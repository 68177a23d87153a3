"""snclab: exact-arithmetic cell complexes, Voronoi complexes, glued SNC
models, a terminating blow-up rewriting calculus, and Seifert link
invariants, with a scriptable CLI."""

from .complexes import (
    AbelianGroup,
    ComplexError,
    DeltaComplex,
    build_complex,
    complex_from_json_dict,
    delta_isomorphic,
    from_simplices,
)
from .intlinalg import IntMatrix, SmithNormalForm, smith_normal_form
from .presentations import (
    Presentation,
    PresentationError,
    SuperperfectVerdict,
    abelianization,
    higman_presentation,
    is_q_perfect,
    is_q_superperfect_sufficient,
    pi1_presentation,
    sl2z_presentation,
)
from .resolution import (
    LocalModel,
    Mdeg,
    Policy,
    ResolutionCheckError,
    ResolutionError,
    ResolutionTrace,
    embed_snc,
    normalize,
    resolve,
    step_determinantal,
    step_monomial,
    step_mult2,
    validate_determinantal_profile,
)
from .seifert import (
    BaseCohomology,
    H2Decomposition,
    SeifertError,
    WeightSystem,
    circle_action_feasible,
    from_prime_powers,
    is_rational_homology_sphere,
    is_weighted_homogeneous,
    link_betti,
    to_prime_power_decomposition,
    weighted_degree,
)
from .snc import (
    PillowConstant,
    Pi1Verdict,
    SncCheckError,
    SncError,
    SncModel,
    blowup_dual_complex,
    blowup_ledger,
    build_snc,
    dual_complex,
    pi1_link_criterion,
    pillow_projectivity,
    sheaf_cohomology_dims,
)
from .voronoi import (
    CheckFailed,
    GenericityError,
    NotSimpleError,
    SiteSet,
    SubspaceReport,
    VoronoiCheckError,
    VoronoiComplex,
    VoronoiError,
    classify_subspaces,
    delaunay_dual,
    region_from_json_dict,
    select_subcomplex,
    voronoi_complex,
)

__version__ = "0.1.0"
