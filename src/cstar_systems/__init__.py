"""Finite-level two-parameter C*-subproduct/product systems.

Interval partitions with exact rational cut points index every construction:
partition algebras, refinement and unit-padded connecting maps, germ
representations of the dilated systems, co-units and their idempotent germ
states, GNS-derived Hilbert-space systems, and a fully exact commutative
model of finite sets with rational measures.  The ``verify`` CLI runs the
identity-check suites from a JSON configuration.
"""

from .timegrid import (
    Partition,
    OuterDecomposition,
    common_refinement,
    inner_decompose,
    is_refinement,
    outer_decompose,
    refinement_chains,
    refinement_pairs,
)
from .linalg import (
    Superoperator,
    Tolerance,
    check_star_homomorphism,
    compose,
    is_isometry,
    is_projection,
    kron,
    superop_from_conjugation,
    superop_tensor,
)
from .algebra import (
    AlgebraElement,
    FiniteCStarAlgebra,
    GnsData,
    LinearFunctional,
    functional_tensor,
    gns,
    is_idempotent_wrt,
    tensor_algebra,
    tensor_element,
)
from .systems import (
    FunctionalFamily,
    Grid,
    HilbertSystem,
    MorphismFamily,
    TensorialSystem,
    UnitFamily,
    check_comultiplicative,
    check_morphism,
    check_system_axioms,
    check_unit,
    diagonal_system,
    from_one_parameter,
    glue_hilbert_system,
    trivial_from_bialgebra,
)
from .partition_calculus import (
    Germ,
    SpaceTag,
    SplitGerm,
    delta_cross,
    delta_interval_to_partition,
    delta_refinement,
    germ_add,
    germ_equal,
    germ_mul,
    germ_norm,
    germ_star,
    lift_morphism,
    one_param_comultiplication,
    partition_algebra,
    sharp_comultiplication,
    sharp_embedding,
    state_on_partition,
    unit_on_partition,
)
from .states_gns import (
    GermFunctional,
    GnsSystem,
    bm_partition_isometries,
    build_idempotent_state,
    counit_dilation_eval,
    dilation_isomorphism_check,
    gns_system,
    marginal_states,
)
from .commutative import (
    FiniteMultSystem,
    FiniteSpace,
    MultMap,
    check_measure_family,
    check_mult_system,
    glue_system,
    point_split,
    to_cstar,
)

__all__ = [name for name in dir() if not name.startswith("_")]
