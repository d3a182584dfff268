"""Exact Tutte polynomials of greedoids from rooted graphs, rooted digraphs
and binary matrices, with construction operators, their closed-form Tutte
identities, interpolation reductions, and matroid basis counting."""

__version__ = "0.1.0"

from .carriers import (
    BinaryMatrix,
    RootedDigraph,
    RootedGraph,
    UnrootedGraph,
    binary_greedoid,
    branching_greedoid,
    demo_binary_matrix,
    directed_branching_greedoid,
    directed_path,
    directed_star,
    identity_matrix,
    path_graph,
    standard_family,
    star_graph,
    to_greedoid,
)
from .constructions import (
    attach,
    attach_digraphs,
    attach_graphs,
    bidirect,
    block_diag,
    branching_attachment_function,
    count_subtrees,
    count_subtrees_typed,
    digon_stretch,
    full_rank_attach,
    predicted_attachment,
    predicted_full_rank,
    predicted_stretch_subtrees,
    predicted_thickening,
    predicted_thickening_eval,
    stretch_unrooted,
    thicken,
    trivial_attachment_function,
)
from .exact import ExactMatrix, bareiss_solve, det_exact, vandermonde_solve
from .greedoid import (
    Greedoid,
    SubsetProfile,
    closure,
    elements_of,
    enumerate_bases,
    enumerate_feasible_sets,
    is_feasible,
    mask_of,
    parallel_classes,
    rank_of,
    verify_family_axioms,
    verify_rank_axioms,
)
from .polynomials import (
    BivariatePoly,
    LaurentPoly,
    hyperbola_restriction,
    line_y_restriction,
    rational,
)
from .reductions import (
    PointOracle,
    binary_identities_check,
    brute_force_oracle,
    digon_reduction_check,
    interpolate_curve,
    interpolate_line_y_minus1,
    recover_point_1_0,
    reliability_identity,
    subtree_count_via_rooted,
)
from .tutte import (
    H0X,
    H0Y,
    HAlpha,
    LineY,
    arborescence_count,
    characteristic_polynomial,
    digraph_sinks_fastpath,
    h1_closed_form,
    spanning_tree_count,
    tutte_eval,
    tutte_polynomial,
    tutte_restrict,
    unrooted_tutte_polynomial,
    unrooted_tutte_x1,
)
from .basis_counting import (
    GF2,
    GF3,
    RATIONALS,
    Field,
    SimpleGraph,
    build_gadget_matrix,
    count_bases,
    count_feasible_templates,
    count_perfect_matchings,
    enumerate_feasible_templates,
    matrix_rank,
    predicted_bases_per_template,
    recover_perfect_matchings,
    template_of_basis,
)
