"""Watersheds of simplicial stacks on normal pseudomanifolds.

Core objects: :class:`Complex` (closed families of integer-vertex
simplices), :class:`Stack` (altitudes monotone under inclusion) and
Morse stacks (at most one flat pair per face).  The watershed of a stack
can be computed by collapse (`watershed_collapse`, any stack) or by the
flood (`morse_watershed`, Morse stacks), and coincides with the
cut of the unique minimum spanning forest of the weighted facet graph
(`watershed_forest`, `verify_msf_theorem`).  The paper's definitions on
face tuples live in `definitions`, the exponential checks in `oracles`.
"""

from .complexes import (
    Complex,
    EMPTY_COMPLEX,
    Face,
    InvalidSimplexError,
    closure,
    connected_components,
    face_dim,
    face_key,
    make_face,
    proper_subfaces,
    strong_connected_components,
)
from .manifolds import (
    ValidationReport,
    generate_torus,
    link,
    links_are_pseudomanifolds,
    open_star,
    validate,
)
from .stacks import (
    MinimaDecomposition,
    Stack,
    StackError,
    complete_from_facets,
    minima,
    random_stack,
    section,
    ultimate_d_collapse,
    validate_stack,
)
from .morse import (
    CriticalReport,
    GradientField,
    classify,
    flat_pairs,
    gradient,
    is_morse,
    random_morse_stack,
    stack_from_gradient,
)
from .definitions import (
    FaceSubset,
    LambdaPath,
    biconnected_faces,
    collapse,
    covering_pairs,
    dmf_dual_check,
    extend_path,
    free_pairs,
    is_free_pair,
    is_stack_free_pair,
    separating_faces,
    stack_collapse,
    stack_free_pairs,
    trace_all,
    trace_to_minimum,
    ultimate_collapse,
)
from .watershed import (
    WATERSHED_LABEL,
    WatershedResult,
    morse_watershed,
    morse_watershed_direct,
    verify_cut,
    verify_drop_of_water,
    watershed_collapse,
)
from .forest import (
    Forest,
    WeightedFacetGraph,
    build_facet_graph,
    verify_msf_theorem,
    watershed_forest,
)
from .oracles import enumerate_msfs, is_rooted_forest, msf_is_unique, msf_oracle, msf_weight

__version__ = "0.1.0"

__all__ = [
    "Complex",
    "EMPTY_COMPLEX",
    "Face",
    "FaceSubset",
    "InvalidSimplexError",
    "closure",
    "collapse",
    "connected_components",
    "covering_pairs",
    "face_dim",
    "face_key",
    "free_pairs",
    "is_free_pair",
    "make_face",
    "proper_subfaces",
    "strong_connected_components",
    "ultimate_collapse",
    "ValidationReport",
    "generate_torus",
    "link",
    "links_are_pseudomanifolds",
    "open_star",
    "validate",
    "MinimaDecomposition",
    "Stack",
    "StackError",
    "complete_from_facets",
    "is_stack_free_pair",
    "minima",
    "random_stack",
    "section",
    "stack_collapse",
    "stack_free_pairs",
    "ultimate_d_collapse",
    "validate_stack",
    "CriticalReport",
    "GradientField",
    "LambdaPath",
    "biconnected_faces",
    "classify",
    "dmf_dual_check",
    "extend_path",
    "flat_pairs",
    "gradient",
    "is_morse",
    "random_morse_stack",
    "separating_faces",
    "stack_from_gradient",
    "trace_all",
    "trace_to_minimum",
    "WATERSHED_LABEL",
    "WatershedResult",
    "morse_watershed",
    "morse_watershed_direct",
    "verify_cut",
    "verify_drop_of_water",
    "watershed_collapse",
    "Forest",
    "WeightedFacetGraph",
    "build_facet_graph",
    "enumerate_msfs",
    "is_rooted_forest",
    "msf_is_unique",
    "msf_oracle",
    "msf_weight",
    "verify_msf_theorem",
    "watershed_forest",
]
