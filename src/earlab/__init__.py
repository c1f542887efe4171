"""Convex-ear decompositions of poset order complexes, verified exactly.

The package builds ear decompositions for five input classes (supersolvable
lattices, rank-selected Boolean and supersolvable lattices, face posets of
shellable complexes, geometric lattices), certifies every ear as a shelled
ball or sphere, checks the four decomposition axioms combinatorially, and
derives the h-vector, g-vector, and flag-vector consequences with exact
integer arithmetic throughout.
"""

from .complexes import (
    Certificate,
    ShellingOrder,
    SimplicialComplex,
    boundary_complex,
    build_complex,
    certify_sphere_or_ball,
    complex_from_json,
    complex_to_json,
    f_h_vectors,
    face_name,
    face_poset,
    h_from_shelling,
    homology_ranks,
    is_cm_and_2cm,
    order_complex,
    search_shelling,
    verify_shelling,
)
from .decompositions import (
    Ear,
    EarDecomposition,
    decompose_face_poset,
    decompose_geometric,
    decompose_rank_selected_boolean,
    decompose_rank_selected_supersolvable,
    decompose_supersolvable,
    verify_ced,
)
from .errors import EarlabError
from .flags import (
    FlagVector,
    ball_flag_reciprocity,
    descent_classes,
    dominance_table,
    dominates,
    flag_f_and_h,
    g_and_m_check,
    g_vector,
    is_m_vector,
    verify_flag_inequalities,
    verify_h_inequalities,
    w_set,
)
from .labelings import (
    EdgeLabeling,
    derive_sn_labeling,
    descent_set,
    h_by_descents,
    increasing_and_decreasing_chains,
    lex_shelling,
    minimal_labeling,
    verify_el,
    verify_sr,
)
from .lattices import (
    Lattice,
    boolean_lattice,
    lattice_from_json,
    lattice_to_json,
    partition_lattice,
)
from .matroids import (
    Matroid,
    build_matroid,
    graphic_matroid,
    lattice_of_flats,
    matroid_from_json,
    matroid_to_json,
    nbc_bases,
    uniform_matroid,
)
from .posets import (
    Poset,
    build_poset,
    maximal_chains,
    mobius,
    poset_from_json,
    poset_to_json,
    proper_part,
    rank_select,
    with_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # posets
    "Poset",
    "build_poset",
    "maximal_chains",
    "mobius",
    "poset_from_json",
    "poset_to_json",
    "proper_part",
    "rank_select",
    "with_bounds",
    # lattices
    "Lattice",
    "boolean_lattice",
    "partition_lattice",
    "lattice_from_json",
    "lattice_to_json",
    # matroids
    "Matroid",
    "build_matroid",
    "uniform_matroid",
    "graphic_matroid",
    "nbc_bases",
    "lattice_of_flats",
    "matroid_from_json",
    "matroid_to_json",
    # complexes
    "SimplicialComplex",
    "ShellingOrder",
    "Certificate",
    "build_complex",
    "order_complex",
    "face_poset",
    "face_name",
    "f_h_vectors",
    "verify_shelling",
    "search_shelling",
    "h_from_shelling",
    "boundary_complex",
    "homology_ranks",
    "is_cm_and_2cm",
    "certify_sphere_or_ball",
    "complex_from_json",
    "complex_to_json",
    # labelings
    "EdgeLabeling",
    "descent_set",
    "verify_el",
    "verify_sr",
    "derive_sn_labeling",
    "minimal_labeling",
    "increasing_and_decreasing_chains",
    "lex_shelling",
    "h_by_descents",
    # flag vectors
    "FlagVector",
    "flag_f_and_h",
    "g_vector",
    "is_m_vector",
    "g_and_m_check",
    "verify_h_inequalities",
    "verify_flag_inequalities",
    "descent_classes",
    "dominates",
    "dominance_table",
    "w_set",
    "ball_flag_reciprocity",
    # decompositions
    "Ear",
    "EarDecomposition",
    "decompose_supersolvable",
    "decompose_rank_selected_boolean",
    "decompose_rank_selected_supersolvable",
    "decompose_face_poset",
    "decompose_geometric",
    "verify_ced",
    # errors
    "EarlabError",
]
