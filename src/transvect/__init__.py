"""Recognition and certification of matrix groups generated by transvections
over finite fields.

The pipeline: exact field and matrix arithmetic (`gf`, `linalg`),
transvections and their directed graph (`transvections`, `tgraph`),
invariant form detection and transvective decompositions (`forms`), group
classification with certificates (`classify`), and Cayley-graph
exploration (`cayley`).  The `cli` module wires everything into the
`transvect` command.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import TransvectError
from .gf import Field, field_create
from .linalg import Mat, Subspace
from .transvections import (
    Transvection,
    standard_full_field_set,
    tv_from_matrix,
)
from .tgraph import (
    TransvectionGraph,
    build_graph,
    connect_up,
    cycle_weight,
    defect,
    defining_field,
    densify,
    is_dense,
    is_irreducible,
    is_strongly_connected,
    restrict_to_section,
    shorten_path,
    winkle,
    word_matrix,
)
from .forms import (
    QuadraticForm,
    SesquiForm,
    detect_invariant_form,
    is_transvective,
    recover_quadratic,
    transvective_split,
)
from .classify import (
    Certificate,
    ClassificationReport,
    GroupTypeTag,
    build_monomial_group,
    build_symmetric_rep,
    certify,
    classify,
    detect_monomial_structure,
    detect_symmetric_type,
    group_order,
    order_formula,
    quadratic_type,
    stability_check,
)
from .cayley import (
    CayleyExploration,
    bfs_explore,
    bidirectional_distance,
    shortest_word,
    transvection_ball,
    transvection_length_profile,
    word_recover,
)

__all__ = [
    "__version__",
    "TransvectError",
    "Field",
    "field_create",
    "Mat",
    "Subspace",
    "Transvection",
    "standard_full_field_set",
    "tv_from_matrix",
    "TransvectionGraph",
    "build_graph",
    "connect_up",
    "cycle_weight",
    "defect",
    "defining_field",
    "densify",
    "is_dense",
    "is_irreducible",
    "is_strongly_connected",
    "restrict_to_section",
    "shorten_path",
    "winkle",
    "word_matrix",
    "QuadraticForm",
    "SesquiForm",
    "detect_invariant_form",
    "is_transvective",
    "recover_quadratic",
    "transvective_split",
    "Certificate",
    "ClassificationReport",
    "GroupTypeTag",
    "build_monomial_group",
    "build_symmetric_rep",
    "certify",
    "classify",
    "detect_monomial_structure",
    "detect_symmetric_type",
    "group_order",
    "order_formula",
    "quadratic_type",
    "stability_check",
    "CayleyExploration",
    "bfs_explore",
    "bidirectional_distance",
    "shortest_word",
    "transvection_ball",
    "transvection_length_profile",
    "word_recover",
]
