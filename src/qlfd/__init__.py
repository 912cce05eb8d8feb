"""qlfd: exact-arithmetic analysis of linear free divisors arising as
discriminants in quiver representation spaces.

__all__ is the paper-level API, one name per row of the README section of
that name. The other names imported here stay importable for the tests and
the benchmark.
"""

from .config import Config
from .fields import DEFAULT_PRIME, GF
from .matrix import ExactMatrix
from .poly import UnivariatePoly, interpolate
from .quiver import (DimVector, GraphClass, Quiver, cartan_matrix,
                     classify_graph, euler_form, euler_matrix, is_positive,
                     is_sincere, is_tree, quiver_from_json, quiver_to_json,
                     rep_dimension, sinks, sources, stages, tits_form)
from .reflections import (ReflectionStep, bipartite_normal_form,
                          prune_degenerate_arrow, reflect_quiver,
                          reflect_representation)
from .reps import (HomExtReport, Representation, build_c_matrix, end_dim,
                   hom_ext, is_brick, is_schur_root, perp_candidates,
                   sample_representation)
from .roots import (CoxeterMatrix, Tube, coxeter_matrix, find_tubes,
                    positive_real_roots, reflect, tube_ext_nonzero)
from .saito import (LfdReport, SaitoMatrix, build_saito_matrix,
                    component_degrees_report, degree_sum_check,
                    euler_homogeneity_witness, evaluate_f, lfd_verdict,
                    quasihom_certificate, reducedness_test,
                    relative_invariant_det)

__all__ = [
    "Quiver", "quiver_from_json", "Config", "GF",
    "euler_form", "tits_form", "classify_graph", "is_tree",
    "lfd_verdict", "build_saito_matrix", "reducedness_test", "is_schur_root",
    "sample_representation", "hom_ext", "positive_real_roots",
    "perp_candidates", "component_degrees_report",
    "euler_homogeneity_witness", "coxeter_matrix", "find_tubes",
    "quasihom_certificate", "reflect_quiver", "reflect_representation",
    "bipartite_normal_form",
]
__version__ = "0.1.0"
