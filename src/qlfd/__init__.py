"""qlfd: exact-arithmetic analysis of linear free divisors arising as
discriminants in quiver representation spaces."""

from .config import Config
from .fields import DEFAULT_PRIME, GF
from .matrix import ExactMatrix
from .poly import UnivariatePoly, interpolate
from .quiver import (DimVector, GraphClass, Quiver, cartan_matrix,
                     classify_graph, euler_form, euler_matrix, is_positive,
                     is_sincere, is_tree, quiver_from_json, quiver_to_json,
                     rep_dimension, sinks, sources, stages, sym_form,
                     tits_form)
from .reflections import (ReflectionStep, bipartite_normal_form,
                          prune_degenerate_arrow, reflect_quiver,
                          reflect_representation)
from .reps import (HomExtReport, Representation, build_c_matrix, end_dim,
                   hom_ext, is_brick, is_schur_root, perp_candidates,
                   sample_representation)
from .roots import (CoxeterMatrix, Tube, coxeter_matrix, defect, find_tubes,
                    is_real_root, positive_real_roots, reflect,
                    tau_dim, tube_chain_acyclic, tube_ext_nonzero)
from .saito import (LfdReport, SaitoMatrix, build_saito_matrix,
                    component_degree, component_degrees_report,
                    degree_sum_check, euler_homogeneity_witness, evaluate_f,
                    lfd_verdict, quasihom_certificate,
                    reducedness_test, relative_invariant_det,
                    single_coordinate_basis_check)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
