"""Depth-graded double shuffle Lie algebra toolkit (exact rational arithmetic)."""

from .exact_algebra import (Poly, full_rank_certificate, nullspace_int,
                            rank_bareiss, rank_modular, span_rref)
from .ihara import (DepthPoly, UNIT, bracket, bracket_lifted, compose_lifted,
                    depth1_action, depth1_generator, dihedral,
                    dihedral_average_bracket, in_dihedral_space, poly_compose)
from .double_shuffle import (SolutionSpace, dimension, iterated_bracket_span,
                             membership_test, partial_sum_transform, solve,
                             solve_words)
from .period_poly import (PeriodPolynomial, basis_S, basis_W, cusp_dimension,
                          integral_generators)
from .exceptional import (ExceptionalElement, build_exceptional,
                          exceptional_elements, express_in_basis, interior,
                          is_sparse, is_uneven, project)
from .series import BiSeries, bk_series, eos, free_lie_dims, pbw
from .odd_mzv import c_coefficient, compositions, odd_matrix, odd_rank

__version__ = "0.1.0"
