"""Finite-scale sofic mean length and von Neumann rank estimation over
group rings, with exact sparse rank kernels and independent oracles."""

from . import exactla, groupring, groups, meanlength, oracles, sofic
from .exactla import (RankResult, SparseMatrix, dense_rank_mod_p,
                      dense_rank_rational, rank_mod_p, rank_over_Q)
from .groupring import (INTEGERS, RATIONALS, CoefficientRing,
                        DirectFinitenessVerdict, GroupRingElement,
                        GroupRingMatrix, check_direct_finite, format_matrix,
                        mat_mul, parse_matrix, prime_field)
from .groups import (GroupDescriptor, GroupElement, ball, finite_group,
                     free_group, integer_line, lattice, load_table_file)
from .meanlength import (MeanLengthEstimate, RelativePair, build_sigma_bar,
                         check_addition, estimate_mean_length,
                         estimate_vrk_fp, principal_rank_point,
                         relative_mean_length_at, snap_to_H)
from .oracles import (FolnerBox, compare, finite_group_vrk,
                      folner_mean_length, laurent_rank)
from .sofic import (DefectReport, SoficMap, SoficSchedule, build_cyclic,
                    build_quotient, build_random_free, build_torus,
                    build_translation, defect, make_sigma, restrict)

__version__ = "0.1.0"
