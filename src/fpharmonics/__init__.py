"""Finite-field harmonic analysis toolkit.

Signals on F_p, the quadruple-counting operator T, the additive /
multiplicative / quadratic norm hierarchy, quadratic-multiplicative
systems with exactly enumerable orbit groups, constructive decomposition
and regularity machinery, character-sum audits, pair-coloring Ramsey
counting, and combinatorial searches over monochromatic {x, y, x+y, xy}
patterns.
"""

from .calibration import AUDIT_CONSTANTS, CALIBRATION_SEED
from .charsums import gauss_sum, mixed_sum, u3_box_sum, weil_product_sum
from .counting import (Coloring, MarginReport, QuadrupleCensus, T,
                       T_boundary_identity, T_spectral_sums, T_tilde,
                       census_quadruples, census_triples, check_gvn_bounds,
                       check_simple_lemma, check_u2times_star_bound,
                       differencing_sup, phased_character_example)
from .field import FieldCtx, MultChar, QuadPhase, cached_field, new_field
from .harmonic import (AddSpectrum, MultSpectrum, NormResult, Signal,
                       add_invert, add_transform, convolve, indicator,
                       inner_product, mult_transform, norm_qm, norm_u2_plus,
                       norm_u2_times, norm_u3_plus, ones, qm_basis_signal,
                       random_signal, signal_from_json, signal_load,
                       signal_to_json)
from .qm import (GPoint, HGroup, QMSystem, TrigPoly, baby_count, bohr_set,
                 box_fraction, check_bohr_density, check_pigeon_projection,
                 compose_signal, counting_integral_I, counting_lemma_check,
                 enumerate_H, eval_system, trig_norm)
from .ramsey import (FiniteGroup, PairColoring, dependent_random_choice,
                     eps_r, extremal_coloring, find_rich_color,
                     grid_triple_search, lambda_T)
from .regularity import (KvnResult, PartitionAtoms, QuadDecomposition,
                         SmoothBox, build_atoms, check_sqrt2_gap,
                         decomposable_unit_signal,
                         find_correlating_projection, kvn_energy_increment,
                         project, quad_decompose, smooth_box_approx,
                         smooth_majorant)
from .search import (SearchResult, check_interval_coloring, fp_coloring_scan,
                     interval_backtrack, interval_sweep)

__version__ = "0.1.0"
