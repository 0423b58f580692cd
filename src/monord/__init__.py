"""monord: exact invariants and well-orderings of monomial ideals.

Monomial ideals are modeled as final segments of N^m.  The library
computes their Hilbert and Hilbert-Samuel data exactly, the ordinal
invariant psi that realizes the height function, irreducible
decompositions, three total well-orderings extending reverse inclusion,
and quantitative chain-length bounds, all over big integers and Cantor
normal form ordinals.
"""

from .errors import (BudgetExceeded, DataError, DimensionMismatch,
                     MonordError, ParseError, WindowExhausted)
from .ordinal import (OMEGA, ONE, ZERO, Ord, cmp, format_ordinal, nat_pow,
                      nat_prod, nat_sum, omega_pow, ot_decreasing_sequences,
                      parse_ordinal)
from .ivpoly import (IVPoly, MacaulayRep, OSequenceCheck, binomial,
                     dominance_cmp, from_samples, is_osequence, macaulay_next,
                     macaulay_rep, shift)
from .monom import (DEGLEX, LEX, TermOrder, comm_leq, degree, divides,
                    higman_leq, multiset_leq, support, term_cmp)
from .ideal import (MonomialIdeal, colon, components_by_support, cone,
                    direct_sum, generator_word, ideal_intersect, ideal_sum,
                    irreducible_decomposition, normalize, slice_last,
                    unit_ideal, zero_ideal)
from .hilbert import (HilbertProfile, canonical_decomposition, height,
                      hilbert_fn, hilbert_profile, hilbert_samuel_fn,
                      hilbert_samuel_poly, lex_segment_ideal,
                      minimizing_coefficients, phi_poly, poly_from_a_sequence,
                      psi_ideal, psi_poly, realize_poly, stability_index,
                      threshold)
from .orderings import bounds_report, kb_cmp, min_type_cmp, triangle_cmp
from .chains import (BoundFn, ell, extremal_sequence, h_bound,
                     is_bad_sequence, max_bad_degree_growth, t_bound)

__version__ = "0.1.0"
