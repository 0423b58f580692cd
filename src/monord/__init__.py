"""monord: exact invariants and well-orderings of monomial ideals.

Monomial ideals are modeled as final segments of N^m.  The library
computes their Hilbert and Hilbert-Samuel data exactly, the ordinal
invariant psi that realizes the height function, irreducible
decompositions, three total well-orderings extending reverse inclusion,
and quantitative chain-length bounds, all over big integers and Cantor
normal form ordinals.

The package loads lazily (PEP 562), so ``import monord.cli`` pays only
for the engine modules a subcommand uses.  Naming a submodule
(``monord.hilbert``) imports that submodule; the first use of any name
below imports every engine module and binds all the names at once.
"""

__version__ = "0.1.0"

_EXPORTS = {name: module for module, names in {
    "errors": "BudgetExceeded DataError DimensionMismatch MonordError "
              "ParseError",
    "ordinal": "OMEGA ONE ZERO Ord bounds_report cmp format_ordinal nat_pow "
               "nat_prod nat_sum omega_pow ot_decreasing_sequences "
               "parse_ordinal",
    "ivpoly": "IVPoly MacaulayRep OSequenceCheck binomial dominance_cmp "
              "from_samples is_osequence macaulay_next macaulay_rep",
    "monom": "DEGLEX LEX TermOrder comm_leq degree divides higman_leq "
             "multiset_leq support term_cmp",
    "ideal": "MonomialIdeal colon components_by_support cone direct_sum "
             "generator_word ideal_intersect ideal_sum "
             "irreducible_decomposition normalize slice_last unit_ideal "
             "zero_ideal",
    "hilbert": "HilbertProfile canonical_decomposition height hilbert_fn "
               "hilbert_profile hilbert_samuel_fn hilbert_samuel_poly "
               "lex_segment_ideal minimizing_coefficients phi_poly "
               "poly_from_a_sequence psi_ideal psi_poly realize_poly "
               "stability_index threshold",
    "orderings": "kb_cmp min_type_cmp triangle_cmp",
    "chains": "BoundFn ell extremal_sequence h_bound is_bad_sequence "
              "max_bad_degree_growth t_bound",
}.items() for name in names.split()}
_MODULES = tuple(dict.fromkeys(_EXPORTS.values()))

__all__ = [*_MODULES, *_EXPORTS]


def __getattr__(name):
    from importlib import import_module
    if name in _EXPORTS:
        # All names at once: were they bound one by one, a name bound after
        # monord was imported afresh would come from another copy of its
        # module than the names bound before (two Ord classes, say).
        modules = {m: import_module(f"{__name__}.{m}") for m in _MODULES}
        globals().update({n: getattr(modules[m], n)
                          for n, m in _EXPORTS.items()})
        return globals()[name]
    if name in _MODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
