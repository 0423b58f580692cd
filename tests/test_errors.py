"""The input contract: a bad argument to a public call raises DataError,
and the value classes load through their checked constructors."""

import copy
import dataclasses
import pickle
import random
from collections import namedtuple
from types import SimpleNamespace

import pytest

import monord
from monord import (DEGLEX, LEX, OMEGA, ONE, BoundFn, BudgetExceeded,
                    DataError, DimensionMismatch, IVPoly, MonomialIdeal,
                    MonordError, Ord,
                    TermOrder, binomial, cmp, colon, comm_leq, cone, degree,
                    direct_sum, divides, dominance_cmp, ell,
                    extremal_sequence, from_samples, generator_word, h_bound,
                    height, higman_leq, hilbert_fn, hilbert_profile,
                    hilbert_samuel_fn, hilbert_samuel_poly, ideal_intersect,
                    ideal_sum, irreducible_decomposition, is_bad_sequence,
                    is_osequence, kb_cmp, lex_segment_ideal, macaulay_next,
                    macaulay_rep, max_bad_degree_growth, min_type_cmp,
                    minimizing_coefficients, multiset_leq, nat_pow, nat_sum,
                    normalize, poly_from_a_sequence, psi_ideal, psi_poly,
                    slice_last, stability_index, support, t_bound, term_cmp,
                    threshold, triangle_cmp)
from monord.errors import Budget
from monord.hilbert import a_sequence
from monord.ivpoly import binom_poly

E = normalize(2, [(2, 0), (1, 1)])
# an object that carries an ideal's fields, but is no MonomialIdeal
LookAlike = namedtuple("LookAlike", "dim gens")

# each row was answered, or raised a builtin exception, before the checks
# moved to the public boundary
BAD_CALLS = {
    "slice_last float index": lambda: slice_last(E, 0.5),
    "psi_poly m = 0": lambda: psi_poly(IVPoly((1,)), 0),
    "psi_poly bool m": lambda: psi_poly(IVPoly((1,)), True),
    "hilbert_fn float degree": lambda: hilbert_fn(E, 2.5),
    "hilbert_fn str degree": lambda: hilbert_fn(E, "2"),
    "hilbert_fn bool degree": lambda: hilbert_fn(E, True),
    "h_bound float s": lambda: h_bound(2.5, 2),
    "poly_from_a_sequence float": lambda: poly_from_a_sequence([1.5]),
    "minimizing_coefficients float coordinate":
        lambda: minimizing_coefficients(IVPoly((1.5,)), 2),
    "nat_sum str operand": lambda: nat_sum(OMEGA, "x"),
    "dominance_cmp int operand": lambda: dominance_cmp(IVPoly((1,)), 3),
    "Ord bool coefficient": lambda: Ord(((ONE, True),)),
    "nat_pow bool exponent": lambda: nat_pow(OMEGA, True),
    "affine bool p": lambda: BoundFn.affine(True, 1),
    "from_table bool value": lambda: BoundFn.from_table([True]),
    "callable bound returns bool": lambda: ell(2, lambda i: True),
    "matrix float entry": lambda: TermOrder("matrix", ((1.5, 1),)),
    "matrix of lists": lambda: TermOrder("matrix", [[1, 0], [0, 1]]),
    "multiset_leq mixed dimensions":
        lambda: multiset_leq([(1, 0)], [(1, 0), (1, 0, 0)]),
    # these raised TypeError, AttributeError or RecursionError
    "Ord of an int": lambda: Ord(5),
    "Ord term without a coefficient": lambda: Ord((1,)),
    "normalize an int": lambda: normalize(2, 5),
    "normalize int points": lambda: normalize(2, [5]),
    "kb_cmp str order": lambda: kb_cmp(E, E, order="deglex"),
    "hilbert_fn int ideal": lambda: hilbert_fn(3, 1),
    "hilbert_samuel_fn int ideal": lambda: hilbert_samuel_fn(3, 1),
    "ideal >= int": lambda: E >= 3,
    "int <= ideal": lambda: 3 <= E,
    "ideal <= int": lambda: E <= 3,
    "IVPoly at a bool": lambda: IVPoly((1, 1))(True),
    "IVPoly at a float": lambda: IVPoly((1, 1))(2.0),
    "IVPoly at a str": lambda: IVPoly((1, 1))("2"),
    # and these raised AttributeError: an int where an ideal belongs
    "triangle_cmp int ideal": lambda: triangle_cmp(E, 3),
    "min_type_cmp int ideal": lambda: min_type_cmp(E, 3),
    "kb_cmp int ideal": lambda: kb_cmp(E, 3),
    "irreducible_decomposition int ideal":
        lambda: irreducible_decomposition(3),
    "cone int ideal": lambda: cone(3),
    "direct_sum int ideal": lambda: direct_sum(E, 3),
    "ideal_sum int ideal": lambda: ideal_sum(E, 3),
    "ideal_intersect int ideal": lambda: ideal_intersect(E, 3),
    "colon int ideal": lambda: colon(3, (0, 0)),
    "slice_last int ideal": lambda: slice_last(3, 0),
    "generator_word int ideal": lambda: generator_word(3),
    "threshold int ideal": lambda: threshold(3),
    "height int ideal": lambda: height(3),
    "hilbert_profile int ideal": lambda: hilbert_profile(3),
    "hilbert_samuel_poly int ideal": lambda: hilbert_samuel_poly(3),
    "psi_ideal int ideal": lambda: psi_ideal(3),
    "stability_index int ideal": lambda: stability_index(3),
    "lex_segment_ideal int ideal": lambda: lex_segment_ideal(3, 2),
    "is_bad_sequence int ideal": lambda: is_bad_sequence([E, 3]),
    # and these raised AttributeError or TypeError: an int where an
    # ordinal, a word or a sequence belongs
    "cmp int operand": lambda: cmp(ONE, 3),
    "higman_leq int words": lambda: higman_leq(3, 4),
    "higman_leq int letters": lambda: higman_leq([3], [4]),
    "comm_leq int word": lambda: comm_leq([(1, 0)], 5),
    "is_bad_sequence int": lambda: is_bad_sequence(3),
    # the polynomial calls: these were answered, with a float coordinate
    # or 0, or raised TypeError
    "IVPoly float coordinate": lambda: IVPoly([1.5]),
    "IVPoly bool coordinate": lambda: IVPoly([True]),
    "IVPoly of an int": lambda: IVPoly(5),
    "from_samples float sample": lambda: from_samples([1.5, 2]),
    "binomial float x": lambda: binomial(1.5, 2),
    "binomial str x": lambda: binomial("a", 2),
    "binom_poly float k": lambda: binom_poly(0, 1.5),
    "binom_poly negative k": lambda: binom_poly(0, -1),
    "binom_poly str c": lambda: binom_poly("a", 2),
    "poly_from_a_sequence None": lambda: poly_from_a_sequence(None),
    "a_sequence None": lambda: a_sequence(None),
    # and these were checked already: each polynomial call has a row
    "macaulay_rep negative a": lambda: macaulay_rep(-1, 2),
    "macaulay_next float a": lambda: macaulay_next(1.5, 2),
    "is_osequence m = 0": lambda: is_osequence([1], 0),
    "is_osequence empty": lambda: is_osequence([], 2),
    # the point helpers and chain bounds: a bound that is not callable was
    # accepted and raised TypeError when read; the rest raised TypeError or
    # AttributeError
    "BoundFn int": lambda: BoundFn(5),
    "BoundFn None": lambda: BoundFn(None),
    "from_table int": lambda: BoundFn.from_table(5),
    "from_table empty": lambda: BoundFn.from_table([]),
    "divides int point": lambda: divides(5, (1,)),
    "degree int": lambda: degree(5),
    "support int": lambda: support(5),
    "term_cmp int point": lambda: term_cmp(LEX, 5, (1,)),
    "term_cmp str order": lambda: term_cmp("lex", (1, 0), (0, 1)),
    "generator_word str order": lambda: generator_word(E, "lex"),
    "from_samples int": lambda: from_samples(5),
    "from_samples str samples": lambda: from_samples(["a", "b"]),
    # and these were checked already: each point and chain call has a row
    "TermOrder unknown kind": lambda: TermOrder("lax"),
    # these were accepted: the first then raised TypeError on hash, the
    # second was unequal to DEGLEX, though it orders points as DEGLEX does,
    # and the third scaled by a bool, though bool coordinates are refused
    "TermOrder lex with a list matrix": lambda: TermOrder("lex", [1]),
    "TermOrder deglex with a matrix": lambda: TermOrder("deglex", ((9, 9),)),
    "IVPoly.scale bool": lambda: IVPoly([1]).scale(True),
    "IVPoly.scale float": lambda: IVPoly([1]).scale(2.5),
    "TermOrder.key column count": lambda: TermOrder(
        "matrix", ((1, 1), (0, 1))).key((1, 0, 0)),
    "Ord.to_int infinite": lambda: OMEGA.to_int(),
    "ell m = 0": lambda: ell(0, 1),
    "t_bound bool m": lambda: t_bound(True, 1),
    "extremal_sequence negative cap": lambda: extremal_sequence(2, 1, -1),
    "max_bad_degree_growth float cap":
        lambda: max_bad_degree_growth(2, 1, 2.5),
    # objects that only look like monord values: the first was answered
    # with the opposite verdict, as namedtuples compare as tuples, the
    # second with 1 for equal words, and the rest raised AttributeError
    "is_bad_sequence look-alike ideals": lambda: is_bad_sequence(
        [LookAlike(2, ((1, 0), (0, 1))), LookAlike(2, ((2, 0), (0, 2)))]),
    "kb_cmp look-alike ideal": lambda: kb_cmp(
        LookAlike(2, ((3, 0), (0, 1))), normalize(2, [(0, 1), (3, 0)])),
    "hilbert_samuel_poly look-alike ideal":
        lambda: hilbert_samuel_poly(LookAlike(2, ((3, 0), (0, 1)))),
    "kb_cmp look-alike order":
        lambda: kb_cmp(E, E, SimpleNamespace(kind="matrix")),
    "ell look-alike bound": lambda: ell(2, SimpleNamespace(_flat=0)),
    "psi_poly look-alike polynomial":
        lambda: psi_poly(SimpleNamespace(coeffs=(1,)), 2),
    "IVPoly plus an int": lambda: IVPoly([1]) + 5,
    "IVPoly minus an int": lambda: IVPoly([1]) - 5,
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS)
def test_bad_arguments_raise_data_error(call):
    with pytest.raises(DataError):
        call()


def test_every_polynomial_call_has_a_bad_call_row():
    """Each callable that monord.ivpoly, monord.monom or monord.chains
    exports, NamedTuple records aside, and binom_poly is the first word of
    a BAD_CALLS row, so a new public call on polynomials, points or chain
    bounds cannot skip the input contract.  LEX and DEGLEX are term orders,
    not calls."""
    modules = {"monord.ivpoly", "monord.monom", "monord.chains"}
    exports = {name: getattr(monord, name) for name in monord.__all__}
    calls = {"binom_poly"} | {
        name for name, value in exports.items()
        if getattr(value, "__module__", None) in modules and callable(value)
        and not hasattr(value, "_fields")}
    assert {"IVPoly", "binomial", "macaulay_rep", "TermOrder", "term_cmp",
            "BoundFn", "ell", "max_bad_degree_growth"} < calls
    assert not {"LEX", "DEGLEX", "MacaulayRep"} & calls
    assert calls <= {row.split()[0] for row in BAD_CALLS}


BIG = 10 ** 5000
# each raised a bare ValueError past Python's int-string digit limit; the
# profile's big ints are plain int fields, its p and psi are small
PRINTS = {
    "repr IVPoly": lambda: repr(IVPoly([BIG])),
    "str IVPoly": lambda: str(IVPoly([BIG])),
    "str ideal": lambda: str(normalize(1, [(BIG,)])),
    "repr ideal": lambda: repr(normalize(1, [(BIG,)])),
    "repr HilbertProfile": lambda: repr(hilbert_profile(
        normalize(1, [(BIG,)]))._replace(p=IVPoly([1]), psi=ONE)),
}


@pytest.mark.parametrize("show", PRINTS.values(), ids=PRINTS)
def test_printing_past_the_digit_limit(show, int_digit_limit):
    with pytest.raises(DataError, match="4300 digits.*set_int_max_str"):
        show()


def test_data_error_is_a_value_error():
    assert issubclass(DataError, MonordError)
    assert issubclass(DataError, ValueError)
    assert issubclass(DimensionMismatch, DataError)


def test_budget():
    budget = Budget(None, 5)
    budget.charge(3)
    with pytest.raises(BudgetExceeded) as exc:
        budget.charge(3)
    # a refused charge spends nothing; the message names the limit, the
    # amount spent and asked, and the knob
    assert exc.value.spent == budget.spent == 3
    assert str(exc.value) == ("budget of 5 units exhausted: 3 spent, 3 more "
                              "asked (raise it with budget= or --budget)")
    budget.charge(2)
    assert Budget(0, 5).limit == 0
    for limit in (-1, 2.5, "9", True):
        with pytest.raises(DataError, match="budget"):
            Budget(limit, 5)


def seeded_values(seed):
    """Seeded ideals, term orders, polynomials and ordinals, with repeats,
    so that equal values built apart meet."""
    rng = random.Random(seed)
    values = [DEGLEX, LEX, TermOrder("matrix", ((1, 1), (0, 1)))]
    for _ in range(40):
        m = rng.randint(1, 3)
        values.append(normalize(m, [tuple(rng.randint(0, 3) for _ in range(m))
                                    for _ in range(rng.randint(0, 3))]))
        values.append(IVPoly([rng.randint(-2, 2)
                              for _ in range(rng.randint(0, 3))]))
        values.append(nat_pow(nat_sum(OMEGA, rng.randint(0, 2)),
                              rng.randint(0, 2)))
    return values + values[::5]


def test_values_round_trip_through_pickle_and_copy():
    # every value class loads through its checked constructor; IVPoly
    # did not pickle at protocols 0 and 1
    e = normalize(3, [(2, 1, 0), (0, 1, 3), (1, 0, 1)])
    profile = hilbert_profile(e)
    for value in (e, DEGLEX, TermOrder("matrix", ((1, 1, 1), (0, -1, 2))),
                  nat_sum(nat_pow(OMEGA, 3), ONE), IVPoly((4, -2, 1)),
                  profile, profile.p, profile.psi, *seeded_values(95)):
        backs = [pickle.loads(pickle.dumps(value, proto))
                 for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for back in backs + [copy.copy(value), copy.deepcopy(value)]:
            assert type(back) is type(value) and back == value
            assert repr(back) == repr(value) and hash(back) == hash(value)


class TestValue:
    """errors.Value: the four value classes act as frozen dataclasses over
    their fields, Ord aside for its repr and its pickles through terms."""

    def test_ideal_and_polynomial_match_the_dataclass(self):
        twins = {cls: (names, dataclasses.make_dataclass(
            cls.__name__, names, frozen=True))
            for cls, names in ((MonomialIdeal, ["dim", "gens"]),
                               (IVPoly, ["coeffs"]))}
        values = [v for v in seeded_values(91) if type(v) in twins]
        frozens = []
        for v in values:
            names, twin = twins[type(v)]
            frozens.append(twin(*(getattr(v, n) for n in names)))
        assert {type(v) for v in values} == set(twins)
        for v, d in zip(values, frozens):
            # hashes are pinned below: a dataclass of one field hashes
            # the 1-tuple of it, and these hash the field itself
            assert repr(v) == repr(d)
            for w, c in zip(values, frozens):
                assert (v == w, v != w) == (d == c, d != c)
        assert repr(IVPoly([1, 2])) == "IVPoly(coeffs=(1, 2))"
        assert repr(normalize(2, [(1, 0)])) == ("MonomialIdeal(dim=2, "
                                                "gens=((1, 0),))")
        assert repr(OMEGA) == "Ord[w]"

    def test_hashes_are_those_of_the_fields(self):
        fields = {MonomialIdeal: lambda e: (e.dim, e.gens),
                  TermOrder: lambda t: (t.kind, t.matrix),
                  IVPoly: lambda p: p.coeffs, Ord: lambda a: a.form}
        for v in seeded_values(93):
            assert hash(v) == hash(fields[type(v)](v))

    def test_unchecked_build_is_the_same_value(self):
        # Value._of builds past the checks a value equal to the checked one
        for v in seeded_values(97):
            u = type(v)._of(*(getattr(v, n) for n in type(v)._field_names))
            assert type(u) is type(v) and u is not v
            assert u == v and v == u and len({u, v}) == 1
            assert hash(u) == hash(v) and repr(u) == repr(v)

    def test_values_of_two_classes_are_unequal(self):
        # values of two classes differ, as do a value and its bare fields
        e, p, a = normalize(1, [(1,)]), IVPoly([1]), ONE
        for x, y in ((e, p), (p, a), (e, a), (DEGLEX, "deglex"),
                     (p, (1,)), (a, a.form), (e, (1, ((1,),)))):
            assert x != y and y != x and not x == y

