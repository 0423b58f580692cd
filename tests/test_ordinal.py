"""Ordinal arithmetic: examples and algebraic laws."""

import copy
import pickle
import random
import time
from functools import cmp_to_key

import pytest
from hypothesis import given, settings, strategies as st

from monord import (OMEGA, ONE, ZERO, DataError, MonordError, Ord,
                    ParseError, cmp, format_ordinal, nat_pow, nat_prod,
                    nat_sum, omega_pow, ot_decreasing_sequences,
                    parse_ordinal)
from monord.ordinal import MAX_NESTING
from oracles import (cnf_cmp, recursive_format_ordinal,
                     recursive_parse_ordinal)


def o(text):
    return parse_ordinal(text)


def build(pairs):
    """Assemble an ordinal as a natural sum of w^e * c terms."""
    out = ZERO
    for e, c in pairs:
        out = nat_sum(out, nat_prod(omega_pow(e), Ord.from_int(c)))
    return out


ordinals = st.deferred(lambda: st.lists(
    st.tuples(st.one_of(st.integers(0, 3).map(Ord.from_int), ordinals),
              st.integers(1, 9)),
    max_size=3).map(build))


class TestCmp:
    def test_zero_equal(self):
        assert cmp(ZERO, ZERO) == 0

    def test_finite_below_omega(self):
        assert cmp(Ord.from_int(3), OMEGA) == -1

    def test_termwise(self):
        assert cmp(o("w^2 + 1"), o("w^2 + w")) == -1

    def test_int_agreement(self):
        for a in range(20):
            for b in range(20):
                got = cmp(Ord.from_int(a), Ord.from_int(b))
                assert got == (a > b) - (a < b)

    @given(ordinals, ordinals, ordinals)
    def test_total_order(self, a, b, c):
        assert cmp(a, b) == -cmp(b, a)
        if cmp(a, b) <= 0 and cmp(b, c) <= 0:
            assert cmp(a, c) <= 0


class TestForm:
    """Tuple order on forms against the term-by-term comparison."""

    @given(ordinals, ordinals)
    def test_order_matches_cnf_cmp(self, a, b):
        want = cnf_cmp(a, b)
        assert cmp(a, b) == want
        assert (a < b, a == b, a > b) == (want < 0, want == 0, want > 0)

    def test_orders_ordinals_only(self):
        # an int is no ordinal: unequal to ONE, and not ordered against it
        assert ONE != 1
        with pytest.raises(TypeError):
            ONE < 1

    @given(st.lists(ordinals, max_size=6))
    def test_sorted_matches_cnf_cmp(self, xs):
        assert sorted(xs) == sorted(xs, key=cmp_to_key(cnf_cmp))

    @given(ordinals, ordinals)
    def test_equal_ordinals_hash_equal(self, a, b):
        for c in (Ord(a.terms), parse_ordinal(format_ordinal(a))):
            assert c == a and hash(c) == hash(a)
        if a == b:
            assert hash(a) == hash(b)

    @given(ordinals)
    def test_form_nests_tuples(self, a):
        def tuples_all_down(form):
            return type(form) is tuple and all(
                type(c) is int and tuples_all_down(g) for g, c in form)

        assert tuples_all_down(a.form)
        assert all(type(e) is Ord for e, _ in a.terms)

    def test_constructor_checks(self):
        with pytest.raises(ValueError, match="bad CNF term"):
            Ord(((ONE, 0),))
        with pytest.raises(ValueError, match="bad CNF term"):
            Ord(((1, 1),))
        for terms in (((ONE, 1), (ONE, 1)), ((ONE, 1), (OMEGA, 1))):
            with pytest.raises(ValueError, match="strictly decrease"):
                Ord(terms)
        # Ord.from_int(True) was an ordinal that formatted as True
        for n in (True, False, -1, 2.0):
            with pytest.raises(ValueError, match="natural"):
                Ord.from_int(n)

    def test_fields_are_read_only(self):
        # del a.form succeeded and left an Ord with no form
        a = o("w^2 + 3")
        for write in (lambda: setattr(a, "form", ()),
                      lambda: setattr(a, "other", 1),
                      lambda: delattr(a, "form")):
            with pytest.raises(AttributeError, match="^Ord is immutable$"):
                write()
        assert a == o("w^2 + 3") and format_ordinal(a) == "w^2 + 3"

    def test_copy_and_pickle(self):
        deepest = "w^(" * MAX_NESTING + "2" + ")" * MAX_NESTING + " + w*3 + 2"
        for text in ("0", "7", "w", "w^(w + 1)*2 + w + 3", deepest):
            a = parse_ordinal(text)
            for b in (copy.copy(a), copy.deepcopy(a),
                      pickle.loads(pickle.dumps(a))):
                assert b == a and format_ordinal(b) == format_ordinal(a)


class TestNatSum:
    def test_zero_identity(self):
        a = o("w^2*2 + 3")
        assert nat_sum(a, ZERO) == a
        assert nat_sum(ZERO, a) == a

    def test_one_plus_omega(self):
        assert nat_sum(ONE, OMEGA) == o("w + 1")

    def test_coefficient_merge(self):
        assert nat_sum(o("w + 1"), o("w + 2")) == o("w*2 + 3")

    @given(ordinals, ordinals)
    def test_commutative(self, a, b):
        assert nat_sum(a, b) == nat_sum(b, a)

    @given(ordinals, ordinals, ordinals)
    def test_associative(self, a, b, c):
        assert nat_sum(nat_sum(a, b), c) == nat_sum(a, nat_sum(b, c))

    @given(ordinals, ordinals, ordinals)
    def test_strictly_monotone_and_cancellative(self, a, b, c):
        if cmp(a, b) == -1:
            assert cmp(nat_sum(a, c), nat_sum(b, c)) == -1
        assert (nat_sum(a, c) == nat_sum(b, c)) == (a == b)


class TestNatProd:
    def test_one_identity(self):
        a = o("w^w + w*4 + 2")
        assert nat_prod(a, ONE) == a

    def test_omega_squared(self):
        assert nat_prod(OMEGA, OMEGA) == o("w^2")

    def test_omega_plus_one_squared(self):
        assert nat_prod(o("w + 1"), o("w + 1")) == o("w^2 + w*2 + 1")

    @given(ordinals, ordinals)
    def test_commutative(self, a, b):
        assert nat_prod(a, b) == nat_prod(b, a)

    @settings(deadline=None)
    @given(ordinals, ordinals, ordinals)
    def test_associative(self, a, b, c):
        assert nat_prod(nat_prod(a, b), c) == nat_prod(a, nat_prod(b, c))

    @settings(deadline=None)
    @given(ordinals, ordinals, ordinals)
    def test_distributive(self, a, b, c):
        left = nat_prod(a, nat_sum(b, c))
        right = nat_sum(nat_prod(a, b), nat_prod(a, c))
        assert left == right

    @given(ordinals, ordinals, ordinals)
    def test_strictly_monotone(self, a, b, c):
        if cmp(a, b) == -1 and not c.is_zero():
            assert cmp(nat_prod(a, c), nat_prod(b, c)) == -1


class TestOperators:
    @given(ordinals, ordinals)
    def test_operators_are_the_natural_operations(self, a, b):
        assert a + b == nat_sum(a, b) and a * b == nat_prod(a, b)
        assert str(a) == format_ordinal(a)

    def test_ints_on_either_side(self):
        assert 2 + OMEGA == OMEGA + 2 == o("w + 2")
        assert 3 * OMEGA == OMEGA * 3 == o("w*3")
        assert str(nat_sum(omega_pow(OMEGA), ONE)) == "w^w + 1"


class TestFiniteAgreement:
    def test_sum_prod_are_integer_ops(self):
        for a in range(0, 51, 7):
            for b in range(0, 51, 5):
                assert nat_sum(Ord.from_int(a), Ord.from_int(b)).to_int() == a + b
                assert nat_prod(Ord.from_int(a), Ord.from_int(b)).to_int() == a * b

    def test_natural_sum_supremum_identity(self):
        # a (+) b = max over strict predecessors of (a' (+) b) + 1 and
        # (a (+) b') + 1, checked exhaustively at finite scale
        for a in range(0, 51, 10):
            for b in range(0, 51, 9):
                if a == b == 0:
                    continue
                preds = [a2 + b + 1 for a2 in range(a)]
                preds += [a + b2 + 1 for b2 in range(b)]
                assert a + b == max(preds)


class TestNatPow:
    def test_zeroth_power(self):
        assert nat_pow(o("w + 1"), 0) == ONE

    def test_first_power(self):
        assert nat_pow(o("w + 1"), 1) == o("w + 1")

    def test_square(self):
        assert nat_pow(o("w + 1"), 2) == o("w^2 + w*2 + 1")

    @pytest.mark.parametrize("text", ["0", "1", "7", "w + 1", "w^w + 2",
                                      "w^2*3 + w + 5", "w^(w + 1)*2 + w^3"])
    def test_matches_repeated_products(self, text):
        a, power = o(text), ONE
        for n in range(13):
            assert nat_pow(a, n) == power
            power = nat_prod(power, a)

    def test_huge_exponent_by_squaring(self):
        # n natural products took about 2 s at n = 10^6
        start = time.perf_counter()
        assert nat_pow(OMEGA, 10 ** 9) == omega_pow(10 ** 9)
        assert time.perf_counter() - start < 0.1


class TestOmegaPow:
    def test_cases(self):
        assert omega_pow(0) == ONE
        assert omega_pow(1) == OMEGA
        assert omega_pow(OMEGA) == o("w^w")


class TestOtDecreasingSequences:
    def test_small(self):
        assert ot_decreasing_sequences(ZERO) == ZERO
        assert ot_decreasing_sequences(ONE) == ONE

    def test_finite(self):
        assert ot_decreasing_sequences(Ord.from_int(3)) == o("w^2 + 1")

    def test_infinite_limit(self):
        assert ot_decreasing_sequences(OMEGA) == o("w^w")
        assert ot_decreasing_sequences(o("w^2")) == o("w^(w^2)")

    def test_infinite_successor(self):
        assert ot_decreasing_sequences(o("w + 1")) == o("w^(w + 1) + 1")


class TestFormatParse:
    def test_zero(self):
        assert format_ordinal(ZERO) == "0"

    def test_canonical_printing(self):
        assert format_ordinal(o("w^2*3 + w + 5")) == "w^2*3 + w + 5"

    def test_parenthesized_exponent(self):
        assert parse_ordinal("w^(w)") == o("w^w")
        assert format_ordinal(omega_pow(o("w + 1"))) == "w^(w + 1)"

    @given(ordinals)
    def test_round_trip(self, a):
        assert parse_ordinal(format_ordinal(a)) == a

    @pytest.mark.parametrize("bad", [
        "", "w^", "1 + w", "w + w", "w*0", "0 + 1", "w^0", "3*2", "07",
        "w + 1 + ", "w^(w", "q",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_ordinal(bad)

    @pytest.mark.parametrize("bad, kind", [(5, "int"), (None, "NoneType"),
                                           (b"w", "bytes")])
    def test_rejects_what_is_not_text(self, bad, kind):
        # an int or None raised AttributeError, and bytes a TypeError
        with pytest.raises(ParseError, match=f"not a {kind}$"):
            parse_ordinal(bad)

    def test_nesting_cap(self):
        def nested(depth):
            return "w^(" * depth + "1" + ")" * depth

        deepest = parse_ordinal(nested(MAX_NESTING))
        assert cmp(deepest, parse_ordinal(nested(MAX_NESTING - 1))) == 1
        for depth in (MAX_NESTING + 1, 600, 5000):
            with pytest.raises(ParseError, match="nest"):
                parse_ordinal(nested(depth))

    def test_constructors_nest_no_deeper_than_the_parser(self):
        # omega_pow applied 1,500 times built an ordinal that format_ordinal
        # and pickle ran out of frames on
        text = "w^(" * MAX_NESTING + "w^w" + ")" * MAX_NESTING
        deepest = parse_ordinal(text)
        assert format_ordinal(deepest) == text
        assert parse_ordinal(format_ordinal(deepest)) == deepest
        assert pickle.loads(pickle.dumps(deepest)) == deepest
        assert cmp(deepest, nat_sum(deepest, ONE)) == -1
        assert nat_pow(nat_prod(deepest, deepest), 3) > deepest
        for build in (omega_pow, lambda a: Ord(((a, 1),))):
            with pytest.raises(DataError, match="nests deeper"):
                build(deepest)
        a = ONE
        with pytest.raises(DataError, match="nests deeper"):
            for _ in range(1500):
                a = omega_pow(a)

    def test_error_position(self):
        # the nesting cap points just past the 101st "("
        for text, column in (("w + q", 5), ("w^\u00b2", 3),
                             ("w^(" * (MAX_NESTING + 1) + "1", 304)):
            with pytest.raises(ParseError) as exc:
                parse_ordinal(text)
            assert exc.value.column == column

    @pytest.mark.parametrize("bad", ["\u00b2", "w^\u00b2", "w*\u00b2",
                                     "w^(w + \u00b9)"])
    def test_rejects_unicode_digits_int_refuses(self, bad):
        with pytest.raises(ParseError):
            parse_ordinal(bad)

    def test_number_past_the_digit_limit(self, int_digit_limit):
        with pytest.raises(ParseError, match="too many digits"):
            parse_ordinal("1" * 5000)

    @given(st.text() | st.text("w^()*+ 0123456789\u00b2\u0663"))
    def test_fuzz(self, text):
        """Any text parses to an ordinal that prints back to a parse of
        itself, or raises a MonordError."""
        try:
            a = parse_ordinal(text)
        except MonordError:
            return
        assert parse_ordinal(format_ordinal(a)) == a


def random_ordinal(rng, depth):
    """A random ordinal whose exponents nest at most ``depth`` deep."""
    return build((random_ordinal(rng, depth - 1)
                  if depth and rng.random() < 0.5 else rng.randint(0, 3),
                  rng.choice((1, 1, 2, 10, 10 ** 30)))
                 for _ in range(rng.randint(0, 4)))


def outcome(parse, text):
    """What parse makes of text: its value, or the class, message and
    column of the ParseError it raises."""
    try:
        return parse(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.column


class TestAgainstRecursion:
    """The printer and the parser are loops; they must agree with the
    recursive pair they replaced (oracles.recursive_*_ordinal) on every
    input, error messages and columns included."""

    EDGES = ["w + q", "w^\u00b2", " ", "0", " 0 ", "00", "0 + 0", "w*0",
             "w^(0)", "w^00", "w^01", "w*01", "w^( w )*3 + 2", "w^(w", "w^(",
             "w^()", "w)", "w ^2", "w* 2", "w *2", "w^ 2", "w^(w) + 1 ",
             "w^w^w", "w + 1 +", "+ w", "w  +  1", "1 + 1", "\u0663",
             "w^\u0663*\u0662", "\u0660\u0663", "w^(\u00b9)", "1" * 5000,
             "w^(" * 100 + "w^w" + ")" * 100, "w^(" * 101 + "w" + ")" * 101]
    EDGES += ["w^(" * d + "1" + ")" * d for d in (99, 100, 101, 600, 5000)]

    def test_parse(self, int_digit_limit):
        rng = random.Random(27)
        formatted = [format_ordinal(random_ordinal(rng, 4))
                     for _ in range(5000)]
        mutated = []
        for text in formatted:  # drop, double or replace one character
            i, j = rng.randrange(len(text)), rng.randrange(len(text))
            mutated += [text[:i] + text[i + 1:], text[:i] + text[i] + text[i:],
                        text[:i] + text[j] + text[i + 1:]]
        chars = "w^()*+ 0123456789\u00b2\u0663"
        texts = self.EDGES + formatted + mutated + [
            "".join(rng.choices(chars, k=rng.randint(0, 25)))
            for _ in range(30000)]
        assert len(texts) >= 50000
        for text in texts:
            assert (outcome(parse_ordinal, text)
                    == outcome(recursive_parse_ordinal, text)), text

    def test_format(self):
        rng = random.Random(28)
        deepest = "w^(" * MAX_NESTING + "w^w" + ")" * MAX_NESTING
        for a in [random_ordinal(rng, 5) for _ in range(5000)] + [
                parse_ordinal(deepest)]:
            assert format_ordinal(a) == recursive_format_ordinal(a)
