"""A smoke check of monord with the standard library alone.

Run it before any package is installed and under ``-W error``, with the
source tree on the path:

    PYTHONPATH=src python -W error tests/stdlib_smoke.py

An import from outside the standard library in src/ then fails it, and so
does any warning.  pytest does not collect it (its name does not start
with ``test_``); each check below is a plain assert.
"""

import copy
import os
import pickle
import subprocess
import sys
import tempfile
from math import comb

import monord as m
from monord import ParseError
from monord.hilbert import _numerator
from monord.orderings import _triangle


def cli(*argv):
    """``python -W error -m monord.cli argv``, which must exit 0."""
    subprocess.run([sys.executable, "-W", "error", "-m", "monord.cli", *argv],
                   check=True, stdout=subprocess.DEVNULL)


m.Ord  # the first name binds every export
cli("ordinal-eval", "--op", "prod", "w + 1", "w")
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "smoke.ideal")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("dim 2\n2 0\n1 1\n0 3\n")
    cli("hilbert", "--json", path)

# derived data kept on an ideal and a polynomial, then one value of each
# class built on errors.Value pickled, copied and compared
e, p = m.normalize(2, [(1, 0)]), m.IVPoly([1, 2])
m.hilbert_samuel_poly(e)
m.minimizing_coefficients(p, 2)
values = [e, m.DEGLEX, p, m.OMEGA]
assert len(set(values)) == 4
for v in values:
    for f in (copy.copy, copy.deepcopy,
              lambda v: pickle.loads(pickle.dumps(v))):
        assert f(v) == v and hash(f(v)) == hash(v) and repr(f(v)) == repr(v)

# one numerator packed into an int at the hilbert.PACKED_BITS cap, and one
# summed as a dict one bit past it
assert _numerator(m.normalize(2, [(16382, 0), (0, 1)])) == (
    (0, 1), (1, -1), (16382, -1), (16383, 1))
assert _numerator(m.normalize(3, [(10920, 0, 0), (0, 1, 0), (0, 0, 1)])) == (
    (0, 1), (1, -2), (2, 1), (10920, -1), (10921, 2), (10922, -1))

# two ideals that share all but one generator, which decides the triangle
# order at its last coordinate
a = m.normalize(3, [(3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 0, 1)])
b = m.normalize(3, [(3, 0, 0), (1, 2, 0), (0, 0, 1)])
assert _triangle(a, b) == (-1, 0) and _triangle(b, a) == (1, 0)
assert _triangle(a, a) == (0, None)

# three generators: one candidate component is dropped by another made at
# its field, one by a kept component
assert m.irreducible_decomposition(
    m.normalize(3, [(0, 1, 2), (2, 0, 1), (1, 2, 1)])) == [
    (0, 0, 1), (1, 0, 2), (2, 1, 0), (2, 2, 2)]

# a bad-sequence search whose cap cuts inside a subtree it has finished
# before, one run to exhaustion, and the exhaustive (2, 3) search, about
# 3.6 * 10^24 nodes read off the table of finished subtrees
r = m.max_bad_degree_growth(2, 2, 1000)
assert (len(r.sequence), r.exhaustive, r.nodes) == (11, False, 1000)
r = m.max_bad_degree_growth(3, 1, 10 ** 6)
assert r.exhaustive and r.nodes == 2648
r = m.max_bad_degree_growth(2, 3, 10 ** 30)
assert r.exhaustive and (r.nodes, len(r.sequence)) == (
    3585336777568085849111984, 42)

# the deepest ordinal text the parser accepts, the column of a malformed
# one, and one natural product
t = "w^(" * 100 + "w^w" + ")" * 100
assert m.format_ordinal(m.parse_ordinal(t)) == t
assert m.parse_ordinal(m.format_ordinal(m.parse_ordinal(t))) == (
    m.parse_ordinal(t))
w1 = m.parse_ordinal("w + 1")
assert m.nat_prod(w1, w1).form == m.parse_ordinal("w^2 + w*2 + 1").form == (
    ((((), 2),), 1), ((((), 1),), 2), ((), 1))
try:
    m.parse_ordinal("w + q")
except ParseError as exc:
    assert exc.column == 5, exc.column
else:
    raise SystemExit("w + q parsed")

# bounds_report(2), written as forms, against the same constants built by
# ordinal arithmetic; the exponent of bounds_report(1000)'s type_upper,
# (w + 1)^1000, against the binomial coefficients C(1000, k)
one, w, s = m.ONE, m.omega_pow, m.nat_sum
kb = s(w(w(1)), one)
assert list(m.bounds_report(2).items()) == [
    ("height", s(w(2), one)), ("kb_order_type", kb), ("type_lower", kb),
    ("type_upper", w(m.nat_pow(s(m.OMEGA, one), 2))),
    ("triangle_order_type_m2", s(w(s(m.OMEGA, one)), one))]
((g, c),) = m.bounds_report(1000)["type_upper"].terms
assert c == 1 and [(k.to_int(), n) for k, n in g.terms] == [
    (k, comb(1000, k)) for k in range(1000, -1, -1)]
