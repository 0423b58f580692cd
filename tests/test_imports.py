"""What importing monord loads: the lazy package and the CLI's start cost,
and what its modules raise.

Each check that needs a fresh interpreter runs in a subprocess, so the
modules this test process has loaded do not count and its monord is left
as it was.
"""

import ast
import builtins
import json
import os
import subprocess
import sys

import pytest

import monord

SRC = os.path.dirname(os.path.dirname(os.path.abspath(monord.__file__)))

# the names `from monord import *` gives: the exports and the engine
# submodules
EXPORTS = {
    "BoundFn", "BudgetExceeded", "DEGLEX", "DataError", "DimensionMismatch",
    "HilbertProfile", "IVPoly", "LEX", "MacaulayRep", "MonomialIdeal",
    "MonordError", "OMEGA", "ONE", "OSequenceCheck", "Ord", "ParseError",
    "TermOrder", "ZERO", "binomial", "bounds_report",
    "canonical_decomposition", "chains", "cmp", "colon", "comm_leq",
    "components_by_support", "cone", "degree", "direct_sum", "divides",
    "dominance_cmp", "ell", "errors", "extremal_sequence", "format_ordinal",
    "from_samples", "generator_word", "h_bound", "height", "higman_leq",
    "hilbert", "hilbert_fn", "hilbert_profile", "hilbert_samuel_fn",
    "hilbert_samuel_poly", "ideal", "ideal_intersect", "ideal_sum",
    "irreducible_decomposition", "is_bad_sequence", "is_osequence", "ivpoly",
    "kb_cmp", "lex_segment_ideal", "macaulay_next", "macaulay_rep",
    "max_bad_degree_growth", "min_type_cmp", "minimizing_coefficients",
    "monom", "multiset_leq", "nat_pow", "nat_prod", "nat_sum", "normalize",
    "omega_pow", "orderings", "ordinal", "ot_decreasing_sequences",
    "parse_ordinal", "phi_poly", "poly_from_a_sequence", "psi_ideal",
    "psi_poly", "realize_poly", "slice_last", "stability_index",
    "support", "t_bound", "term_cmp", "threshold", "triangle_cmp",
    "unit_ideal", "zero_ideal",
}


def fresh(script, *args, cwd=None):
    """Run ``script`` in a new interpreter that imports monord from this
    checkout; its last line of output, parsed as JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("MONORD_BUDGET", None)
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = """
import json, sys
def loaded():
    return sorted(n for n in sys.modules
                  if n == "monord" or n.startswith("monord."))
"""

# a fresh copy of monord, as a benchmark that drops monord.* from
# sys.modules imports it
FRESH_IMPORT = """
import importlib
def fresh_import():
    for name in [n for n in sys.modules
                 if n == "monord" or n.startswith("monord.")]:
        del sys.modules[name]
    return importlib.import_module("monord")
"""


class TestLazyPackage:
    def test_star_import_gives_the_eager_exports(self):
        namespace = {}
        exec("from monord import *", namespace)
        assert set(namespace) - {"__builtins__"} == EXPORTS
        assert set(monord.__all__) == EXPORTS

    def test_dir_and_version(self):
        assert EXPORTS <= set(dir(monord))
        assert monord.__version__ == "0.1.0"
        with pytest.raises(AttributeError):
            monord.no_such_name

    def test_submodule_name_imports_only_that_submodule(self):
        got = fresh(LOADED + """
import monord
before = loaded()
value = monord.chains.ell(2, 3)
print(json.dumps([before, loaded(), value]))
""")
        assert got == [["monord"], ["monord", "monord.chains", "monord.errors",
                                    "monord.ideal", "monord.monom"], 10]

    def test_first_name_binds_every_export(self):
        got = fresh(LOADED + """
import monord
monord.ONE
bound = sorted(n for n in monord.__all__ if n in vars(monord))
print(json.dumps([loaded(), bound]))
""")
        assert got == [["monord", *(f"monord.{m}" for m in (
            "chains", "errors", "hilbert", "ideal", "ivpoly", "monom",
            "orderings", "ordinal"))], sorted(EXPORTS)]

    def test_interleaved_fresh_imports_keep_one_ord_class(self):
        """Importing monord afresh while an older copy is in use (as a
        benchmark that drops monord.* from sys.modules does) must not
        mix the copies' classes in either package object."""
        got = fresh(LOADED + FRESH_IMPORT + """
def consistent(p):
    values = [p.ONE, p.nat_sum(p.OMEGA, p.ONE), p.parse_ordinal("w^2 + 1"),
              p.bounds_report(2)["height"],
              p.hilbert_profile(p.normalize(2, [(1, 1), (3, 0)])).psi]
    return (all(type(v) is p.Ord for v in values)
            and p.format_ordinal(p.nat_prod(values[1], values[2]))
            == "w^3 + w^2 + w + 1")
first = fresh_import()
first.Ord                          # binds first's names
second = fresh_import()
third = fresh_import()             # nothing bound yet
out = [consistent(second), consistent(first), consistent(third)]
out.append(first.Ord is not second.Ord)   # two copies really are in use
print(json.dumps(out))
""")
        assert got == [True, True, True, True]

    def test_psi_poly_reads_another_copys_polynomial(self):
        """psi_poly compares p's coordinates, not its class, with
        C(T+m, m): the zero ideal's polynomial built by another copy of
        the package still gives w^m, where it raised a DataError."""
        got = fresh(LOADED + FRESH_IMPORT + """
first = fresh_import()
polys = [first.ivpoly.binom_poly(0, 3), first.hilbert_samuel_poly(
    first.normalize(3, [(1, 1, 0), (0, 0, 2)]))[0]]
second = fresh_import()
out = [[str(p.psi_poly(q, 3)) for q in polys] for p in (first, second)]
out.append(type(polys[0]) is not second.IVPoly)
print(json.dumps(out))
""")
        assert got == [["w^3", "w*4 + 2"], ["w^3", "w*4 + 2"], True]

    def test_chains_read_another_copys_bound(self):
        """A BoundFn built by another copy of the package keeps its form:
        a constant one is still summed in closed form, at no cost, where
        it was read as a callable and charged for its table."""
        got = fresh(LOADED + FRESH_IMPORT + """
first = fresh_import()
bound = first.BoundFn.affine(40, 0)
second = fresh_import()
print(json.dumps([second.ell(3, bound, budget=0),
                  type(bound) is not second.BoundFn]))
""")
        assert got == [12341, True]


CLI = LOADED + """
before = "dataclasses" in sys.modules
from monord.cli import main
code = main(sys.argv[1:])
print()
print(json.dumps([code, loaded(),
                  "dataclasses" in sys.modules and not before]))
"""


class TestCliStartCost:
    """Each subcommand loads only the engine modules it uses."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("ideals")
        (d / "a.ideal").write_text("dim 2\n2 0\n1 1\n0 3\n")
        (d / "b.ideal").write_text("dim 2\n1 0\n0 2\n")
        return d

    @pytest.mark.parametrize("argv, code, absent", [
        (["ordinal-eval", "--op", "sum", "w", "1"], 0,
         {"ideal", "monom", "hilbert", "chains", "orderings", "ivpoly"}),
        (["normalize", "a.ideal"], 0, {"hilbert", "ordinal", "chains"}),
        (["contains", "a.ideal", "x1^2"], 0, {"hilbert", "ordinal", "chains"}),
        (["decompose", "a.ideal"], 0, {"hilbert", "ordinal", "chains"}),
        (["cone", "a.ideal"], 0, {"hilbert", "ordinal", "chains"}),
        (["directsum", "a.ideal", "b.ideal"], 0,
         {"hilbert", "ordinal", "chains"}),
        (["bounds", "2"], 0, {"hilbert", "chains"}),
        (["compare", "--order", "kb", "a.ideal", "b.ideal"], 12,
         {"hilbert", "chains"}),
        (["compare", "--order", "triangle", "a.ideal", "b.ideal"], 12,
         {"hilbert", "chains"}),
        (["compare", "--order", "mintype", "a.ideal", "b.ideal"], 12,
         {"chains"}),
        (["hilbert", "a.ideal"], 0, {"chains", "orderings"}),
        (["hilbert", "--budget", "1000", "a.ideal"], 0,
         {"chains", "orderings"}),
        (["lexify", "a.ideal", "--degree", "4"], 0, {"chains", "orderings"}),
        (["chainbound", "--m", "2", "--affine", "2,1"], 0,
         {"hilbert", "orderings", "ordinal", "ivpoly"}),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_loads_only_what_it_uses(self, files, argv, code, absent):
        got_code, loaded, dataclasses = fresh(CLI, *argv, cwd=files)
        assert got_code == code
        assert not {f"monord.{m}" for m in absent} & set(loaded)
        assert not dataclasses


def test_subcommands_leave_the_writing_to_main():
    """The subcommands return (payload, text), compare its exit code as
    well, and main alone writes it, through _emit."""
    with open(os.path.join(SRC, "monord", "cli.py")) as fh:
        tree = ast.parse(fh.read())
    commands, found = [], []
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        command = fn.name.startswith("cmd_")
        commands += [fn.name] * command
        for node in ast.walk(fn):
            call = (node.func.id if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name) else None)
            stdout = (isinstance(node, ast.Attribute) and node.attr == "stdout"
                      and getattr(node.value, "id", None) == "sys")
            if call == "_emit" and fn.name != "main":
                found.append(f"{fn.name}:{node.lineno} calls _emit")
            if command and (call == "print" or stdout):
                found.append(f"{fn.name}:{node.lineno} writes")
    assert len(commands) == 11 and not found


def parsed_modules():
    """(file name, syntax tree) of each module of monord."""
    package = os.path.join(SRC, "monord")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                yield name, ast.parse(fh.read(), name)


def test_value_classes_take_their_semantics_from_errors_value():
    """MonomialIdeal, TermOrder, IVPoly and Ord subclass errors.Value, and
    no class but Value defines equality, hashing or write guards.  Ord
    alone keeps its own repr (Ord[...], in the textual syntax) and
    pickles (through Ord(terms), which checks them)."""
    semantics = {"__eq__", "__hash__", "__setattr__", "__delattr__",
                 "__repr__", "__reduce__"}
    own, bases = {}, {}
    for name, tree in parsed_modules():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            where = f"{name[:-3]}.{cls.name}"
            bases[where] = [ast.unparse(b) for b in cls.bases]
            defined = {node.name for node in cls.body
                       if isinstance(node, ast.FunctionDef)}
            defined |= {t.id for node in cls.body
                        if isinstance(node, ast.Assign)
                        for t in node.targets if isinstance(t, ast.Name)}
            if defined & semantics:
                own[where] = defined & semantics
    assert own == {"errors.Value": semantics,
                   "ordinal.Ord": {"__repr__", "__reduce__"}}
    for where in ("ideal.MonomialIdeal", "monom.TermOrder", "ivpoly.IVPoly",
                  "ordinal.Ord"):
        assert bases[where] == ["Value"], where
    assert not hasattr(monord.errors, "immutable")
    assert all(issubclass(cls, monord.errors.Value) for cls in (
        monord.MonomialIdeal, monord.TermOrder, monord.IVPoly, monord.Ord))


def test_modules_raise_no_builtin_exceptions():
    """Every public call raises a MonordError on bad input; the one builtin
    exception a module may raise is AttributeError, for writes to an
    immutable object and for missing module attributes."""
    found = []
    for name, tree in parsed_modules():
        for node in ast.walk(tree):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if (isinstance(exc, ast.Name) and exc.id != "AttributeError"
                    and isinstance(getattr(builtins, exc.id, None), type)
                    and issubclass(getattr(builtins, exc.id), BaseException)):
                found.append(f"{name}:{node.lineno} raises {exc.id}")
    assert not found


def test_modules_sniff_no_attributes():
    """monord knows its own values by their class, through errors.is_a,
    not by the attributes they carry: no module calls hasattr or getattr
    with a default."""
    found = []
    for name, tree in parsed_modules():
        # the function each node sits in, the innermost one for nested defs
        owner = {id(node): fn.name for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and (node.func.id == "hasattr" or node.func.id == "getattr"
                         and len(node.args) == 3)):
                where = f"{name[:-3]}.{owner.get(id(node), '<module>')}"
                found.append(f"{where}: {ast.unparse(node)}")
    assert found == []


def test_modules_do_not_recurse():
    """No function in monord reaches itself through the functions of its
    module that it names, so no depth of input costs stack frames: the
    engines and the ordinal printer and parser all run on explicit
    stacks."""
    cyclic = set()
    for name, tree in parsed_modules():
        defs = [node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)]
        # a function names another by its name or as an attribute, other
        # than through super(); functions of one name are one node
        calls = {fn.name: set() for fn in defs}
        for fn in defs:
            for node in ast.walk(fn):
                callee = getattr(node, "id", getattr(node, "attr", None))
                base = getattr(getattr(node, "value", None), "func", None)
                if callee in calls and getattr(base, "id", None) != "super":
                    calls[fn.name].add(callee)
        for start, todo in calls.items():
            todo, seen = list(todo), set()
            while todo:
                callee = todo.pop()
                if callee not in seen:
                    seen.add(callee)
                    todo += calls[callee]
            if start in seen:
                cyclic.add(f"{name[:-3]}.{start}")
    assert not cyclic
