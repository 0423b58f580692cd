"""Command-line interface.

Exit codes: 0 success, 64 usage error, 65 data error, 69 budget exhausted,
out of memory or recursion too deep.  ``compare`` exits 10/11/12 for
less/equal/greater so shell pipelines can branch without parsing output.

Subcommand ``a-b`` runs ``cmd_a_b``, which imports the engine modules it
uses and no others: ``ordinal-eval`` loads ``ordinal`` alone, and
``normalize`` loads ``monom`` and ``ideal``.  It returns a (payload, text)
pair, which ``main`` writes through ``_emit``, the one writer: the payload
as JSON under ``--json``, else the text; ``compare`` adds its exit code.

``hilbert`` returns H and h as iterators, which ``_emit`` writes a chunk
at a time, so it needs memory for the ideal and one chunk however long
its window is.  One budget type (``errors.Budget``) serves the two
commands that take ``--budget``: ``chainbound`` spends it on the chain
bounds' units, ``hilbert`` on the bytes of the two lists, charged before
the first byte is written.
"""

import argparse
import json
import sys
from collections.abc import Iterator
from functools import reduce
from itertools import islice

from .errors import Budget, BudgetExceeded, DataError, MonordError, ParseError

EX_OK = 0
EX_USAGE = 64
EX_DATA = 65
EX_RESOURCE = 69

WINDOW_BUDGET = 2 ** 27  # bytes of H and h that ``hilbert`` prints by default
CHUNK = 4096  # values of a streamed list per write


def _nat(digits, message, line):
    """int(digits) for a string of decimal digits; ParseError(message) for
    any other string or for more digits than int() converts."""
    if digits.isdecimal():
        try:
            return int(digits)
        except ValueError:  # past Python's int-string digit limit
            message += ": too many digits"
    raise ParseError(message, line=line)


def parse_point(text, dim, line=None):
    """A generator spec: either `2 0 1` or `x1^2*x3`."""
    text = text.strip()
    if not text:
        raise ParseError("empty generator", line=line)
    if text[0] == "x":
        v = [0] * dim
        for col, factor in enumerate(text.split("*")):
            factor = factor.strip()
            base, caret, exp = factor.partition("^")
            i = _nat(base[1:] if base[:1] == "x" else "",
                     f"bad factor {factor!r}", line)
            if not 1 <= i <= dim:
                raise ParseError(f"variable x{i} outside dim {dim}",
                                 line=line)
            v[i - 1] += (_nat(exp, f"bad exponent in {factor!r}", line)
                         if caret else 1)
        return tuple(v)
    v = tuple(_nat(x, f"bad tuple {text!r}", line) for x in text.split())
    if len(v) != dim:
        raise ParseError(f"expected {dim} naturals, got {text!r}", line=line)
    return v


def parse_ideal_text(text):
    """Parse the ideal file format (or its JSON mirror)."""
    from .ideal import check_dim, normalize, unit_ideal, zero_ideal
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
            dim = data["dim"]
            gens = [tuple(g) for g in data["gens"]]
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise ParseError(f"bad JSON ideal: {exc}")
        return normalize(dim, gens)
    dim = None
    gens = []
    special = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if dim is None:
            parts = line.split()
            dim = _nat(parts[1] if len(parts) == 2 and parts[0] == "dim"
                       else "", "expected 'dim m' header", lineno)
            check_dim(dim)  # before any point of dim coordinates is built
            continue
        if line in ("zero", "unit"):
            if special not in (None, line):
                raise ParseError("'zero' cannot be mixed with 'unit'", lineno)
            special = line
            continue
        gens.append(parse_point(line, dim, line=lineno))
    if dim is None:
        raise ParseError("missing 'dim m' header", line=1)
    if special == "zero":
        if gens:
            raise ParseError("'zero' cannot be mixed with generators")
        return zero_ideal(dim)
    if special == "unit":
        return unit_ideal(dim)
    return normalize(dim, gens)


def load_ideal(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_ideal_text(fh.read())
    except (OSError, UnicodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}")


def format_ideal(e):
    lines = [f"dim {e.dim}"]
    if e.is_zero():
        lines.append("zero")
    elif e.is_unit():
        lines.append("unit")
    else:
        lines.extend(" ".join(str(x) for x in g) for g in e.gens)
    return "\n".join(lines) + "\n"


def _ideal_output(e):
    """The (payload, text) pair of a subcommand that prints an ideal."""
    return {"dim": e.dim, "gens": [list(g) for g in e.gens]}, format_ideal(e)


def parse_term_order(spec):
    from .monom import DEGLEX, LEX, TermOrder
    if spec in (None, "deglex"):  # None: no --term-order given
        return DEGLEX
    if spec == "lex":
        return LEX
    if spec.startswith("matrix:"):
        path = spec[len("matrix:"):]
        try:
            with open(path, encoding="utf-8") as fh:
                rows = [tuple(int(x) for x in line.split())
                        for line in fh if line.strip()]
        except (OSError, UnicodeError) as exc:
            raise DataError(f"cannot read {path}: {exc}")
        except ValueError:
            raise DataError(f"non-integer entry in matrix file {path}")
        return TermOrder("matrix", tuple(rows))
    raise DataError(f"unknown term order {spec!r}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="monord",
        description="Exact invariants and well-orderings of monomial ideals")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *files):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=globals()["cmd_" + name.replace("-", "_")])
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        for file in files:
            p.add_argument(file)
        return p

    add("normalize", "canonicalize an ideal file", "file")

    p = add("contains", "membership test for one monomial", "file")
    p.add_argument("point", help="tuple '2 0 1' or monomial 'x1^2*x3'")

    p = add("compare", "compare two ideals under a well-ordering",
            "file_a", "file_b")
    p.add_argument("--order", choices=("kb", "triangle", "mintype"),
                   required=True)
    p.add_argument("--term-order",
                   help="deglex (default) | lex | matrix:FILE (kb only)")

    p = add("hilbert", "Hilbert data, psi, height, n0", "file")
    p.add_argument("--budget", type=int, default=None,
                   help="bytes the H and h lists may take "
                        f"(default {WINDOW_BUDGET})")

    add("decompose", "irreducible decomposition", "file")

    p = add("lexify", "lex segment with the same Hilbert function", "file")
    p.add_argument("--degree", type=int, required=True)

    add("cone", "extend by one variable", "file")
    add("directsum", "direct sum of two ideals", "file_a", "file_b")

    p = add("chainbound", "chain length bound ell / t_m")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--affine", required=True, metavar="p,q",
                   help="bound f(i) = p + i*q")
    p.add_argument("--tm", action="store_true",
                   help="compute t_m(f) instead of ell(m, f)")
    p.add_argument("--budget", type=int, default=None)

    p = add("bounds", "ordinal bound constants for dimension m")
    p.add_argument("m", type=int)

    p = add("ordinal-eval", "parse, combine and reprint ordinals")
    p.add_argument("exprs", nargs="+")
    p.add_argument("--op", choices=("sum", "prod"), default=None)

    return parser


def _emit(args, payload, text):
    """Write ``payload`` under --json, as ``json.dumps(payload, indent=2,
    sort_keys=True)`` lays it out, else ``text`` (a string or a list of
    parts) ending in one newline.  An Iterator value or part is a list of
    ints, written CHUNK items at a time, so it is never held whole."""
    if args.json:
        parts, sep = ["{\n"], ",\n    "
        for i, key in enumerate(sorted(payload)):
            lead, value = ",\n" if i else "", payload[key]
            if isinstance(value, Iterator):
                parts += [f"{lead}  {json.dumps(key)}: [\n    ", value,
                          "\n  ]"]
            else:  # the lines of one key, as json.dumps nests them
                parts.append(lead + json.dumps({key: value}, indent=2,
                                               sort_keys=True)[2:-2])
        parts.append("\n}\n")
    else:
        parts, sep = [text] if isinstance(text, str) else text, ", "
        parts = [*parts, "" if parts[-1].endswith("\n") else "\n"]
    write = sys.stdout.write
    for part in parts:
        if isinstance(part, Iterator):
            write(sep.join(map(str, islice(part, CHUNK))))
            while chunk := sep.join(map(str, islice(part, CHUNK))):
                write(sep + chunk)
        else:
            write(part)


def cmd_normalize(args):
    return _ideal_output(load_ideal(args.file))


def cmd_contains(args):
    e = load_ideal(args.file)
    ans = e.contains(parse_point(args.point, e.dim))
    return {"contains": ans}, "true" if ans else "false"


def cmd_compare(args):
    from . import orderings
    from .monom import check_same_dim
    if args.term_order is not None and args.order != "kb":
        raise DataError(f"--term-order applies to kb, not {args.order}")
    a, b = load_ideal(args.file_a), load_ideal(args.file_b)
    check_same_dim(a.dim, b.dim)
    trace = {"order": args.order}
    if args.order == "kb":
        c, trace["deciding_generator"] = orderings._kb(
            a, b, parse_term_order(args.term_order))
    elif args.order == "triangle":
        c, trace["deciding_slice"] = orderings._triangle(a, b)
    else:
        c, trace["deciding_key"] = orderings._min_type(a, b)
    trace["result"] = {-1: "less", 0: "equal", 1: "greater"}[c]
    return trace, json.dumps(trace, sort_keys=True), {-1: 10, 0: 11, 1: 12}[c]


def cmd_hilbert(args):
    from . import hilbert
    from .ordinal import format_ordinal
    budget = Budget(args.budget, WINDOW_BUDGET)
    e = load_ideal(args.file)
    m, (p, t) = e.dim, hilbert.hilbert_samuel_poly(e)
    size = t + 2 * m + 1
    # H >= 0 and h is nondecreasing, so no value of either list is above
    # h(size - 1), which is p(size - 1) as size - 1 >= t; each takes its
    # digits and, in JSON, 6 bytes of indent, comma and newline.  Charged
    # before psi and n0 are worked out, so a refused window costs p alone
    budget.charge(2 * size * (len(str(p(size - 1))) + 6))
    prof = hilbert.hilbert_profile(e)
    H = hilbert._hilbert_prefix(prof.numerator, m, size)
    h = hilbert._hilbert_prefix(prof.numerator, m + 1, size)
    c = list(prof.c) if prof.c is not None else None
    psi = format_ordinal(prof.psi)
    payload = {"H": H, "h": h, "p": list(p.coeffs), "threshold": t, "c": c,
               "psi": psi, "phi": prof.phi, "n0": prof.n0, "height": psi}
    return payload, [f"p = {p}\nthreshold = {t}\nH = [", H, "]\nh = [", h,
                     f"]\nc = {c}\npsi = {psi}\nphi = {prof.phi}\n"
                     f"n0 = {prof.n0}\nheight = {psi}\n"]


def cmd_decompose(args):
    from .ideal import components_by_support, irreducible_decomposition
    e = load_ideal(args.file)
    comps = irreducible_decomposition(e)
    groups = {",".join(str(i + 1) for i in s): [list(v) for v in vs]
              for s, vs in components_by_support(e).items()}
    return ({"components": [list(nu) for nu in comps], "by_support": groups},
            "\n".join(" ".join(str(x) for x in nu) for nu in comps) + "\n")


def cmd_lexify(args):
    from . import hilbert
    return _ideal_output(hilbert.lex_segment_ideal(load_ideal(args.file),
                                                   args.degree))


def cmd_cone(args):
    from .ideal import cone
    return _ideal_output(cone(load_ideal(args.file)))


def cmd_directsum(args):
    from .ideal import direct_sum
    return _ideal_output(direct_sum(load_ideal(args.file_a),
                                    load_ideal(args.file_b)))


def cmd_chainbound(args):
    from . import chains
    message = f"--affine expects naturals 'p,q', got {args.affine!r}"
    p, q = (_nat(x, message, None) for x in args.affine.partition(",")[::2])
    value = str((chains.t_bound if args.tm else chains.ell)(
        args.m, chains.BoundFn.affine(p, q), budget=args.budget))
    return {"value": value}, value


def cmd_bounds(args):
    from . import orderings
    from .ordinal import format_ordinal
    report = orderings.bounds_report(args.m)
    payload = {k: format_ordinal(v) for k, v in report.items()}
    return payload, "".join(f"{k} = {v}\n" for k, v in payload.items())


def cmd_ordinal_eval(args):
    from .ordinal import format_ordinal, nat_prod, nat_sum, parse_ordinal
    vals = [parse_ordinal(x) for x in args.exprs]
    if args.op is None:
        out = [format_ordinal(v) for v in vals]
        return {"ordinals": out}, "\n".join(out) + "\n"
    acc = reduce(nat_sum if args.op == "sum" else nat_prod, vals)
    return {"ordinal": format_ordinal(acc)}, format_ordinal(acc)


def main(argv=None):
    sys.set_int_max_str_digits(0)  # the budget bounds value sizes
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EX_USAGE if exc.code not in (0, None) else EX_OK
    try:
        payload, text, *code = args.run(args)  # compare: its code, 10-12
        _emit(args, payload, text)
        return code[0] if code else EX_OK
    except BudgetExceeded as exc:
        message, code = str(exc), EX_RESOURCE
    except MemoryError:
        message, code = "out of memory", EX_RESOURCE
    except RecursionError:
        message, code = "recursion too deep for this input", EX_RESOURCE
    except MonordError as exc:
        message, code = str(exc), EX_DATA
    # printed once the handler has dropped the failed command's frames
    print(f"error: {message}", file=sys.stderr)
    return code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
