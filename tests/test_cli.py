"""Command-line interface: parsing, output formats, exit codes."""

import argparse
import inspect
import json
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, strategies as st

from monord import (MonomialIdeal, MonordError, ParseError, cli, hilbert,
                    ideal, normalize, unit_ideal, zero_ideal)
from monord.cli import main, parse_ideal_text, parse_point
from monord.ordinal import MAX_NESTING
from oracles import (affine_ell, listing_hilbert_output, printing_emit,
                     random_ideal)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIdealFiles:
    def test_tuple_and_monomial_lines(self):
        e = parse_ideal_text("dim 3\n2 0 1\nx1^2*x3\n")
        assert e == normalize(3, [(2, 0, 1)])

    def test_comments_and_blanks(self):
        e = parse_ideal_text("# staircase\ndim 2\n\n2 0  # corner\n0 2\n")
        assert e == normalize(2, [(2, 0), (0, 2)])

    def test_special_tokens(self):
        assert parse_ideal_text("dim 2\nzero\n").is_zero()
        assert parse_ideal_text("dim 2\nunit\n").is_unit()
        with pytest.raises(ParseError, match="'zero' cannot be mixed"):
            parse_ideal_text("dim 2\nzero\n1 0\n")
        for text in ("dim 2\nzero\nunit\n", "dim 2\nunit\n1 0\nzero\n"):
            with pytest.raises(ParseError, match="mixed with 'unit'") as exc:
                parse_ideal_text(text)
            assert exc.value.line == text.count("\n")
        assert parse_ideal_text("dim 2\nzero\nzero\n").is_zero()

    def test_json_mirror(self):
        e = parse_ideal_text('{"dim": 2, "gens": [[1, 0], [2, 0]]}')
        assert e.gens == ((1, 0),)

    def test_parse_point_monomial(self):
        assert parse_point("x2^3*x1", 3) == (1, 3, 0)

    def test_error_carries_line(self):
        with pytest.raises(Exception) as exc:
            parse_ideal_text("dim 2\n1 0\n1 -2\n")
        assert exc.value.line == 3

    def test_dim_checked_before_the_lines_after_it(self):
        # a point line builds dim coordinates: the header must fail first
        dim = ideal.MAX_DIM + 1
        with pytest.raises(MonordError, match=f"dimension {dim} "):
            parse_ideal_text(f"dim {dim}\nnot a point\n")

    def test_point_past_the_digit_limit(self, int_digit_limit):
        for text in ("x1^" + "1" * 5000, "x" + "1" * 5000):
            with pytest.raises(ParseError, match="too many digits"):
                parse_point(text, 1)

    @pytest.mark.parametrize("text", ["1_0 2", "+1 2", "-0 1", "1 -2"])
    def test_tuple_entries_are_plain_naturals(self, capsys, tmp_path, text):
        with pytest.raises(ParseError, match="bad tuple"):
            parse_point(text, 2)
        path = write(tmp_path, "a.ideal", f"dim 2\n{text}\n")
        code, out, err = run(capsys, ["normalize", path])
        assert (code, out) == (65, "")
        assert "bad tuple" in err and "line 2" in err

    def test_dim_past_the_digit_limit(self, int_digit_limit):
        with pytest.raises(ParseError, match="too many digits"):
            parse_ideal_text("dim " + "1" * 5000)


class TestNormalize:
    def test_prunes_and_round_trips(self, capsys, tmp_path):
        path = write(tmp_path, "a.ideal", "dim 2\n1 0\n2 0\n")
        code, out, _ = run(capsys, ["normalize", path])
        assert code == 0
        assert parse_ideal_text(out) == normalize(2, [(1, 0)])

    def test_json(self, capsys, tmp_path):
        path = write(tmp_path, "a.ideal", "dim 2\n1 0\n2 0\n")
        code, out, _ = run(capsys, ["normalize", path, "--json"])
        assert code == 0
        assert json.loads(out) == {"dim": 2, "gens": [[1, 0]]}


class TestContains:
    def test_true_false(self, capsys, tmp_path):
        path = write(tmp_path, "a.ideal", "dim 2\n2 0\n")
        code, out, _ = run(capsys, ["contains", path, "3 1"])
        assert (code, out.strip()) == (0, "true")
        code, out, _ = run(capsys, ["contains", path, "x2^5"])
        assert (code, out.strip()) == (0, "false")


class TestCompare:
    def test_exit_codes(self, capsys, tmp_path):
        a = write(tmp_path, "a.ideal", "dim 2\n1 0\n")
        b = write(tmp_path, "b.ideal", "dim 2\n0 1\n")
        code, out, _ = run(capsys, ["compare", "--order", "kb", a, b])
        assert code == 12
        assert json.loads(out)["result"] == "greater"
        code, out, _ = run(capsys, ["compare", "--order", "kb", b, a])
        assert code == 10
        code, out, _ = run(capsys, ["compare", "--order", "kb", a, a])
        assert code == 11
        assert json.loads(out)["result"] == "equal"

    @pytest.mark.parametrize("spec, text, code, message", [
        # x2 before x1: (x1) is the lesser under this matrix, the greater
        # under deglex and lex
        ("matrix:{}", "1 1\n0 1\n", 10, ""),
        ("matrix:{}", "1 1\n0 x\n", 65, "non-integer entry"),
        ("matrix:{}", "1 1\n0\n", 65, "rectangular"),
        ("matrix:{}", None, 65, "cannot read"),
        ("revlex", None, 65, "unknown term order 'revlex'")])
    def test_term_order_specs(self, capsys, tmp_path, spec, text, code,
                              message):
        a = write(tmp_path, "a.ideal", "dim 2\n1 0\n")
        b = write(tmp_path, "b.ideal", "dim 2\n0 1\n")
        path = tmp_path / "order.matrix"
        if text is not None:
            path.write_text(text)
        got, out, err = run(capsys, ["compare", "--order", "kb",
                                     "--term-order", spec.format(path), a, b])
        assert got == code and message in err
        assert (out == "") == (code == 65)

    @pytest.mark.parametrize("order", ["kb", "triangle", "mintype"])
    def test_json(self, capsys, tmp_path, order):
        # the trace's dict in _emit's layout, with the same exit code
        a = write(tmp_path, "a.ideal", "dim 2\n1 0\n0 2\n")
        b = write(tmp_path, "b.ideal", "dim 2\n2 0\n0 1\n")
        for x, y in ((a, b), (b, a), (a, a)):
            code, line, _ = run(capsys, ["compare", "--order", order, x, y])
            got = run(capsys, ["compare", "--order", order, x, y, "--json"])
            trace = json.loads(line)
            assert line == json.dumps(trace, sort_keys=True) + "\n"
            assert got == (code, json.dumps(trace, indent=2, sort_keys=True)
                           + "\n", "")

    def test_triangle_trace(self, capsys, tmp_path):
        a = write(tmp_path, "a.ideal", "dim 2\n1 1\n")
        b = write(tmp_path, "b.ideal", "dim 2\n2 0\n")
        code, out, _ = run(capsys, ["compare", "--order", "triangle", a, b])
        assert code == 12
        assert json.loads(out)["deciding_slice"] == 0

    def test_mintype(self, capsys, tmp_path):
        a = write(tmp_path, "a.ideal", "dim 2\n1 0\n0 2\n")
        b = write(tmp_path, "b.ideal", "dim 2\n2 0\n0 1\n")
        code, out, _ = run(capsys, ["compare", "--order", "mintype", a, b])
        assert code in (10, 12)
        assert json.loads(out)["deciding_key"] == "triangle"

    def test_mintype_computes_each_numerator_once(self, capsys, tmp_path,
                                                  monkeypatch):
        calls = []
        numerator = hilbert._numerator

        def counted(e):
            calls.append(e)
            return numerator(e)

        monkeypatch.setattr(hilbert, "_numerator", counted)
        a = write(tmp_path, "a.ideal", "dim 2\n1 0\n0 2\n")
        b = write(tmp_path, "b.ideal", "dim 2\n2 0\n0 3\n")
        code, out, _ = run(capsys, ["compare", "--order", "mintype", a, b])
        assert code == 10
        assert json.loads(out) == {"order": "mintype", "result": "less",
                                   "deciding_key": "polynomial"}
        assert len(calls) == 2

    def test_kb_trace(self, capsys, tmp_path):
        a = write(tmp_path, "a.ideal", "dim 2\n0 2\n3 0\n")
        b = write(tmp_path, "b.ideal", "dim 2\n0 2\n4 0\n")
        code, out, _ = run(capsys, ["compare", "--order", "kb", a, b])
        assert (code, json.loads(out)["deciding_generator"]) == (10, 1)
        c = write(tmp_path, "c.ideal", "dim 2\n0 2\n")
        code, out, _ = run(capsys, ["compare", "--order", "kb", a, c])
        assert (code, json.loads(out)["deciding_generator"]) == (10, None)

    def test_kb_rejects_lex(self, capsys, tmp_path):
        a = write(tmp_path, "a.ideal", "dim 2\n1 0\n")
        code, _, err = run(capsys, ["compare", "--order", "kb",
                                    "--term-order", "lex", a, a])
        assert code == 65
        assert "error" in err

    def test_term_order_is_for_kb_only(self, capsys, tmp_path):
        # the flag was ignored under triangle and mintype
        a = write(tmp_path, "a.ideal", "dim 2\n1 0\n")
        for order in ("triangle", "mintype"):
            for spec in ("deglex", "lex"):
                code, out, err = run(capsys, ["compare", "--order", order,
                                              "--term-order", spec, a, a])
                assert (code, out) == (65, "") and "kb" in err
        code, _, _ = run(capsys, ["compare", "--order", "kb",
                                  "--term-order", "deglex", a, a])
        assert code == 11


class TestHilbert:
    def test_zero_ideal_json(self, capsys, tmp_path):
        path = write(tmp_path, "z.ideal", "dim 2\nzero\n")
        code, out, _ = run(capsys, ["hilbert", path, "--json"])
        assert code == 0
        data = json.loads(out)
        assert data["p"] == [0, 0, 1]
        assert data["psi"] == "w^2"
        assert data["height"] == "w^2"
        assert data["threshold"] == 0
        assert data["H"][:4] == [1, 2, 3, 4]
        assert data["c"] is None and data["n0"] is None

    def test_staircase(self, capsys, tmp_path):
        path = write(tmp_path, "s.ideal", "dim 2\n2 0\n1 1\n0 2\n")
        code, out, _ = run(capsys, ["hilbert", path, "--json"])
        assert code == 0
        data = json.loads(out)
        assert data["p"] == [3]
        assert data["psi"] == "3"
        assert data["phi"] == 3
        assert data["h"][-1] == 3

    def test_h_is_hilbert_samuel_fn(self, capsys, tmp_path):
        rng = random.Random(12)
        ideals = [zero_ideal(2), unit_ideal(3)] + [
            random_ideal(rng, rng.randint(1, 4), 5, 4, allow_zero=True,
                         allow_unit=True) for _ in range(25)]
        for i, e in enumerate(ideals):
            path = write(tmp_path, f"{i}.ideal", cli.format_ideal(e))
            code, out, _ = run(capsys, ["hilbert", path, "--json"])
            h = json.loads(out)["h"]
            assert code == 0
            assert h == [hilbert.hilbert_samuel_fn(e, s)
                         for s in range(len(h))]


    @pytest.mark.parametrize("chunk", [cli.CHUNK, 1, 3])
    def test_streams_what_the_lists_printed(self, capsys, tmp_path,
                                            monkeypatch, chunk):
        # H and h were built as lists and printed whole; they are written
        # a chunk at a time now, and every byte must stay as it was
        default = cli.CHUNK
        monkeypatch.setattr(cli, "CHUNK", chunk)
        rng = random.Random(12)
        ideals = [normalize(2, [(2, 0), (1, 1), (0, 2)]), zero_ideal(2),
                  unit_ideal(3)] + [
            random_ideal(rng, rng.randint(1, 4), 5, 4, allow_zero=True,
                         allow_unit=True) for _ in range(25)]
        rng = random.Random(1717)
        ideals += [zero_ideal(m) for m in range(1, 5)]
        ideals += [unit_ideal(m) for m in range(1, 5)]
        ideals += [random_ideal(rng, rng.randint(1, 4), 7, 6, allow_zero=True,
                                allow_unit=True) for _ in range(40)]
        if chunk == default:  # windows of CHUNK - 1 to 2 CHUNK + 1 values
            ideals += [normalize(2, [(k, 0), (0, 1)]) for k in (
                chunk - 7, chunk - 6, chunk - 5, 2 * chunk - 6,
                2 * chunk - 5)]
        for i, e in enumerate(ideals):
            path = write(tmp_path, f"{i}.ideal", cli.format_ideal(e))
            for as_json in (True, False):
                code, out, err = run(capsys, ["hilbert", path]
                                     + ["--json"] * as_json)
                assert (code, err) == (0, "")
                assert out == listing_hilbert_output(e, as_json), (e, as_json)

    def test_budget_exceeded(self, capsys, tmp_path):
        # (x1^2, x2) has threshold 3, so H and h have 8 values each, none
        # above h(7) = 2: 2 * 8 * (1 + 6) bytes, 6 for indent and separator
        path = write(tmp_path, "a.ideal", "dim 2\nx1^2\nx2\n")
        code, out, err = run(capsys, ["hilbert", path, "--budget", "111"])
        assert (code, out) == (69, "")
        assert err == ("error: budget of 111 units exhausted: 0 spent, 112 "
                       "more asked (raise it with budget= or --budget)\n")
        code, out, _ = run(capsys, ["hilbert", path, "--budget", "112"])
        assert (code, out) == (0, listing_hilbert_output(
            normalize(2, [(2, 0), (0, 1)]), False))

    def test_refused_window_costs_p_alone(self, capsys, tmp_path):
        # the charge came after psi and n0: this refusal took 4.5 s
        path = write(tmp_path, "a.ideal", "dim 24\nx1^3*x24\nx2^2\n")
        start = time.perf_counter()
        code, out, err = run(capsys, ["hilbert", path, "--budget", "1000"])
        assert (code, out) == (69, "") and "budget of 1000" in err
        assert time.perf_counter() - start < 1

    def test_negative_budget(self, capsys, tmp_path):
        path = write(tmp_path, "a.ideal", "dim 2\nx1^2\nx2\n")
        code, out, err = run(capsys, ["hilbert", path, "--budget", "-1"])
        assert (code, out) == (65, "") and "budget -1" in err


class TestDecompose:
    def test_text(self, capsys, tmp_path):
        path = write(tmp_path, "a.ideal", "dim 2\n2 1\n")
        code, out, _ = run(capsys, ["decompose", path])
        assert code == 0
        assert out.splitlines() == ["0 1", "2 0"]

    def test_json_supports_one_based(self, capsys, tmp_path):
        path = write(tmp_path, "a.ideal", "dim 2\n2 1\n")
        code, out, _ = run(capsys, ["decompose", path, "--json"])
        data = json.loads(out)
        assert data["by_support"] == {"1": [[2]], "2": [[1]]}

    def test_decomposes_once(self, capsys, tmp_path, monkeypatch):
        # count the computations: the listing and the grouping both ask
        calls = []
        engine = ideal._decompose

        def counted(e, key):
            calls.append(e)
            return engine(e, key)

        monkeypatch.setattr(ideal, "_decompose", counted)
        path = write(tmp_path, "a.ideal", "dim 3\n2 1 0\n0 1 3\n1 0 1\n")
        code, out, _ = run(capsys, ["decompose", path, "--json"])
        assert code == 0
        assert json.loads(out) == {
            "components": [[0, 1, 1], [1, 1, 0], [2, 0, 1], [1, 0, 3]],
            "by_support": {"1,2": [[1, 1]], "1,3": [[2, 1], [1, 3]],
                           "2,3": [[1, 1]]}}
        assert len(calls) == 1


class TestLexifyConeDirectsum:
    def test_lexify(self, capsys, tmp_path):
        path = write(tmp_path, "a.ideal", "dim 2\n0 2\n")
        code, out, _ = run(capsys, ["lexify", path, "--degree", "3"])
        assert code == 0
        assert parse_ideal_text(out) == normalize(2, [(2, 0)])

    def test_lexify_bound_too_small(self, capsys, tmp_path):
        path = write(tmp_path, "a.ideal", "dim 2\n0 3\n")
        code, _, err = run(capsys, ["lexify", path, "--degree", "2"])
        assert code == 65

    def test_lexify_negative_degree(self, capsys, tmp_path):
        # a negative degree printed the zero ideal and exited 0
        path = write(tmp_path, "a.ideal", "dim 2\n")
        code, out, err = run(capsys, ["lexify", path, "--degree", "-1"])
        assert (code, out) == (65, "") and "natural" in err

    def test_cone(self, capsys, tmp_path):
        path = write(tmp_path, "a.ideal", "dim 1\n2\n")
        code, out, _ = run(capsys, ["cone", path])
        assert parse_ideal_text(out) == normalize(2, [(2, 0)])

    def test_directsum(self, capsys, tmp_path):
        a = write(tmp_path, "a.ideal", "dim 1\n2\n")
        b = write(tmp_path, "b.ideal", "dim 1\n3\n")
        code, out, _ = run(capsys, ["directsum", a, b])
        assert parse_ideal_text(out) == normalize(2, [(2, 0), (0, 3), (1, 1)])

    def test_directsum_past_the_dimension_cap(self, capsys, tmp_path):
        # exited 0 and wrote an N^1001 ideal that normalize refused
        dim = ideal.MAX_DIM - 1
        a = write(tmp_path, "a.ideal", f"dim {dim}\n" + "1 " * dim + "\n")
        b = write(tmp_path, "b.ideal", "dim 2\n1 1\n")
        code, out, err = run(capsys, ["directsum", a, b])
        assert (code, out) == (65, "") and "above the cap" in err


class TestChainbound:
    def test_ell(self, capsys):
        code, out, _ = run(capsys, ["chainbound", "--m", "2",
                                    "--affine", "1,0"])
        assert (code, out.strip()) == (0, "3")

    def test_tm(self, capsys):
        code, out, _ = run(capsys, ["chainbound", "--m", "1",
                                    "--affine", "1,0", "--tm"])
        assert (code, out.strip()) == (0, "3")

    def test_budget_exceeded(self, capsys):
        code, out, err = run(capsys, ["chainbound", "--m", "3",
                                      "--affine", "3,2", "--budget", "10"])
        assert (code, out) == (69, "")
        assert "budget of 10 units" in err and "--budget" in err
        assert "budget=" in err

    def test_negative_budget(self, capsys):
        code, out, err = run(capsys, ["chainbound", "--m", "2",
                                      "--affine", "3,1", "--budget", "-5"])
        assert (code, out) == (65, "") and "budget -5" in err

    def test_value_rows(self, capsys):
        code, out, _ = run(capsys, ["chainbound", "--m", "2",
                                    "--affine", "50,3"])
        assert (code, out.strip()) == (0, str(affine_ell(2, 50, 3)))
        for argv in (["--m", "3", "--affine", "3,1", "--budget", "100"],
                     ["--m", "2", "--affine", "10,1", "--tm",
                      "--budget", "100000"]):
            code, out, err = run(capsys, ["chainbound"] + argv)
            assert (code, out) == (69, "") and "budget" in err

    def test_long_value(self, capsys):
        # past the 4,300 digits Python converts to text by default
        p = 10 ** 5000 + 7
        code, out, _ = run(capsys, ["chainbound", "--m", "1",
                                    "--affine", f"{p},0"])
        assert code == 0
        assert out.strip() == "1" + "0" * 4999 + "8"

    def test_negative_affine(self, capsys):
        code, _, err = run(capsys, ["chainbound", "--m", "2",
                                    "--affine=-1,0"])
        assert code == 65 and "naturals" in err

    def test_affine_reads_naturals_as_ideal_files_do(self, capsys):
        # int() took a sign, digit separators and blanks
        for spec in ("+1,0", "1_0,0", " 1,0", "1, 0", "1,0,0", "1"):
            code, out, err = run(capsys, ["chainbound", "--m", "2",
                                          "--affine", spec])
            assert (code, out) == (65, "") and "naturals" in err, spec

    def test_bad_affine(self, capsys):
        code, _, err = run(capsys, ["chainbound", "--m", "2",
                                    "--affine", "nope"])
        assert code == 65


class TestBounds:
    def test_text(self, capsys):
        code, out, _ = run(capsys, ["bounds", "2"])
        assert code == 0
        lines = dict(line.split(" = ", 1) for line in out.splitlines())
        assert lines["height"] == "w^2 + 1"
        assert lines["kb_order_type"] == "w^w + 1"
        assert lines["type_upper"] == "w^(w^2 + w*2 + 1)"
        assert lines["triangle_order_type_m2"] == "w^(w + 1) + 1"

    def test_m1_json(self, capsys):
        code, out, _ = run(capsys, ["bounds", "1", "--json"])
        data = json.loads(out)
        assert data["height"] == "w + 1"
        assert "triangle_order_type_m2" not in data


class TestOrdinalEval:
    def test_echo(self, capsys):
        code, out, _ = run(capsys, ["ordinal-eval", "w^2*3 + 1"])
        assert (code, out.strip()) == (0, "w^2*3 + 1")

    def test_sum(self, capsys):
        code, out, _ = run(capsys, ["ordinal-eval", "--op", "sum", "1", "w"])
        assert (code, out.strip()) == (0, "w + 1")

    def test_prod(self, capsys):
        code, out, _ = run(capsys, ["ordinal-eval", "--op", "prod",
                                    "w + 1", "w + 1"])
        assert (code, out.strip()) == (0, "w^2 + w*2 + 1")

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, ["ordinal-eval", "w^"])
        assert code == 65


class TestOneWriter:
    """main writes each subcommand's (payload, text) through _emit."""

    def test_matches_the_printing_writer(self, capsys, tmp_path,
                                         monkeypatch):
        # every argv through the streaming writer, then through the
        # whole-payload writer it replaced: stdout, stderr and exit code
        # must agree byte for byte
        rng = random.Random(18)
        ideals = ([zero_ideal(m) for m in range(1, 5)]
                  + [unit_ideal(m) for m in range(1, 5)]
                  + [random_ideal(rng, rng.randint(1, 4), 5, 4)
                     for _ in range(24)]
                  # supports {2} and {10}: "10" sorts before "2" in JSON
                  + [parse_ideal_text("dim 10\nx2*x10\nx1^2\n")])
        paths = [write(tmp_path, f"{i}.ideal", cli.format_ideal(e))
                 for i, e in enumerate(ideals)]
        argvs = []
        for path, e in zip(paths, ideals):
            other = rng.choice([p for p, f in zip(paths, ideals)
                                if f.dim == e.dim])
            point = " ".join(str(rng.randint(0, 4)) for _ in range(e.dim))
            order = rng.choice(["kb", "triangle", "mintype"])
            argvs += [["normalize", path], ["contains", path, point],
                      ["hilbert", path], ["decompose", path],
                      ["lexify", path, "--degree", str(rng.randint(0, 8))],
                      ["cone", path], ["directsum", path, other],
                      ["compare", "--order", order, path, other]]
        bad = write(tmp_path, "bad.ideal", "dim 2\n1 0\noops\n")
        argvs += [
            ["chainbound", "--m", "2", "--affine", "3,1"],
            ["chainbound", "--m", "1", "--affine", "3,1", "--tm"],
            ["bounds", "1"], ["bounds", "2"], ["bounds", "3"],
            ["ordinal-eval", "w^2*3 + 1", "w + 1"],
            ["ordinal-eval", "--op", "prod", "w + 1", "w^w"],
            ["normalize", bad], ["ordinal-eval", "w^"],  # exit 65
            ["hilbert", paths[0], "--budget", "-1"],
            ["hilbert", paths[-1], "--budget", "10"],  # exit 69
            ["chainbound", "--m", "3", "--affine", "3,2", "--budget", "10"]]
        argvs += [argv + ["--json"] for argv in argvs]
        streamed = [run(capsys, argv) for argv in argvs]
        monkeypatch.setattr(cli, "_emit", printing_emit)
        for argv, got in zip(argvs, streamed):
            assert got == run(capsys, argv), argv
        assert {0, 10, 11, 12, 65, 69} <= {code for code, _, _ in streamed}

    def test_every_subcommand_has_a_command(self, capsys):
        # each subparser binds its handler, and its --help exits 0
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert len(sub.choices) == 11
        for name, parser in sub.choices.items():
            assert callable(parser.get_default("run")), name
            assert run(capsys, [name, "--help"])[0] == 0


class TestExitCodes:
    def test_usage(self, capsys):
        assert run(capsys, ["no-such-command"])[0] == 64
        assert run(capsys, ["compare", "a", "b"])[0] == 64

    @pytest.mark.parametrize("argv, files, message", [
        # the first two crashed with a UnicodeDecodeError traceback and exit
        # 1, and the second exited 65 as a "non-integer entry"; the third
        # was read as the unit ideal, the later line winning; the last two
        # named no line
        (["normalize", "a.ideal"], {"a.ideal": b"dim 2\n\xff\n"},
         "cannot read a.ideal: 'utf-8' codec can't decode"),
        (["compare", "--order", "kb", "--term-order", "matrix:m.txt",
          "b.ideal", "b.ideal"],
         {"m.txt": b"1 1\n0 1 \xe9\n", "b.ideal": b"dim 2\n1 0\n"},
         "cannot read m.txt: 'utf-8' codec can't decode"),
        (["normalize", "a.ideal"], {"a.ideal": b"dim 2\nzero\n\nunit\n"},
         "'zero' cannot be mixed with 'unit' at line 4"),
        (["normalize", "a.ideal"], {"a.ideal": b"dim 2\nzero\n1 0\n"},
         "'zero' cannot be mixed with generators at line 3"),
        (["normalize", "a.ideal"], {"a.ideal": b"dim 2\n1 0\nzero\n"},
         "'zero' cannot be mixed with generators at line 3")],
        ids=["non-UTF-8 ideal", "non-UTF-8 matrix", "zero and unit",
             "zero before a generator", "zero after a generator"])
    def test_unreadable_files(self, capsys, tmp_path, monkeypatch, argv,
                              files, message):
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, argv)
        assert (code, out) == (65, "") and message in err

    def test_files_are_read_as_utf8(self, tmp_path):
        # under an ASCII locale, with UTF-8 mode off, open() decoded the
        # file as ASCII and the comment crashed the child with exit 1
        (tmp_path / "a.ideal").write_text("# x\u2081 \u2265 2\ndim 1\n2\n",
                                          encoding="utf-8")
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-m", "monord.cli", "normalize",
             "a.ideal"], cwd=tmp_path, env=env, capture_output=True,
            text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, "dim 1\n2\n")

    def test_data_error_reports_line(self, capsys, tmp_path):
        path = write(tmp_path, "bad.ideal", "dim 2\n1 0\noops\n")
        code, _, err = run(capsys, ["normalize", path])
        assert code == 65
        assert "line 3" in err

    def test_bool_exponents(self, capsys, tmp_path):
        path = write(tmp_path, "tf.json", '{"dim": 2, "gens": [[true, false]]}')
        code, out, err = run(capsys, ["normalize", path])
        assert (code, out) == (65, "")
        assert "error" in err

    def test_string_dim(self, capsys, tmp_path):
        path = write(tmp_path, "dim.json", '{"dim": "2", "gens": [[1, 0]]}')
        code, _, err = run(capsys, ["normalize", path])
        assert code == 65
        assert "dimension '2'" in err

    def test_deep_ordinal(self, capsys):
        depth = MAX_NESTING + 1
        code, _, err = run(capsys, ["ordinal-eval",
                                    "w^(" * depth + "1" + ")" * depth])
        assert code == 65
        assert "nest" in err

    @pytest.mark.parametrize("line", ["x1", "unit"])
    def test_dimension_above_the_cap(self, capsys, tmp_path, line):
        dim = ideal.MAX_DIM + 1
        path = write(tmp_path, "a.ideal", f"dim {dim}\n{line}\n")
        code, out, err = run(capsys, ["normalize", path])
        assert (code, out) == (65, "")
        assert f"dimension {dim} " in err

    def test_out_of_memory(self, capsys, tmp_path, monkeypatch):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setattr(cli, "cmd_hilbert", exhausted)
        path = write(tmp_path, "a.ideal", "dim 1\n1\n")
        assert run(capsys, ["hilbert", path]) == (
            69, "", "error: out of memory\n")

    def test_recursion_too_deep(self, capsys, tmp_path, monkeypatch):
        def too_deep(args):
            raise RecursionError

        monkeypatch.setattr(cli, "cmd_hilbert", too_deep)
        path = write(tmp_path, "a.ideal", "dim 1\n1\n")
        assert run(capsys, ["hilbert", path]) == (
            69, "", "error: recursion too deep for this input\n")

    def test_chainbound_at_m_1000_runs_out_of_budget(self, capsys):
        # ell recursed once per dimension: it exited 1 with a traceback,
        # then 69 "recursion too deep"; the walk spends its budget instead
        code, out, err = run(capsys, ["chainbound", "--m", "1000",
                                      "--affine", "1,1"])
        assert (code, out) == (69, "")
        assert err == ("error: budget of 1000000 units exhausted: 999577 "
                       "spent, 499 more asked (raise it with budget= or "
                       "--budget)\n")

    # the triangle order, and mintype's tie-break through it, recursed once
    # per dimension and exited 69 on these; both now read the generators.
    # (first file, second file, exit code, stdout) per order
    COMPARE = {
        "triangle": [
            ("a", "b", 10, '{"deciding_slice": 1, "order": "triangle", '
                           '"result": "less"}\n'),
            ("b", "a", 12, '{"deciding_slice": 1, "order": "triangle", '
                           '"result": "greater"}\n'),
            ("a", "a", 11, '{"deciding_slice": null, "order": "triangle", '
                           '"result": "equal"}\n')],
        "mintype": [
            ("a", "b", 10, '{"deciding_key": "triangle", "order": "mintype", '
                           '"result": "less"}\n'),
            ("b", "a", 12, '{"deciding_key": "triangle", "order": "mintype", '
                           '"result": "greater"}\n'),
            ("a", "a", 11, '{"deciding_key": "triangle", "order": "mintype", '
                           '"result": "equal"}\n')]}

    @pytest.mark.parametrize("order", ["triangle", "mintype"])
    def test_compare_at_dim_990(self, capsys, tmp_path, order):
        paths = {"a": write(tmp_path, "a", "dim 990\nx1^2*x990\n"),
                 "b": write(tmp_path, "b", "dim 990\nx2*x990^2\n")}
        for x, y, code, out in self.COMPARE[order]:
            argv = ["compare", "--order", order, paths[x], paths[y]]
            assert run(capsys, argv) == (code, out, "")

    @pytest.mark.parametrize("order", ["triangle", "mintype"])
    def test_compare_under_a_lowered_frame_limit(self, capsys, tmp_path,
                                                 order):
        # with the frame limit 200 above the caller's stack, dim 300 ran
        # out of frames too
        paths = {"a": write(tmp_path, "a", "dim 300\nx1^2*x300\n"),
                 "b": write(tmp_path, "b", "dim 300\nx2*x300^2\n")}
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 200)
        try:
            got = [run(capsys, ["compare", "--order", order, paths[x],
                                paths[y]])
                   for x, y, _, _ in self.COMPARE[order]]
        finally:
            sys.setrecursionlimit(limit)
        assert got == [(code, out, "") for _, _, code, out
                       in self.COMPARE[order]]

    @pytest.mark.parametrize("argv", [
        ["bounds", "100000"], ["bounds", "0"],
        ["chainbound", "--m", "1001", "--affine", "1,1"],
        ["chainbound", "--m", "0", "--affine", "1,1", "--tm"]])
    def test_m_outside_the_dimension_range(self, capsys, argv):
        # bounds_report(m) holds the m + 1 coefficients C(m, k), of up to
        # m bits each: about 90 kB at m = 1000, about 900 MB at m = 100000
        code, out, err = run(capsys, argv)
        assert (code, out) == (65, "")
        assert "dimension" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["normalize", "/no/such/file.ideal"])
        assert code == 65

    # "\u00b2" is a digit to str.isdigit() that int() refuses
    def test_unicode_digit_dim(self, capsys, tmp_path):
        path = write(tmp_path, "a.ideal", "dim \u00b2\n1 0\n")
        code, out, err = run(capsys, ["normalize", path])
        assert (code, out) == (65, "")
        assert "'dim m' header at line 1" in err

    def test_unicode_digit_monomial(self, capsys, tmp_path):
        path = write(tmp_path, "a.ideal", "dim 1\n1\n")
        for point in ("x1^\u00b2", "x\u00b2"):
            code, out, err = run(capsys, ["contains", path, point])
            assert (code, out) == (65, "")
            assert "error: bad " in err

    def test_unicode_digit_ordinal(self, capsys):
        code, out, err = run(capsys, ["ordinal-eval", "w^\u00b2"])
        assert (code, out) == (65, "")
        assert "column 3" in err

    def test_deep_json(self, capsys, tmp_path):
        path = write(tmp_path, "deep.json",
                     '{"dim": 2, "gens": ' + "[" * 100000 + "}")
        code, out, err = run(capsys, ["normalize", path])
        assert (code, out) == (65, "")
        assert "bad JSON ideal" in err


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["dim", "gens", "x"]), inner),
    max_leaves=12)


class TestParserFuzz:
    """Any text parses to a result or raises a MonordError."""

    @given(st.text() | st.text("x^*0123456789 \u00b2\u0663-+_").map(
        lambda t: "x" + t), st.integers(1, 4))
    def test_parse_point(self, text, dim):
        try:
            v = parse_point(text, dim)
        except MonordError:
            return
        assert len(v) == dim and all(type(x) is int and x >= 0 for x in v)

    @given(st.text() | st.builds(
        "dim {}\n{}".format, st.text("0123456789\u00b2 ", max_size=3),
        st.text("x^*0123456789\u00b2 \n#zerounit")))
    def test_parse_ideal_text(self, text):
        try:
            e = parse_ideal_text(text)
        except MonordError:
            return
        assert isinstance(e, MonomialIdeal)

    @given(json_values.map(json.dumps) | st.builds(
        lambda dim, gens: json.dumps({"dim": dim, "gens": gens}),
        json_values, json_values))
    def test_parse_ideal_json(self, text):
        try:
            e = parse_ideal_text(text)
        except MonordError:
            return
        assert isinstance(e, MonomialIdeal)
