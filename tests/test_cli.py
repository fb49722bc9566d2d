"""Command-line layer: grammar positions, document round-trips, verbs."""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from crjet import operators
from crjet.cli.documents import (FUNCTIONS, MAX_EXPONENT, ParseError,
                                 _spine, build_hypersurface, build_jet,
                                 build_map, build_system, degree_bound,
                                 exponent_product, parse_document)
from crjet.cli.main import (MAX_RHO_DIGITS, MAX_TAYLOR_PRODUCTS,
                            MAX_TAYLOR_TERMS, _check_rho_digits, main)
from crjet.cli.report import emit
from crjet.hypersurface import Frame, from_defining
from crjet.jets import taylor_propagate
from crjet.mappings import Pullback
from crjet.series import CScalar, Unbounded
from tests.conftest import heis, m3_rho
from tests.test_words import load_workloads

HEIS = """\
# quadric model
kind = hypersurface
N = 2
rho = Im(w) - z1*conj(z1)
"""

M2 = """\
kind = hypersurface
N = 2
rho = Im(w) - z1^2*conj(z1)^2
"""

M3 = """\
kind = hypersurface
N = 3
rho = Im(w) - z1*conj(z1) - 1/2*(z1^2*conj(z2) + conj(z1)^2*z2)
"""

PLANE = """\
kind = hypersurface
N = 2
rho = Im(w)
"""

DILATION = """\
kind = map
N = 2
f1 = 2*z1
f2 = 4*w
"""

# h vanishes at 0 on words of length 1 and not on length 2: ell0 = 2
ELL2 = """\
kind = hypersurface
N = 2
rho = Im(w) - z1^2*conj(z1) - z1*conj(z1)^2
"""

# the image of the quadric under SHEAR, whose eta is 1 at 0
SHEARED = """\
kind = hypersurface
N = 2
rho = Im(w) - (z1 - w)*(conj(z1) - conj(w))
"""

SHEAR = """\
kind = map
N = 2
f1 = z1 + w
f2 = w
"""

IDENTITY = """\
kind = map
N = 2
f1 = z1
f2 = w
"""

SYSTEM_LINE = """\
kind = system
axes = 1
components = 1
jet_order = 1
d11_f1 = 0
"""

JET_LINE = """\
kind = jet
axes = 1
components = 1
jet_order = 1
f1 = 1
f1_1 = 2
"""

SYSTEM_PLANE = """\
kind = system
axes = 2
components = 1
jet_order = 1
d11_f1 = 0
d12_f1 = 0
d22_f1 = 0
"""

JET_PLANE = """\
kind = jet
axes = 2
components = 1
jet_order = 1
f1 = 1
f1_1 = 2
f1_2 = -1/2
"""

SYSTEM_QUADRATIC_LINE = """\
kind = system
axes = 1
components = 1
jet_order = 1
d11_f1 = f1_1*f1_1 + x1*f1
"""

SYSTEM_EXP = """\
kind = system
axes = 1
components = 1
jet_order = 0
d1_f1 = f1
"""

JET_EXP = """\
kind = jet
axes = 1
components = 1
jet_order = 0
f1 = 1
"""


# canonical rendering with the fewest parentheses: the oracle for the
# parse -> serialize -> parse round trip
_PREC = {"add": 1, "sub": 1, "mul": 2, "neg": 3, "pow": 4,
         "num": 5, "var": 5, "call": 5}
_OPS = {"add": " + ", "sub": " - ", "mul": "*"}


def render_expr(node, parent=0) -> str:
    kind = node[0]
    if kind in _OPS:
        first, spine = _spine(node)
        body = render_expr(first, _PREC[spine[0][0]])
        for i, (kind, _, right) in enumerate(spine):
            body += _OPS[kind] + render_expr(right, _PREC[kind] + 1)
            outer = _PREC[spine[i + 1][0]] if i + 1 < len(spine) else parent
            if _PREC[kind] < outer:
                body = "(" + body + ")"
        return body
    if kind == "num":
        body = str(node[1])
    elif kind == "var":
        body = node[1]
    elif kind == "call":
        body = f"{node[1]}({render_expr(node[2])})"
    elif kind == "neg":
        body = "-" + render_expr(node[1], _PREC["neg"])
    else:
        body = render_expr(node[1], _PREC["pow"] + 1) + "^" + str(node[2])
    if _PREC[kind] < parent:
        return "(" + body + ")"
    return body


def serialize_document(doc) -> str:
    lines = [f"kind = {doc.kind}"]
    for key, value in doc.scalars:
        lines.append(f"{key} = {value}")
    for key, node in doc.expressions:
        lines.append(f"{key} = {render_expr(node)}")
    return "\n".join(lines) + "\n"


def random_expression(rng, depth) -> str:
    """Hypersurface expression text in C^3: rationals, variables, signs,
    powers, conj/Re/Im, redundant parentheses and operator chains, some
    of them long."""
    if depth == 0 or rng.random() < 0.2:
        roll = rng.random()
        if roll < 0.5:
            return rng.choice(("z1", "z2", "w"))
        if roll < 0.75:
            return str(rng.randint(0, 9))
        return f"{rng.randint(0, 9)}/{rng.randint(1, 9)}"
    roll = rng.randrange(5)
    inner = random_expression(rng, depth - 1)
    if roll == 0:
        others = [random_expression(rng, depth - 1)
                  for _ in range(rng.choice((1, 2, 60)))]
        return "(" + inner + "".join(rng.choice((" + ", " - ", "*")) + p
                                     for p in others) + ")"
    if roll == 1:
        return "-" + inner
    if roll == 2:
        return f"({inner})^{rng.randint(0, 3)}"
    if roll == 3:
        return f"{rng.choice(FUNCTIONS)}({inner})"
    return f"(({inner}))"


def err(text):
    with pytest.raises(ParseError) as info:
        parse_document(text)
    return info.value


class TestGrammar:
    def test_document_fields(self):
        doc = parse_document(HEIS)
        assert doc.kind == "hypersurface"
        assert doc.scalar("N") == 2
        assert doc.scalar("order") is None
        assert doc.expression("rho")[0] == "sub"
        # the comment line still counts for positions
        assert doc.position("rho") == (4, 1)

    def test_unknown_identifier_position(self):
        text = HEIS.replace("z1*conj(z1)", "z3*conj(z3)")
        e = err(text)
        line = text.splitlines()[3]
        assert (e.line, e.col) == (4, line.index("z3") + 1)
        assert "unknown identifier 'z3'" in str(e)
        assert str(e).startswith("<string>:4:")

    def test_slash_outside_literal(self):
        text = HEIS.replace("z1*conj(z1)", "w/z1")
        e = err(text)
        assert "rational literals" in str(e)
        assert e.col == text.splitlines()[3].index("/") + 1

    def test_zero_denominator(self):
        e = err(HEIS.replace("z1*conj(z1)", "1/0*w"))
        assert "zero denominator" in str(e)

    def test_conj_only_on_hypersurfaces(self):
        e = err(DILATION.replace("2*z1", "conj(z1)"))
        assert "only allowed in hypersurface expressions" in str(e)
        assert (e.line, e.col) == (3, 6)

    def test_stray_character(self):
        e = err(HEIS.replace("Im(w)", "Im(w) @ 1"))
        assert "unexpected character '@'" in str(e)

    def test_unclosed_parenthesis(self):
        e = err(HEIS.replace("conj(z1)", "(w + z1"))
        assert "unexpected end of expression" in str(e)

    def test_nesting_limit(self):
        # 100 levels of parentheses, calls and signs parse; one more does not
        def nested(depth):
            return HEIS.replace("conj(z1)", "(" * depth + "conj(-z1)"
                                + ")" * depth)
        assert parse_document(nested(98)).expression("rho")
        e = err(nested(99))
        assert "nests deeper than 100 levels" in str(e)
        assert (e.line, e.col) == (4, nested(99).splitlines()[3].rindex("-")
                                   + 1)

    def test_exponent_budget(self):
        # nested powers multiply: each is within MAX_EXPONENT, the nest
        # is not, and the error points at the power that passes it
        def rho(power):
            return HEIS.replace("z1*conj(z1)", f"{power}*z1*conj(z1)")
        for power in ("(2/3)^65535", "((2/3)^255)^257", "(z1^300)^0",
                      "((2/3)^300 + z1^9)^218"):
            assert exponent_product(
                parse_document(rho(power)).expression("rho")) <= MAX_EXPONENT
        for power, product in (("(2/3)^65536", 65536),
                               ("((2/3)^300)^300", 90000),
                               ("(1 + (w^300)^2 - 1)^300", 180000),
                               ("-(conj((2/3)^256))^256", 65536)):
            text = rho(power)
            e = err(text)
            assert (f"nested powers multiply to exponent {product}, more "
                    "than MAX_EXPONENT = 65535") in str(e)
            assert (e.line, e.col) == (4, text.splitlines()[3].rindex("^")
                                       + 1)
        # each power is checked once its exponent is read, so a zeroth
        # power around an oversized one does not hide it
        text = rho("(2^99999)^0")
        e = err(text)
        assert "exponent 99999" in str(e)
        assert e.col == text.splitlines()[3].index("^") + 1

    def test_long_integer_literal(self):
        # Python converts at most 4300 digits by default: a longer literal
        # is bad input wherever it stands, never a ValueError
        digits = "1" * 5000
        for text in (HEIS.replace("z1*conj(z1)", digits + "*z1*conj(z1)"),
                     HEIS.replace("z1*conj(z1)", f"1/{digits}*z1*conj(z1)"),
                     HEIS.replace("conj(z1)", f"conj(z1)^{digits}"),
                     HEIS.replace("N = 2", f"N = {digits}")):
            e = err(text)
            assert "integer literal of 5000 digits is too long" in str(e)
            assert e.col == text.splitlines()[e.line - 1].index(digits) + 1
        # a jet key keeps its component as digits, unconverted
        e = err(JET_LINE + f"f{digits} = 1\n")
        assert f"unknown declaration 'f{digits}'" in str(e)

    def test_missing_kind(self):
        e = err("N = 2\nrho = Im(w)\n")
        assert e.line is None
        assert "missing 'kind'" in str(e)

    def test_bad_kind(self):
        e = err(HEIS.replace("hypersurface", "surface"))
        assert "kind must be one of" in str(e)

    def test_duplicate_declaration(self):
        e = err(HEIS + "rho = Im(w)\n")
        assert "duplicate declaration of 'rho'" in str(e)
        assert e.line == 5

    def test_scalar_out_of_range(self):
        e = err(HEIS.replace("N = 2", "N = 1"))
        assert "must lie in [2, inf]" in str(e)

    def test_scalar_not_integer(self):
        e = err(HEIS.replace("N = 2", "N = w"))
        assert "plain integer" in str(e)

    def test_missing_component(self):
        e = err("kind = hypersurface\nN = 2\n")
        assert "missing declarations: rho" in str(e)

    def test_unknown_declaration(self):
        e = err(HEIS + "sigma = w\n")
        assert "unknown declaration 'sigma'" in str(e)

    def test_system_digit_count(self):
        e = err(SYSTEM_LINE.replace("d11_f1", "d1_f1"))
        assert "exactly 2 axis digits" in str(e)

    def test_system_axis_range(self):
        e = err(SYSTEM_LINE.replace("d11_f1", "d12_f1"))
        assert "axis 2 exceeds the declared 1" in str(e)

    def test_derivative_key_spellings_agree(self):
        base = ("kind = system\naxes = 2\ncomponents = 1\njet_order = 1\n"
                "d11_f1 = 0\nd12_f1 = x1\nd22_f1 = f1_2\n")
        assert parse_document(base) == parse_document(
            base.replace("d12_f1", "d21_f1"))


class TestRoundTrip:
    DOCS = (HEIS, M3, DILATION, SYSTEM_LINE, JET_LINE)

    def test_parse_serialize_parse(self):
        for text in self.DOCS:
            doc = parse_document(text)
            again = parse_document(serialize_document(doc), source="copy")
            assert again == doc

    def test_serialization_fixpoint(self):
        for text in self.DOCS:
            once = serialize_document(parse_document(text))
            assert serialize_document(parse_document(once)) == once

    def test_precedence_survives(self):
        text = HEIS.replace("Im(w) - z1*conj(z1)",
                            "-(z1 + w)*conj(z1)^2 + 1/2*w - Re(w - z1)")
        doc = parse_document(text)
        assert parse_document(serialize_document(doc)) == doc
        rho = serialize_document(doc).splitlines()[-1]
        assert rho == "rho = -(z1 + w)*conj(z1)^2 + 1/2*w - Re(w - z1)"

    def test_rendering_drops_noise_parens(self):
        doc = parse_document(HEIS.replace("Im(w) - z1*conj(z1)",
                                          "((w)) + (z1*(conj(z1)))"))
        assert render_expr(doc.expression("rho")) == "w + z1*conj(z1)"

    def test_degree_bound(self):
        doc = parse_document(M3)
        assert degree_bound(doc.expression("rho")) == 3

    def test_seeded_expressions(self):
        rng = random.Random(6)
        for _ in range(100):
            text = ("kind = hypersurface\nN = 3\nrho = "
                    + random_expression(rng, 4) + "\n")
            doc = parse_document(text)
            once = serialize_document(doc)
            assert parse_document(once, source="copy") == doc, text
            assert serialize_document(parse_document(once)) == once

    def test_long_chains(self):
        # a chain parses into a left-deep tree as deep as it is long
        terms = [f"{t}/{t + 1}*z1^{t % 3}*w" if t % 2 else f"(z1 - {t})*w^2"
                 for t in range(1, 3001)]
        body = " + ".join(terms[:1500]) + " - " + " - ".join(terms[1500:])
        doc = parse_document(HEIS.replace("Im(w) - z1*conj(z1)", body))
        text = serialize_document(doc)
        assert text.splitlines()[-1] == "rho = " + body
        assert serialize_document(parse_document(text)) == text
        assert degree_bound(doc.expression("rho")) == 3


class TestBuilders:
    def test_heisenberg_matches_library_model(self):
        M = build_hypersurface(parse_document(HEIS), 8)
        H = heis(2, 8)
        assert M.rho == H.rho and M.phi == H.phi

    def test_cubic_model_matches_library_model(self):
        M = build_hypersurface(parse_document(M3), 6)
        assert M.rho == from_defining(m3_rho(6), 3).rho

    def test_non_real_rho_rejected(self):
        with pytest.raises(ParseError) as info:
            build_hypersurface(parse_document(HEIS.replace(
                "Im(w) - z1*conj(z1)", "z1")), 6)
        assert "not real-valued" in str(info.value)
        assert info.value.line == 4

    def test_map_needs_matching_dimension(self):
        doc = parse_document(DILATION)
        with pytest.raises(ParseError):
            build_map(doc, heis(2, 6), from_defining(m3_rho(6), 3))
        F = build_map(doc, heis(2, 6), heis(2, 6))
        assert F.N == 2

    def test_system_jet_propagation(self):
        # d1_f1 = f1 with f1(0) = 1 grows the exponential jet
        sys_doc = parse_document("kind = system\naxes = 1\ncomponents = 1\n"
                                 "jet_order = 0\nd1_f1 = f1\n")
        jet_doc = parse_document("kind = jet\naxes = 1\ncomponents = 1\n"
                                 "jet_order = 0\nf1 = 1\n")
        grown = taylor_propagate(build_system(sys_doc),
                                 build_jet(jet_doc), 4)
        assert all(grown.values[(0, (k,))] == CScalar(1) for k in range(5))

    def test_jet_values(self):
        text = ("kind = jet\naxes = 1\ncomponents = 1\njet_order = 0\n"
                "f1 = -3/2\n")
        jet = build_jet(parse_document(text))
        assert jet.values[(0, (0,))] == CScalar(Fraction(-3, 2))
        with pytest.raises(ParseError):
            parse_document(text.replace("-3/2", "x1"))  # no chart in jets

    def test_constant_evaluation_against_oracle(self):
        # jet values go through the series evaluator on an empty chart;
        # seeded constant expressions must equal the CScalar walk
        rng = random.Random(2000)
        for _ in range(300):
            doc = parse_document("kind = jet\naxes = 1\ncomponents = 1\n"
                                 "jet_order = 0\nf1 = "
                                 + random_constant(rng, 4) + "\n")
            want = ref_eval_constant(doc.expression("f1"))
            assert want.is_real()
            got = build_jet(doc).values[(0, (0,))]
            assert type(got) is Fraction and got == want.re, doc

    def test_long_constant_chains(self):
        text = JET_LINE.replace("f1 = 1", "f1 = " + " + ".join(["1"] * 3000))
        text = text.replace("f1_1 = 2", "f1_1 = " + "*".join(["1"] * 3000)
                            + "*2 - 1/2")
        jet = build_jet(parse_document(text))
        assert jet.values[(0, (0,))] == 3000
        assert jet.values[(0, (1,))] == Fraction(3, 2)


def ref_eval_constant(node) -> CScalar:
    """A constant expression in CScalar arithmetic, each power by repeated
    multiplication: the oracle for the values of jet documents."""
    kind = node[0]
    if kind == "num":
        return CScalar(node[1])
    if kind == "neg":
        return -ref_eval_constant(node[1])
    if kind == "pow":
        base = ref_eval_constant(node[1])
        out = CScalar(1)
        for _ in range(node[2]):
            out = out * base
        return out
    first, spine = _spine(node)
    out = ref_eval_constant(first)
    for kind, _, right in spine:
        value = ref_eval_constant(right)
        if kind == "add":
            out = out + value
        elif kind == "sub":
            out = out - value
        else:
            out = out * value
    return out


def random_constant(rng, depth) -> str:
    """Constant expression text: rationals, signs, powers, redundant
    parentheses and operator chains, some of them long."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return str(rng.randint(0, 9))
        return f"{rng.randint(0, 9)}/{rng.randint(1, 9)}"
    roll = rng.randrange(4)
    inner = random_constant(rng, depth - 1)
    if roll == 0:
        others = [random_constant(rng, depth - 1)
                  for _ in range(rng.choice((1, 2, 12)))]
        return "(" + inner + "".join(rng.choice((" + ", " - ", "*")) + p
                                     for p in others) + ")"
    if roll == 1:
        return "-" + inner
    if roll == 2:
        return f"({inner})^{rng.randint(0, 4)}"
    return f"(({inner}))"


@pytest.fixture()
def docs(tmp_path, monkeypatch):
    monkeypatch.delenv("CRJET_ORDER", raising=False)
    paths = {}
    for name, text in [("heis", HEIS), ("m2", M2), ("m3", M3),
                       ("plane", PLANE), ("dilation", DILATION),
                       ("ell2", ELL2), ("sheared", SHEARED),
                       ("shear", SHEAR), ("identity", IDENTITY),
                       ("line_sys", SYSTEM_LINE), ("line_jet", JET_LINE),
                       ("plane_sys", SYSTEM_PLANE),
                       ("plane_jet", JET_PLANE),
                       ("quad_sys", SYSTEM_QUADRATIC_LINE),
                       ("exp_sys", SYSTEM_EXP), ("exp_jet", JET_EXP)]:
        p = tmp_path / f"{name}.crj"
        p.write_text(text, encoding="utf-8")
        paths[name] = str(p)
    return paths


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def perturb(monkeypatch, cls, name, length):
    """Add 1 to every entry that the method cls.name(abar, D) returns for
    a word abar of this length."""
    method = getattr(cls, name)

    def perturbed(self, abar, D):
        value = method(self, abar, D)
        return value + 1 if len(abar) == length else value

    monkeypatch.setattr(cls, name, perturbed)


class TestVerbs:
    @pytest.mark.parametrize("argv", [
        ["analyze", "heis", "--scan", ""],
        ["aut", "heis", "--weights", ""],
        ["reconstruct", "line_sys", "line_jet", "--grid", "0:1:2",
         "--axis-order", ""],
    ])
    def test_empty_flag_value_is_bad_input(self, docs, capsys, argv):
        # an empty value is given, not absent: it is refused like ","
        argv = [docs.get(a, a) for a in argv]
        code, out, errtext = run(capsys, argv)
        assert (code, out) == (2, "")
        assert errtext.startswith(f"error: {argv[-2]}: ")

    def test_analyze_quadric(self, docs, capsys):
        code, out, _ = run(capsys, ["analyze", docs["heis"]])
        assert code == 0
        assert "schema_version: 1" in out
        assert "k0: 1" in out
        assert "type: 2" in out
        assert "levi_rank: 1" in out
        assert "order: 3" in out       # default kmax+2 with kmax=n=1
        assert "pass: true" in out

    def test_analyze_degenerate_markers(self, docs, capsys):
        code, out, _ = run(capsys, ["analyze", docs["m2"],
                                    "--kmax", "4", "--order", "10"])
        assert code == 0
        assert "inf@kmax=4" in out
        assert "type: 4" in out
        assert "ell0: inf@" in out and "ell1: inf@" in out

    def test_analyze_rejects_other_kinds(self, docs, capsys):
        code, _, errtext = run(capsys, ["analyze", docs["line_jet"]])
        assert code == 2
        assert "needs a hypersurface document" in errtext

    def test_verify_all_checks(self, docs, capsys):
        code, out, _ = run(capsys, ["verify", docs["heis"], "--kmax", "2"])
        assert code == 0
        for name in ("frame-structure", "derivative-recursion",
                     "leading-order", "bracket-pairing",
                     "operator-certificates-m2", "operator-certificates-m3"):
            assert name in out
        assert out.count("ok: true") == 6
        assert "pass: true" in out

    def test_verify_unknown_token(self, docs, capsys):
        code, _, errtext = run(capsys, ["verify", docs["heis"],
                                        "--check", "frame,l1_13"])
        assert code == 2
        assert "unknown check 'l1_13'" in errtext

    @pytest.mark.parametrize("spec", ["", ",", " , "])
    def test_verify_empty_check_list(self, docs, capsys, spec):
        code, out, errtext = run(capsys, ["verify", docs["heis"],
                                          "--check", spec])
        assert (code, out) == (2, "")
        assert "--check: no check given" in errtext

    def test_verify_basis_budget(self, docs, capsys):
        # --degree 40 on C^3 asks for C(45, 40), about 1.2M, basis
        # monomials: refused before the model is built
        start = time.perf_counter()
        code, out, errtext = run(capsys, ["verify", docs["m3"],
                                          "--degree", "40"])
        assert time.perf_counter() - start < 5.0
        assert (code, out) == (2, "")
        assert ("--degree 40 needs 1221759 basis monomials, more than "
                "MAX_BASIS_MONOMIALS = 5000") in errtext
        # the degree sizes only the operator certificates
        code, out, _ = run(capsys, ["verify", docs["m3"], "--check", "frame",
                                    "--degree", "40"])
        assert code == 0 and "pass: true" in out

    def test_verify_degree_zero_is_bad_input(self, docs, capsys):
        # on a basis of degree 0 or 1 the second-order coefficients of the
        # m = 2 certificates are invisible, so the operators check would
        # pass a corrupted certificate (see TestVerificationRejectsCorruption)
        for degree, checks in itertools.product(
                ("0", "1"), ("operators", "frame,operators", "all")):
            argv = ["verify", docs["m3"], "--degree", degree]
            if checks != "all":
                argv += ["--check", checks]
            code, out, errtext = run(capsys, argv)
            assert (code, out) == (2, ""), (degree, checks)
            assert errtext == (
                f"error: --degree: --degree {degree} gives a basis of "
                "degree below 2, which cannot see the second-order "
                "coefficients of the m = 2 operator certificates; the "
                "operators check needs --degree 2 or more\n")
        for degree in ("0", "1"):
            code, out, _ = run(capsys, ["verify", docs["m3"], "--check",
                                        "frame", "--degree", degree])
            assert code == 0 and "pass: true" in out
        code, out, _ = run(capsys, ["verify", docs["m3"], "--check",
                                    "operators", "--degree", "2"])
        assert code == 0 and "pass: true" in out

    @pytest.mark.parametrize("N, counts", [(3, [5, 7]), (4, [9, 16])])
    def test_verify_certificates_on_diagonal_levi(self, tmp_path, capsys, N,
                                                  counts):
        # h[1b, 2] = 0 on the quadric: a zero forced leading coefficient
        # is verified, not reported as a missing word
        p = tmp_path / "quadric.crj"
        p.write_text(f"kind = hypersurface\nN = {N}\nrho = Im(w)"
                     + "".join(f" - z{j}*conj(z{j})" for j in range(1, N))
                     + "\n", encoding="utf-8")
        code, out, _ = run(capsys, ["verify", str(p), "--check", "operators",
                                    "--json"])
        report = json.loads(out)
        assert (code, report["pass"]) == (0, True)
        assert [c["checked"] for c in report["checks"]] == counts
        assert not any(c["vacuous"] for c in report["checks"])

    def test_verify_vacuous_certificates(self, docs, capsys):
        # no Levi pivot at the origin: certificate batches degrade to
        # vacuous passes instead of inventing operators, also at orders
        # too low to build the certificates
        note = ("    note: no conjugate index pairs with the first field at "
                "0; the construction needs a nonzero first-column pairing "
                "(reorder the frame so a nondegenerate direction comes "
                "first)\n")
        for order in ([], ["--order", "2"], ["--order", "3"]):
            code, out, _ = run(capsys, ["verify", docs["m2"],
                                        "--check", "operators"] + order)
            assert code == 0
            assert out.count("vacuous: true") == 2
            assert out.count(note) == 2

    def certificate_run(self, tmp_path, capsys):
        p = tmp_path / "quadric3.crj"
        p.write_text("kind = hypersurface\nN = 3\n"
                     "rho = Im(w) - z1*conj(z1) - z2*conj(z2)\n",
                     encoding="utf-8")
        code, out, _ = run(capsys, ["verify", str(p), "--check", "operators",
                                    "--json"])
        return code, json.loads(out)

    def test_failed_verification_fails_the_run(self, tmp_path, capsys,
                                               monkeypatch):
        # a certificate whose monomial verification fails is a violation,
        # never a vacuous pass
        monkeypatch.setattr(operators, "_verify_reduction",
                            lambda *args: False)
        code, report = self.certificate_run(tmp_path, capsys)
        assert (code, report["pass"]) == (1, False)
        for check in report["checks"]:
            assert not check["ok"] and not check["vacuous"]
            assert check["violations"] > 0

    def test_inconsistent_table_fails_the_run(self, tmp_path, capsys,
                                              monkeypatch):
        # with both verifications forced to pass, a corrupted commutator
        # table still fails through the consistency checks
        monkeypatch.setattr(operators, "_verify_reduction",
                            lambda *args: True)
        monkeypatch.setattr(operators, "_verify_weighted",
                            lambda *args: True)
        table = operators.CertificateMemo.table

        def corrupted(memo, word, Fbar):
            out = table(memo, word, Fbar)
            if len(word) == 2:
                out = {K: 2 * d for K, d in out.items()}
            return out

        monkeypatch.setattr(operators.CertificateMemo, "table", corrupted)
        code, report = self.certificate_run(tmp_path, capsys)
        assert (code, report["pass"]) == (1, False)
        for check in report["checks"]:
            assert not check["ok"] and not check["vacuous"]
            assert check["violations"] > 0

    @pytest.mark.parametrize("doc, check, length, violations", [
        ("heis", "frame", 1, 2),
        ("heis", "recursion", 2, 1),
        ("ell2", "leading", 2, 2),
        ("ell2", "commutators", 2, 1),
        # length-1 entries nonzero at 0: ell0 = 1 while ell1 stays 2
        ("ell2", "commutators", 1, 1)])
    def test_perturbed_entry_fails_verify(self, docs, capsys, monkeypatch,
                                          doc, check, length, violations):
        # every identity suite is seen to fail: shifting the frame's h
        # entries of one word length by 1 breaks the identity it checks
        perturb(monkeypatch, Frame, "h", length)
        code, out, errtext = run(capsys, ["verify", docs[doc], "--check",
                                          check, "--json"])
        report = json.loads(out)
        assert (code, errtext, report["pass"]) == (1, "", False)
        (got,) = report["checks"]
        assert (got["ok"], got["vacuous"], got["violations"]) == \
            (False, False, violations)

    @pytest.mark.parametrize("check, length, violations", [
        ("reflection-base", 1, 2),
        # both the gamma and the eta recursion: SHEAR has eta != 0
        ("transport-recursion", 2, 2),
        ("levi-reflection-roundtrip", 1, 2)])
    def test_perturbed_entry_fails_reflect(self, docs, capsys, monkeypatch,
                                           check, length, violations):
        perturb(monkeypatch, Pullback, "entry", length)
        code, out, errtext = run(capsys, ["reflect", docs["heis"],
                                          docs["sheared"], docs["shear"],
                                          "--json"])
        report = json.loads(out)
        assert (code, errtext, report["pass"]) == (1, "", False)
        (got,) = [c for c in report["checks"] if c["name"] == check]
        assert (got["ok"], got["vacuous"], got["violations"]) == \
            (False, False, violations)

    def test_reflect_shear_passes(self, docs, capsys):
        code, out, errtext = run(capsys, ["reflect", docs["heis"],
                                          docs["sheared"], docs["shear"],
                                          "--json"])
        report = json.loads(out)
        assert (code, errtext, report["pass"]) == (0, "", True)
        assert report["eta0"] == ["1"]
        assert [c["violations"] for c in report["checks"]] == [0, 0, 0]

    @pytest.mark.parametrize("order, message", [
        ("1", "word length 2 need frame order 2, frame has 0"),
        ("2", "word length 2 need frame order 2, frame has 1"),
        ("3", "word length 3 need frame order 3, frame has 2"),
        ("4", None)])
    def test_operator_certificates_name_their_order_bound(self, docs, capsys,
                                                         order, message):
        code, out, errtext = run(capsys, ["verify", docs["heis"], "--check",
                                          "operators", "--order", order])
        if message is None:
            assert (code, errtext) == (0, "")
            assert "pass: true" in out
        else:
            assert (code, out) == (2, "")
            assert errtext == (f"error: operator certificates of {message} "
                               f"(truncation order {order} from --order)\n")

    def test_reflect_dilation(self, docs, capsys):
        code, out, _ = run(capsys, ["reflect", docs["heis"], docs["heis"],
                                    docs["dilation"], "--kmax", "2"])
        assert code == 0
        assert "xi0: 4" in out
        assert "(2)" in out            # gamma entry at the base point
        assert "levi-reflection-roundtrip" in out
        assert "pass: true" in out

    def test_reconstruct_taylor(self, docs, capsys):
        code, out, _ = run(capsys, ["reconstruct", docs["line_sys"],
                                    docs["line_jet"], "--target-order", "4"])
        assert code == 0
        assert "f1: 1" in out
        assert "f1_1: 2" in out
        assert "f1_11: 0" in out
        assert "f1_1111: 0" in out

    def test_reconstruct_grid(self, docs, capsys):
        code, out, _ = run(capsys, ["reconstruct", docs["line_sys"],
                                    docs["line_jet"], "--grid", "0:1:3",
                                    "--json"])
        assert code == 0
        points = json.loads(out)["grid"]["points"]
        got = sorted(v for (v,) in points.values())
        assert got == pytest.approx([1.0, 2.0, 3.0], abs=1e-9)

    def test_reconstruct_single_point_axis(self, docs, capsys):
        code, out, errtext = run(capsys, ["reconstruct", docs["line_sys"],
                                          docs["line_jet"], "--grid",
                                          "0:1:1"])
        assert (code, errtext) == (0, "")
        assert out == ("grid:\n  axis_order: [1]\n  points:\n"
                       "    (0.0): [1.0]\n  step: 0.001\npass: true\n"
                       "schema_version: 1\nsystem:\n  axes: 1\n"
                       "  components: 1\n  jet_order: 1\n"
                       "verb: reconstruct\n")

    @pytest.mark.parametrize("grid, message", [
        (["0:1:1", "--grid", "0:1:2"], "need one spec or 1, got 2"),
        (["0:1"], "expected lo:hi:count, got '0:1'"),
        (["1:0:2"], "bad grid range '1:0:2'")])
    def test_grid_refusals(self, docs, capsys, grid, message):
        assert run(capsys, ["reconstruct", docs["line_sys"],
                            docs["line_jet"], "--grid", *grid]) == \
            (2, "", f"error: --grid: {message}\n")

    def test_target_order_below_jet_order_truncates(self, docs, capsys):
        # target order 0 on a jet of order 1: the jet is cut, not grown
        code, out, errtext = run(capsys, ["reconstruct", docs["line_sys"],
                                          docs["line_jet"],
                                          "--target-order", "0"])
        assert (code, errtext) == (0, "")
        assert out == ("jet:\n  f1: 1\npass: true\nschema_version: 1\n"
                       "system:\n  axes: 1\n  components: 1\n"
                       "  jet_order: 1\ntarget_order: 0\n"
                       "verb: reconstruct\n")

    def test_reflect_degenerate_levi_roundtrip_is_vacuous(self, docs,
                                                          capsys):
        # Im w = |z1|^4 has a vanishing Levi form at 0: there is nothing
        # to reconstruct, and the run still passes
        code, out, errtext = run(capsys, ["reflect", docs["m2"], docs["m2"],
                                          docs["identity"]])
        assert (code, errtext) == (0, "")
        assert ("  - checked: 0\n    name: levi-reflection-roundtrip\n"
                "    note: Levi pairing is singular at 0; reconstruction "
                "needs 1-nondegenerate germs\n    ok: true\n"
                "    vacuous: true\n    violations: 0\n") in out
        assert out.endswith("pass: true\nschema_version: 1\n"
                            "verb: reflect\nxi0: 1\n")

    @pytest.mark.parametrize("order, code", [(500, 0), (501, 2), (2000, 2)])
    def test_target_order_budget(self, docs, capsys, order, code):
        # the line system expands 2 * C(T, 2) jet coefficients up to T:
        # 249500 at T = 500, 250500 at T = 501
        start = time.perf_counter()
        got, out, errtext = run(capsys, ["reconstruct", docs["line_sys"],
                                         docs["line_jet"], "--target-order",
                                         str(order)])
        assert time.perf_counter() - start < 5.0
        assert got == code
        if code == 2:
            assert out == ""
            assert errtext == (
                f"error: --target-order: --target-order {order} expands "
                f"more than MAX_TAYLOR_TERMS = {MAX_TAYLOR_TERMS} jet "
                "coefficients of a system with axes = 1, components = 1 "
                "and jet_order = 1\n")

    @pytest.mark.parametrize("order, code", [(120, 0), (147, 2), (300, 2)])
    def test_target_order_product_budget(self, docs, capsys, order, code):
        # the quadratic rhs forms C(T+1, 3) - 2 * C(T, 2) + T - 1 products
        # up to T: 273819 at T = 120, 497640 at T = 146 and 508080 at 147;
        # its 2 * C(T, 2) jet coefficients stay inside MAX_TAYLOR_TERMS
        start = time.perf_counter()
        got, out, errtext = run(capsys, ["reconstruct", docs["quad_sys"],
                                         docs["line_jet"], "--target-order",
                                         str(order)])
        assert time.perf_counter() - start < 5.0
        assert got == code
        if code == 0:
            assert errtext == ""
            assert f"  f1_{'1' * order}: " in out
        else:
            assert out == ""
            assert errtext == (
                f"error: --target-order: --target-order {order} forms more "
                f"than MAX_TAYLOR_PRODUCTS = {MAX_TAYLOR_PRODUCTS} "
                "coefficient products in the expansions of a system with "
                "axes = 1, components = 1, jet_order = 1 and rhs degree 2\n")

    def test_substep_count_is_rounded(self, docs, capsys):
        # 1 / 0.7 rounds to one substep of size 1, longer than the step:
        # f' = f from 1 gives the one-step value 1 + 1 + 1/2 + 1/6 + 1/24
        code, out, errtext = run(capsys, ["reconstruct", docs["exp_sys"],
                                          docs["exp_jet"], "--grid", "0:1:2",
                                          "--step", "0.7"])
        assert (code, errtext) == (0, "")
        assert out == ("grid:\n  axis_order: [1]\n  points:\n"
                       "    (0.0): [1.0]\n    (1.0): [2.708333333333333]\n"
                       "  step: 0.7\npass: true\nschema_version: 1\n"
                       "system:\n  axes: 1\n  components: 1\n"
                       "  jet_order: 0\nverb: reconstruct\n")

    @pytest.mark.parametrize("argv", [
        ["scan", "heis", "--scan", "1e5000"],
        ["analyze", "heis", "--scan", "0,1E-5_000"],
        ["scan", "heis", "--scan", "1e" + "9" * 5000],
        ["reconstruct", "line_sys", "line_jet", "--grid", "0:1e+5000:2"],
    ])
    def test_exponent_past_the_digit_limit(self, docs, capsys, argv):
        # Fraction would build 10^e past the limit that refuses a long
        # plain literal; the flag is refused before any Fraction is built
        argv = [docs.get(a, a) for a in argv]
        start = time.perf_counter()
        code, out, errtext = run(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert errtext.startswith(f"error: {argv[-2]}: exponent '")
        assert errtext.endswith(
            f" is more than {sys.get_int_max_str_digits()}, the most digits "
            "Python converts (sys.get_int_max_str_digits())\n")

    @pytest.mark.parametrize("argv, wrong, kind", [
        (["analyze", "line_jet"], 1, "hypersurface"),
        (["verify", "dilation"], 1, "hypersurface"),
        (["scan", "line_sys", "--scan", "0"], 1, "hypersurface"),
        (["aut", "line_jet"], 1, "hypersurface"),
        (["reflect", "dilation", "heis", "dilation"], 1, "hypersurface"),
        (["reflect", "heis", "line_sys", "dilation"], 2, "hypersurface"),
        (["reflect", "heis", "heis", "heis"], 3, "map"),
        (["reconstruct", "line_jet", "line_jet", "--target-order", "2"], 1,
         "system"),
        (["reconstruct", "line_sys", "line_sys", "--target-order", "2"], 2,
         "jet"),
    ])
    def test_wrong_kind_message(self, docs, capsys, argv, wrong, kind):
        # one message for every verb and position, naming the document
        argv = [docs.get(a, a) for a in argv]
        code, out, errtext = run(capsys, argv)
        assert (code, out) == (2, "")
        assert errtext == (f"error: {argv[wrong]}: {argv[0]} needs a {kind} "
                           "document\n")

    def test_reconstruct_needs_a_request(self, docs, capsys):
        code, _, errtext = run(capsys, ["reconstruct", docs["line_sys"],
                                        docs["line_jet"]])
        assert code == 2
        assert "nothing to do" in errtext

    def test_reconstruct_takes_no_order(self, docs, capsys):
        # the jet system fixes its own orders, so --order is an unknown flag
        with pytest.raises(SystemExit) as exc:
            main(["reconstruct", docs["line_sys"], docs["line_jet"],
                  "--target-order", "2", "--order", "3"])
        assert exc.value.code == 2
        out, errtext = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --order 3" in errtext

    @pytest.mark.parametrize("verb", ["analyze", "scan"])
    def test_bad_grid_is_refused_before_the_germ(self, docs, capsys,
                                                 monkeypatch, verb):
        built = []
        monkeypatch.setattr("crjet.cli.main.build_hypersurface",
                            lambda *a: built.append(a))
        code, out, errtext = run(capsys, [verb, docs["m3"], "--scan", "abc"])
        assert (code, out, built) == (2, "", [])
        assert errtext == ("error: --scan: expected comma-separated "
                           "rationals, got 'abc'\n")

    @pytest.mark.parametrize("N", [6, 7])
    def test_default_bounds_on_large_quadrics(self, tmp_path, capsys, N):
        # verify's leading and commutator suites read the filtration at
        # lmax = N, so their default order is at least N + 1: 2*(kmax+2)
        # = 6 alone fell short from C^6 on
        p = tmp_path / f"quadric{N}.crj"
        p.write_text("kind = hypersurface\n"
                     f"N = {N}\n"
                     "rho = Im(w) - " + " - ".join(
                         f"z{j}*conj(z{j})" for j in range(1, N))
                     + "\n", encoding="utf-8")
        for argv in (["analyze"], ["scan", "--scan", "0"], ["verify"]):
            code, out, errtext = run(capsys, [argv[0], str(p), *argv[1:]])
            assert (code, errtext) == (0, ""), argv
        assert f"order: {N + 1}" in out
        code, out, errtext = run(capsys, ["verify", str(p), "--check",
                                          "frame,recursion"])
        assert (code, errtext) == (0, "")
        assert "order: 6" in out

    def test_aut_quadric(self, docs, capsys):
        code, out, _ = run(capsys, ["aut", docs["heis"], "--degree", "2",
                                    "--weights", "1,2", "--order", "9"])
        assert code == 0
        assert "bound: 30" in out
        assert "dim: 8" in out
        assert "dim: 0" in out         # no holomorphic degeneracy evidence
        assert "inequality: satisfied" in out

    def test_aut_unknowns_budget(self, tmp_path, docs, capsys):
        # --degree 10 on C^4 asks for 8 * C(14, 10) = 8008 real unknowns:
        # refused before the model is built
        p = tmp_path / "quadric4.crj"
        p.write_text("kind = hypersurface\nN = 4\nrho = Im(w) - z1*conj(z1)"
                     " - z2*conj(z2) - z3*conj(z3)\n", encoding="utf-8")
        start = time.perf_counter()
        code, out, errtext = run(capsys, ["aut", str(p), "--degree", "10"])
        assert (code, out) == (2, "")
        assert ("--degree 10 needs 8008 real tangency unknowns, more than "
                "MAX_TANGENCY_UNKNOWNS = 6000") in errtext
        # a weighted count stops at the budget instead of enumerating
        code, out, errtext = run(capsys, ["aut", docs["heis"], "--degree",
                                          "100000", "--weights", "1,2"])
        assert (code, out) == (2, "")
        assert ("--degree 100000 with --weights 1,2 needs more than "
                "MAX_TANGENCY_UNKNOWNS = 6000") in errtext
        assert time.perf_counter() - start < 5.0
        # degree 5 on C^4 (1008 unknowns) and degree 6 on C^3 (504) run
        for argv in (["aut", str(p), "--degree", "5"],
                     ["aut", docs["m3"], "--degree", "6", "--order", "10"]):
            code, out, _ = run(capsys, argv)
            assert code == 0 and "pass: true" in out

    def test_aut_terms_budget(self, tmp_path, docs, capsys):
        # a generic C^3 germ at --degree 10 --order 14 passes the unknowns
        # budget with 1716 unknowns, but its restrictions would hold 59602
        # terms up to tangency order 13: refused before any is built
        p = tmp_path / "generic3.crj"
        p.write_text("kind = hypersurface\nN = 3\nrho = Im(w) - "
                     "Re(z1*conj(z1)) - Im(z1^2*conj(z2)) + 3*Im(z2^2) + "
                     "Re(z1*z2*Re(w))\n", encoding="utf-8")
        start = time.perf_counter()
        code, out, errtext = run(capsys, ["aut", str(p), "--degree", "10",
                                          "--order", "14"])
        assert (code, out) == (2, "")
        assert errtext == (
            "error: degree bound 10 at tangency order 13 needs more than "
            "MAX_TANGENCY_TERMS = 50000 restricted tangency terms; lower the "
            "truncation order or the degree bound (truncation order 14 from "
            "--order)\n")
        # an order from the document is named as such
        p.write_text(p.read_text() + "order = 14\n", encoding="utf-8")
        code, out, errtext = run(capsys, ["aut", str(p), "--degree", "10"])
        assert (code, out) == (2, "")
        assert errtext.rstrip().endswith(
            "(truncation order 14 from the document's order)")
        assert time.perf_counter() - start < 5.0
        # a lower order is accepted
        p.write_text(p.read_text().replace("order = 14", "order = 4"),
                     encoding="utf-8")
        code, out, _ = run(capsys, ["aut", str(p), "--degree", "2"])
        assert code == 0 and "pass: true" in out

    def test_aut_terms_budget_counts_sparse_models(self, tmp_path, capsys):
        # the terms of a model germ stay sparse at any order: the C^5
        # quadric runs at the default degree and order 12, and at
        # --degree 3 (560 unknowns, 1100 terms)
        p = tmp_path / "quadric5.crj"
        p.write_text("kind = hypersurface\nN = 5\nrho = Im(w)" + "".join(
            f" - z{j}*conj(z{j})" for j in range(1, 5)) + "\n",
            encoding="utf-8")
        for extra in ([], ["--degree", "3"]):
            code, out, _ = run(capsys, ["aut", str(p)] + extra)
            assert code == 0 and "pass: true" in out
            assert "order: 12" in out

    def test_rho_digits_budget(self, tmp_path, capsys):
        # the cubic C^3 model with one term scaled by ((2/3)^255)^257, a
        # denominator of 31269 digits: refused once the model is built,
        # before aut eliminates
        def cubic(scale):
            p = tmp_path / "cubic.crj"
            p.write_text("kind = hypersurface\nN = 3\nrho = Im(w) - "
                         f"z1*conj(z1) - {scale}*1/2*(z1^2*conj(z2) + "
                         "conj(z1)^2*z2)\n", encoding="utf-8")
            return str(p)

        start = time.perf_counter()
        path = cubic("((2/3)^255)^257")
        code, out, errtext = run(capsys, ["aut", path])
        assert (code, out) == (2, "")
        assert errtext == (
            f"error: {path}:3:1: the normalized rho's exact coefficients "
            "need more than MAX_RHO_DIGITS = 10000 decimal digits; aut's "
            "elimination cost grows with them\n")
        assert time.perf_counter() - start < 5.0
        # analyze does not eliminate and still runs
        code, out, _ = run(capsys, ["analyze", path])
        assert code == 0 and "pass: true" in out
        # a coefficient of 4772 digits is accepted
        code, out, _ = run(capsys, ["aut", cubic("((2/3)^100)^100")])
        assert code == 0 and "pass: true" in out

    def test_rho_digits_budget_accepts_default_runs(self, tmp_path, capsys):
        # every default-bound aut run on the quadrics up to C^7, and the
        # benchmark's cubic and weighted runs
        for N in range(2, 8):
            p = tmp_path / f"quadric{N}.crj"
            p.write_text(f"kind = hypersurface\nN = {N}\nrho = Im(w)" +
                         "".join(f" - z{j}*conj(z{j})" for j in range(1, N))
                         + "\n", encoding="utf-8")
            code, out, _ = run(capsys, ["aut", str(p)])
            assert code == 0 and "pass: true" in out, N
        p = tmp_path / "cubic.crj"
        p.write_text("kind = hypersurface\nN = 3\nrho = Im(w) - "
                     "z1*conj(z1) - 1/2*(z1^2*conj(z2) + conj(z1)^2*z2)\n",
                     encoding="utf-8")
        code, out, _ = run(capsys, ["aut", str(p), "--degree", "3"])
        assert code == 0 and "pass: true" in out
        code, out, _ = run(capsys, ["aut", str(tmp_path / "quadric2.crj"),
                                    "--weights", "1,2"])
        assert code == 0 and "dim: 8" in out

    @pytest.mark.parametrize("coefficient, code", [
        ("1/2*(10^10000 - 1)", 0), ("1/2*10^10000", 2),
        ("(1/10)^10000", 2)])
    def test_rho_digits_boundary(self, tmp_path, capsys, coefficient, code):
        # the normalized rho holds 1/2*c as the numerator c over the
        # denominator 2, and (1/10)^10000 as the denominator 10^10000
        p = tmp_path / "cubic.crj"
        p.write_text("kind = hypersurface\nN = 2\nrho = Im(w) - z1*conj(z1)"
                     f" - {coefficient}*(z1^2*conj(z1) + conj(z1)^2*z1)\n",
                     encoding="utf-8")
        got, out, errtext = run(capsys, ["aut", str(p), "--degree", "1"])
        assert got == code
        assert ("pass: true" in out) == (code == 0)
        assert ("MAX_RHO_DIGITS = 10000" in errtext) == (code == 2)

    @pytest.mark.parametrize("den, re, im, refused", [
        (10 ** MAX_RHO_DIGITS - 1, 1, 0, False),
        (10 ** MAX_RHO_DIGITS, 1, 0, True),
        (2, 10 ** MAX_RHO_DIGITS - 1, -(10 ** MAX_RHO_DIGITS - 1), False),
        (2, -(10 ** MAX_RHO_DIGITS), 1, True),
        (2, 1, 10 ** MAX_RHO_DIGITS, True),
        (2, 2 ** 33219, 0, False), (2, 2 ** 33220 - 1, 0, True),
        (2 ** 33221, 1, 0, True)], ids=[
        "den-10^10000-1", "den-10^10000", "num-10^10000-1", "re-10^10000",
        "im-10^10000", "num-2^33219", "num-2^33220-1", "den-2^33221"])
    def test_rho_digits_check_at_the_bit_boundary(self, den, re, im,
                                                  refused):
        # 10^10000 has 33220 bits: the check decides a shorter or longer
        # integer by its bit length, and one of 33220 bits exactly
        class Rho:
            def numerators(self):
                return den, [((0, 0, 0, 0), (re, im))]

        class Model:
            rho = Rho()

        doc = parse_document("kind = hypersurface\nN = 2\nrho = Im(w)\n")
        if refused:
            with pytest.raises(ParseError, match="MAX_RHO_DIGITS"):
                _check_rho_digits(doc, Model())
        else:
            _check_rho_digits(doc, Model())

    def test_chain_words_budget(self, tmp_path, docs, capsys):
        # on C^3 the words of lengths 0 to L number 2^(L+1) - 1: refused
        # before the model is built
        quadric = tmp_path / "quadric3.crj"
        quadric.write_text("kind = hypersurface\nN = 3\nrho = Im(w) - "
                           "z1*conj(z1) - z2*conj(z2)\n", encoding="utf-8")
        dilation = tmp_path / "dilation3.crj"
        dilation.write_text("kind = map\nN = 3\nf1 = 2*z1\nf2 = 2*z2\n"
                            "f3 = 4*w\n", encoding="utf-8")
        q, d = str(quadric), str(dilation)
        limit = "MAX_CHAIN_WORDS = 400000 ordered index words"
        start = time.perf_counter()
        for argv in (["analyze", q, "--kmax", "20"],
                     ["verify", q, "--check", "recursion", "--kmax", "20"],
                     ["scan", q, "--scan", "0", "--kmax", "20"],
                     ["analyze", q, "--kmax", "17"]):
            code, out, errtext = run(capsys, argv)
            assert (code, out) == (2, ""), argv
            assert (f"--kmax {argv[-1]} on C^3 needs more than {limit}"
                    in errtext)
        # reflect has its own, lower limit
        for kmax in ("20", "9"):
            code, out, errtext = run(capsys, ["reflect", q, q, d, "--kmax",
                                              kmax])
            assert (code, out) == (2, "")
            assert (f"--kmax {kmax} on C^3 needs more than "
                    "MAX_REFLECT_WORDS = 1024 ordered index words" in errtext)
        # on C^2 each length adds one word, counted without enumerating
        code, out, errtext = run(capsys, ["analyze", docs["heis"], "--kmax",
                                          "100000000"])
        assert (code, out) == (2, "")
        assert f"--kmax 100000000 on C^2 needs more than {limit}" in errtext
        assert time.perf_counter() - start < 5.0
        # 1023 words run
        code, out, _ = run(capsys, ["analyze", q, "--kmax", "8"])
        assert code == 0 and "pass: true" in out

    def test_chain_words_budget_at_default_bounds(self, tmp_path, capsys):
        # analyze and verify at their default bounds on C^5 count 1365
        # words up to lmax = N = 5 and run
        def quadric(N):
            path = tmp_path / f"quadric{N}.crj"
            terms = " - ".join(f"z{j}*conj(z{j})" for j in range(1, N))
            path.write_text(f"kind = hypersurface\nN = {N}\n"
                            f"rho = Im(w) - {terms}\n", encoding="utf-8")
            return str(path)

        q5 = quadric(5)
        for argv in (["analyze", q5], ["verify", q5]):
            code, out, _ = run(capsys, argv)
            assert code == 0 and "pass: true" in out, argv
        # on C^8 they are refused, naming N as the source of the length
        q8 = quadric(8)
        limit = "on C^8 needs more than MAX_CHAIN_WORDS = 400000"
        code, out, errtext = run(capsys, ["analyze", q8])
        assert (code, out) == (2, "")
        assert f"the default --kmax 7 = N - 1 {limit}" in errtext
        code, out, errtext = run(capsys, ["verify", q8, "--order", "20"])
        assert (code, out) == (2, "")
        assert (f"{q8}: lmax = N = 8 of the leading and commutator suites "
                f"{limit}") in errtext

    def test_aut_flat_plane_violates_bound(self, docs, capsys):
        # Im w = 0 is neither finitely nondegenerate nor minimal, so the
        # dimension bound does not apply and the verb must say so
        code, out, _ = run(capsys, ["aut", docs["plane"], "--degree", "4",
                                    "--order", "6"])
        assert code == 1
        assert "dim: 35" in out        # 30 free CR coefficients + 5 real
        assert "inequality: violated" in out
        assert "pass: false" in out

    def test_scan(self, docs, capsys):
        code, out, _ = run(capsys, ["scan", docs["m2"], "--scan", "0,1/2",
                                    "--kmax", "4", "--order", "10"])
        assert code == 0
        assert "nondegenerate_count: 1" in out
        assert "inf@kmax=4" in out
        assert "nondegenerate: true" in out

    @pytest.mark.parametrize("degree, rho", [
        (4, "Im(w) - z1*conj(z1) + (z1*conj(z1))^2"),
        (8, "Im(w) - z1*conj(z1) + 4*(z1*conj(z1))^4")])
    def test_scan_recentres_the_complete_polynomial(self, docs, capsys,
                                                     monkeypatch, tmp_path,
                                                     degree, rho):
        # both germs are Levi-degenerate on |z1| = 1/2, which the scan
        # missed at order 3 and at the former default order 6, where it
        # recentred rho without its top terms
        p = tmp_path / "circle.crj"
        text = f"kind = hypersurface\nN = 2\nrho = {rho}\n"
        p.write_text(text, encoding="utf-8")
        for verb in ("scan", "analyze"):
            argv = [verb, str(p), "--scan", "0,1/2"]
            code, out, _ = run(capsys, argv + ["--json"])
            assert code == 0
            report = json.loads(out)
            assert report["model"]["order"] == degree
            assert [point["k0"] for point in report["scan"]["points"]] \
                == [1, "inf@kmax=1"]
            assert report["scan"]["nondegenerate_count"] == 1
            # an explicit order below the degree is bad input, whichever
            # source sets it
            refused = (f"error: {p}:3:1: rho's terms reach degree {degree}, "
                       f"above truncation order {degree - 1} from {{}}; the "
                       "scan recentres the complete polynomial\n")
            code, out, errtext = run(capsys, argv + ["--order",
                                                     str(degree - 1)])
            assert (code, out, errtext) == (2, "", refused.format("--order"))
            monkeypatch.setenv("CRJET_ORDER", str(degree - 1))
            code, out, errtext = run(capsys, argv)
            assert (code, out, errtext) == (2, "",
                                            refused.format("CRJET_ORDER"))
            monkeypatch.delenv("CRJET_ORDER")
            p.write_text(text + f"order = {degree - 1}\n", encoding="utf-8")
            code, out, errtext = run(capsys, argv)
            assert (code, out, errtext) == (
                2, "", refused.format("the document's order"))
            p.write_text(text, encoding="utf-8")

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_derived_order_matches_the_guessed_order(self, capsys, tmp_path,
                                                     seed):
        # analyze and scan read at most kmax + 2 orders of the germ, and a
        # scan the complete polynomial: every analyze and scan report of
        # the invariants benchmark equals its report at the former default
        # order 2*(kmax+2), but for model.order
        calls = load_workloads().build("invariants", seed, tmp_path)
        compared = 0
        for call in calls:
            if call.verb not in ("analyze", "scan"):
                continue
            argv = list(call.argv) + ["--json"]
            code, out, errtext = run(capsys, argv)
            derived = json.loads(out)
            kmax = derived["model"]["kmax"] if call.verb == "analyze" \
                else derived["scan"]["k"]
            guessed = run(capsys, argv + ["--order", str(2 * (kmax + 2))])
            assert (code, errtext) == (guessed[0], guessed[2]), call.argv
            guessed = json.loads(guessed[1])
            assert derived["model"].pop("order") \
                < guessed["model"].pop("order"), call.argv
            assert derived == guessed, call.argv
            compared += 1
        assert compared == 14

    def test_environment_order(self, docs, capsys, monkeypatch):
        monkeypatch.setenv("CRJET_ORDER", "7")
        _, out, _ = run(capsys, ["analyze", docs["heis"]])
        assert "order: 7" in out
        _, out, _ = run(capsys, ["analyze", docs["heis"], "--order", "5"])
        assert "order: 5" in out

    def test_document_order_beats_environment(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setenv("CRJET_ORDER", "7")
        p = tmp_path / "ordered.crj"
        p.write_text(HEIS + "order = 9\n", encoding="utf-8")
        _, out, _ = run(capsys, ["analyze", str(p)])
        assert "order: 9" in out

    def test_bad_environment_order(self, docs, capsys, monkeypatch):
        monkeypatch.setenv("CRJET_ORDER", "six")
        code, _, errtext = run(capsys, ["analyze", docs["heis"]])
        assert code == 2
        assert "CRJET_ORDER" in errtext

    def test_negative_environment_order(self, docs, capsys, monkeypatch):
        monkeypatch.setenv("CRJET_ORDER", "-2")
        code, out, errtext = run(capsys, ["analyze", docs["heis"]])
        assert (code, out) == (2, "")
        assert "CRJET_ORDER: must be non-negative, got -2" in errtext

    @pytest.mark.parametrize("verb, order, message", [
        ("analyze", "0", "stored term (1, 0, 0, 0) exceeds order 0"),
        ("scan", "0", "stored term (1, 0, 0, 0) exceeds order 0"),
        ("verify", "1", "length 1 exceeds frame order 0"),
        ("reflect", "1", "length 1 exceeds frame order 0"),
        ("aut", "1", "stored term (0, 2, 0, 0) exceeds order 1")])
    def test_order_errors_name_their_source(self, docs, capsys, monkeypatch,
                                            tmp_path, verb, order, message):
        files = {"reflect": [docs["heis"], docs["heis"], docs["dilation"]],
                 "scan": [docs["heis"], "--scan", "0"]}
        argv = [verb] + files.get(verb, [docs["heis"]])
        code, out, errtext = run(capsys, argv + ["--order", order])
        assert (code, out) == (2, "")
        assert message in errtext
        assert errtext.rstrip().endswith(
            f"(truncation order {order} from --order)")
        monkeypatch.setenv("CRJET_ORDER", order)
        code, _, errtext = run(capsys, argv)
        assert code == 2
        assert f"(truncation order {order} from CRJET_ORDER)" in errtext
        # the document's order wins over the environment
        p = tmp_path / "ordered.crj"
        p.write_text(HEIS + f"order = {max(int(order), 1)}\n",
                     encoding="utf-8")
        if verb in ("verify", "aut"):
            code, _, errtext = run(capsys, [verb, str(p)])
            assert code == 2
            assert (f"(truncation order {order} from the document's order)"
                    in errtext)

    def test_reflect_reads_the_target_order(self, docs, capsys, tmp_path):
        target = tmp_path / "target.crj"
        target.write_text(HEIS + "order = 3\n", encoding="utf-8")
        argv = ["reflect", docs["heis"], str(target), docs["dilation"]]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert "order: 3" in out
        target.write_text(HEIS + "order = 1\n", encoding="utf-8")
        code, out, errtext = run(capsys, argv)
        assert (code, out) == (2, "")
        assert errtext.rstrip().endswith(
            "(truncation order 1 from the target document's order)")

    def test_reflect_documents_must_agree_on_order(self, docs, capsys,
                                                   tmp_path):
        source, target = tmp_path / "source.crj", tmp_path / "target.crj"
        source.write_text(HEIS + "order = 9\n", encoding="utf-8")
        target.write_text(HEIS + "order = 3\n", encoding="utf-8")
        argv = ["reflect", str(source), str(target), docs["dilation"]]
        code, out, errtext = run(capsys, argv)
        assert (code, out) == (2, "")
        assert (f"{target}:5:1: order 3 disagrees with order 9 of {source}"
                in errtext)
        target.write_text(HEIS + "order = 9\n", encoding="utf-8")
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert "order: 9" in out

    def test_reflect_reads_the_map_order(self, docs, capsys, tmp_path):
        source = tmp_path / "source.crj"
        source.write_text(HEIS + "order = 4\n", encoding="utf-8")
        mapping = tmp_path / "map.crj"
        # a map order that agrees is accepted
        mapping.write_text(DILATION + "order = 4\n", encoding="utf-8")
        argv = ["reflect", str(source), docs["heis"], str(mapping)]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert "order: 4" in out
        # alone it sets the order
        code, out, _ = run(capsys, ["reflect", docs["heis"], docs["heis"],
                                    str(mapping)])
        assert code == 0
        assert "order: 4" in out
        # one that disagrees is bad input naming both documents
        mapping.write_text(DILATION + "order = 2\n", encoding="utf-8")
        code, out, errtext = run(capsys, argv)
        assert (code, out) == (2, "")
        line = DILATION.count("\n") + 1
        assert (f"{mapping}:{line}:1: order 2 disagrees with order 4 of "
                f"{source}" in errtext)

    def test_missing_file(self, tmp_path, capsys):
        code, _, errtext = run(capsys, ["analyze", str(tmp_path / "no.crj")])
        assert code == 2
        assert errtext.startswith("error:")

    def test_json_reports(self, docs, capsys):
        code, out, _ = run(capsys, ["analyze", docs["heis"], "--json"])
        assert code == 0
        data = json.loads(out)
        assert data["schema_version"] == 1
        assert data["filtration"]["k0"] == 1
        assert data["agreement"] == {"ell0_ell1": True, "k0_paths": True}

    def test_reports_are_deterministic(self, docs, capsys):
        first = run(capsys, ["analyze", docs["heis"], "--scan", "0,1/3"])
        second = run(capsys, ["analyze", docs["heis"], "--scan", "0,1/3"])
        assert first == second
        jfirst = run(capsys, ["aut", docs["heis"], "--json"])
        jsecond = run(capsys, ["aut", docs["heis"], "--json"])
        assert jfirst == jsecond

    def test_reused_parser_answers_as_a_fresh_process(self, docs, capsys):
        # main builds its parser once per process: no call may see what an
        # earlier one parsed, an appended --grid least of all
        plane = ["reconstruct", docs["plane_sys"], docs["plane_jet"]]
        calls = [plane + ["--grid", "0:1:3", "--grid=-1/2:0:2", "--json"],
                 plane + ["--grid", "0:1/2:2"],
                 plane + ["--target-order", "2"],
                 ["analyze", docs["m3"], "--json"]]
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        for argv in calls:
            fresh = subprocess.run([sys.executable, "-m", "crjet.cli"] + argv,
                                   capture_output=True, text=True, env=env,
                                   timeout=120)
            assert fresh.returncode == 0, fresh.stderr
            assert run(capsys, argv) == (0, fresh.stdout, fresh.stderr), argv

    @pytest.mark.parametrize("opener, closer", [
        ("(", ")"), ("- ", ""), ("conj(", ")")])
    def test_deep_nesting_is_bad_input(self, tmp_path, capsys, opener,
                                       closer):
        prefix = "rho = Im(w) - "
        p = tmp_path / "deep.crj"
        p.write_text("kind = hypersurface\nN = 2\n" + prefix
                     + opener * 3000 + "z1*conj(z1)" + closer * 3000 + "\n",
                     encoding="utf-8")
        code, out, errtext = run(capsys, ["analyze", str(p)])
        assert code == 2
        assert out == ""
        col = len(prefix) + 100 * len(opener) + 1
        assert (f"deep.crj:3:{col}: expression nests deeper than 100 "
                "levels") in errtext

    def test_long_sum_analyzes(self, tmp_path, capsys):
        rho = "Im(w) - z1*conj(z1) - " + " - ".join(
            ["1/3000*z1*conj(z1)"] * 3000)
        long = tmp_path / "long.crj"
        long.write_text(HEIS.replace("Im(w) - z1*conj(z1)", rho),
                        encoding="utf-8")
        short = tmp_path / "short.crj"
        short.write_text(HEIS.replace("z1*conj(z1)", "2*z1*conj(z1)"),
                         encoding="utf-8")
        code, out, errtext = run(capsys, ["analyze", str(long)])
        assert (code, errtext) == (0, "")
        assert run(capsys, ["analyze", str(short)])[1] == out

    @pytest.mark.parametrize("verb, flag", [
        ("analyze", "--kmax"), ("scan", "--kmax"), ("verify", "--kmax"),
        ("verify", "--degree"), ("reflect", "--kmax"), ("aut", "--degree"),
        ("reconstruct", "--target-order"), ("analyze", "--order"),
        ("aut", "--order"),
    ])
    def test_negative_bound_is_bad_input(self, docs, capsys, verb, flag):
        files = {"reflect": [docs["heis"], docs["heis"], docs["dilation"]],
                 "reconstruct": [docs["line_sys"], docs["line_jet"]],
                 "scan": [docs["heis"], "--scan", "0"]}
        argv = [verb] + files.get(verb, [docs["heis"]]) + [flag, "-1"]
        code, out, errtext = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert f"{flag}: must be non-negative, got -1" in errtext


def reconstruct(tmp_path, capsys, rhs="f1", jet="1", argv=()):
    sys_path = tmp_path / "sys.crj"
    sys_path.write_text("kind = system\naxes = 1\ncomponents = 1\n"
                        f"jet_order = 0\nd1_f1 = {rhs}\n", encoding="utf-8")
    jet_path = tmp_path / "jet.crj"
    jet_path.write_text("kind = jet\naxes = 1\ncomponents = 1\n"
                        f"jet_order = 0\nf1 = {jet}\n", encoding="utf-8")
    return run(capsys, ["reconstruct", str(sys_path), str(jet_path),
                        *argv])


class TestLargeValues:
    """Powers evaluate by squaring; a power past MAX_EXPONENT and a value
    with more digits than Python prints are bad input."""

    def test_jet_power(self, tmp_path, capsys):
        start = time.perf_counter()
        code, out, errtext = reconstruct(tmp_path, capsys, jet="(1/2)^14000",
                                         argv=["--target-order", "1"])
        assert time.perf_counter() - start < 1.0
        assert (code, errtext) == (0, "")
        assert f"  f1: 1/{2 ** 14000}\n" in out

    def test_power_past_the_budget(self, tmp_path, capsys):
        start = time.perf_counter()
        code, out, errtext = reconstruct(tmp_path, capsys,
                                         jet="(1/2)^300000",
                                         argv=["--target-order", "1"])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert errtext.endswith("jet.crj:5:11: nested powers multiply to "
                                "exponent 300000, more than MAX_EXPONENT = "
                                "65535\n")

    def test_value_too_long_to_print(self, tmp_path, capsys):
        # 2^65535 has 19729 digits
        limit = sys.get_int_max_str_digits()
        code, out, errtext = reconstruct(tmp_path, capsys, jet="(1/2)^65535",
                                         argv=["--target-order", "1"])
        assert (code, out) == (2, "")
        assert errtext == ("error: a report value has a numerator or "
                           f"denominator of more than {limit} digits, the "
                           "most Python prints "
                           "(sys.get_int_max_str_digits())\n")


TOO_LONG_TO_PRINT = ("error: a report value has a numerator or denominator "
                     f"of more than {sys.get_int_max_str_digits()} digits, "
                     "the most Python prints (sys.get_int_max_str_digits())\n")


class TestReportValues:
    """Every report value is rendered in report.emit, behind main's digit
    guard, wherever it sits in the tree."""

    @pytest.mark.parametrize("argv, map_text", [
        (["scan", "heis", "--scan", "1e4300"], None),
        (["analyze", "heis", "--scan", "1e4300"], None),
        (["reflect", "heis", "heis", "map"],
         "f1 = (3/2)^10000*z1\nf2 = (3/2)^20000*w\n"),
        (["reflect", "heis", "heis", "map"], "f1 = z1\nf2 = 10^5000 + w\n"),
    ])
    def test_value_too_long_to_print(self, docs, tmp_path, capsys, argv,
                                     map_text):
        if map_text is not None:
            path = tmp_path / "map.crj"
            path.write_text("kind = map\nN = 2\n" + map_text,
                            encoding="utf-8")
            docs = {**docs, "map": str(path)}
        code, out, errtext = run(capsys, [docs.get(a, a) for a in argv])
        assert (code, out, errtext) == (2, "", TOO_LONG_TO_PRINT)

    def test_tuple_of_scalars_is_one_scalar(self):
        pair = (CScalar(1, 2), Fraction(-1, 3), Unbounded("kmax", 2))
        text = "(1+2*i, -1/3, inf@kmax=2)"
        tree = {"value": pair, "list": [pair, 1], "items": [{"a": 1}, pair]}
        assert emit(tree) == (f"items:\n  - a: 1\n  - {text}\n"
                              f"list: [{text}, 1]\nvalue: {text}\n")
        assert json.loads(emit(tree, json_mode=True)) == {
            "items": [{"a": 1}, text], "list": [text, 1], "value": text}


class TestIntegratorInput:
    """Values outside the float range and walks beyond the named budgets
    are bad input: exit 2 with a message, before any marching."""

    BIG = "1" + "0" * 400

    def test_rhs_coefficient_beyond_float_range(self, tmp_path, capsys):
        code, out, errtext = reconstruct(
            tmp_path, capsys, rhs=f"{self.BIG}*f1",
            argv=["--grid", "0:1:2", "--step", "0.1"])
        assert (code, out) == (2, "")
        assert ("a coefficient of the rhs of d^(1,) f1 is beyond the float "
                "range") in errtext

    def test_jet_value_beyond_float_range(self, tmp_path, capsys):
        code, out, errtext = reconstruct(
            tmp_path, capsys, jet=f"-{self.BIG}",
            argv=["--grid", "0:1:2", "--step", "0.1"])
        assert (code, out) == (2, "")
        assert "jet value d^(0,) f1 is beyond the float range" in errtext

    def test_grid_value_beyond_float_range(self, tmp_path, capsys):
        code, out, errtext = reconstruct(
            tmp_path, capsys, argv=["--grid", f"0:{self.BIG}:2"])
        assert (code, out) == (2, "")
        assert "grid value on axis 1 is beyond the float range" in errtext

    @pytest.mark.parametrize("step", ["1e-300", "5e-324", "1e-9"])
    def test_substep_budget(self, tmp_path, capsys, step):
        # a run of 1e300 substeps, of more than the largest float, and of
        # 1e9: each is refused before it starts
        start = time.perf_counter()
        code, out, errtext = reconstruct(
            tmp_path, capsys, argv=["--grid", "0:1:2", "--step", step])
        assert time.perf_counter() - start < 5.0
        assert (code, out) == (2, "")
        assert "MAX_RK4_SUBSTEPS = 10000000" in errtext

    @pytest.mark.parametrize("step", ["inf", "1e400"])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_step_must_be_finite(self, tmp_path, capsys, step, json_flag):
        code, out, errtext = reconstruct(
            tmp_path, capsys,
            argv=["--grid", "0:1:2", "--step", step, *json_flag])
        assert (code, out) == (2, "")
        assert "step must be finite, got inf" in errtext

    def test_substep_budget_counts_the_whole_walk(self, tmp_path, capsys):
        # each of the 2000 runs takes 1e4 substeps, far under the limit;
        # together they take twice the limit
        start = time.perf_counter()
        code, out, errtext = reconstruct(
            tmp_path, capsys, rhs="0",
            argv=["--grid", "0:2000:2001", "--step", "1e-4"])
        assert time.perf_counter() - start < 5.0
        assert (code, out) == (2, "")
        assert ("needs more than MAX_RK4_SUBSTEPS = 10000000 substeps"
                in errtext)

    def test_axis_order_not_a_number(self, tmp_path, capsys):
        code, out, errtext = reconstruct(
            tmp_path, capsys,
            argv=["--grid", "0:1:2", "--step", "0.1", "--axis-order", "x"])
        assert (code, out) == (2, "")
        assert "--axis-order: not an axis number: 'x'" in errtext

    def test_grid_point_budget(self, tmp_path, capsys):
        start = time.perf_counter()
        code, out, errtext = reconstruct(
            tmp_path, capsys, argv=["--grid", "0:1:1000000000"])
        assert time.perf_counter() - start < 5.0
        assert (code, out) == (2, "")
        assert "more than MAX_GRID_POINTS = 100000 grid points" in errtext


# seeded exit contract: each verb on mutated documents and flag values.
# The flat plane fails aut's bound (exit 1); a rho with no linear part,
# the 2, 3 dilation of the quadric and a line jet for a plane system are
# bad input (exit 2)
SINGULAR = HEIS.replace("Im(w) - ", "")
WRONG_DILATION = DILATION.replace("4*w", "3*w")
EXIT_DOCS = {
    "analyze": (HEIS, M3, M2, SINGULAR), "verify": (HEIS, M3, M2, SINGULAR),
    "scan": (HEIS, M3, M2, SINGULAR), "aut": (HEIS, M3, M2, PLANE),
    "reflect": ((HEIS, HEIS, DILATION), (HEIS, HEIS, WRONG_DILATION)),
    "reconstruct": ((SYSTEM_LINE, JET_LINE), (SYSTEM_PLANE, JET_PLANE),
                    (SYSTEM_PLANE, JET_LINE)),
}
EXIT_PIECES = ("", "0", "1", "-1", "3", "1/0", "1/3", "99", "10^40", "z9",
               "w", "zb1", "conj(", ")", "*", "^", "+", "Im(w)", "=", "\n",
               "kind = map\n", "N = 1\n", "order = 2\n", "# ", "\u00e9",
               "1e5", "f1 = z1\n", "jet_order = 3\n")
EXIT_FLAGS = {
    "analyze": {"--kmax": ("0", "1", "2", "3", "-1", "x"),
                "--scan": ("0", "1/2", "0,1/2", "-1,0,1", "a", "0,1/0")},
    "verify": {"--kmax": ("0", "1", "2", "3", "-1"),
               "--check": ("frame", "recursion", "operators", "leading",
                           "commutators", "leading,commutators", "bogus",
                           ""),
               "--degree": ("0", "1", "2", "3", "-1")},
    "scan": {"--kmax": ("0", "1", "2", "x"),
             "--scan": ("0", "0,1/2", "1/3", "x", "", "1/0")},
    "aut": {"--degree": ("0", "1", "2", "3", "-3"),
            "--weights": ("1,2", "1,1", "1,1,2", "0,1", "1", "a")},
    "reflect": {"--kmax": ("0", "1", "2", "3", "-1")},
    "reconstruct": {"--target-order": ("0", "2", "4", "-1"),
                    "--grid": ("0:1:3", "-1:1:5", "0:1:0", "a", "1:0:2",
                               "0:1e400:2"),
                    "--step": ("0.1", "0.01", "0", "-1", "nan", "inf"),
                    "--axis-order": ("1", "2,1", "1,2", "x", "1,1")},
}
EXIT_ORDERS = ("0", "1", "2", "3", "4", "6", "8", "-1", "x")
# scan needs a grid and reconstruct a request; most cases give one
EXIT_NEEDS = {"scan": "--scan=0", "reconstruct": "--target-order=2"}


def mutate_document(rng, text):
    """One seeded edit: a span replaced by a piece, a line dropped or
    doubled, or (None) the file left unwritten."""
    lines = text.splitlines(keepends=True)
    roll = rng.randrange(3) if rng.random() < 0.95 else None
    if roll is None:
        return None
    if roll == 1 and len(lines) > 1:
        del lines[rng.randrange(len(lines))]
        return "".join(lines)
    if roll == 2:
        i = rng.randrange(len(lines))
        lines.insert(i, lines[i])
        return "".join(lines)
    i = rng.randrange(len(text) + 1)
    j = min(len(text), i + rng.randrange(4))
    return text[:i] + rng.choice(EXIT_PIECES) + text[j:]


def exit_contract_cases(seed, per_verb):
    rng = random.Random(seed)
    for verb, bases in EXIT_DOCS.items():
        for _ in range(per_verb):
            base = rng.choice(bases)
            texts = [base] if isinstance(base, str) else list(base)
            if rng.random() < 0.4:
                i = rng.randrange(len(texts))
                texts[i] = mutate_document(rng, texts[i])
            flags = [f"{flag}={rng.choice(values)}"
                     for flag, values in EXIT_FLAGS[verb].items()
                     if rng.random() < 0.4]
            if verb in EXIT_NEEDS and rng.random() < 0.8 and not any(
                    f.split("=")[0] in ("--scan", "--target-order", "--grid")
                    for f in flags):
                flags.append(EXIT_NEEDS[verb])
            if rng.random() < 0.4:
                order = f"--order={rng.choice(EXIT_ORDERS)}"
                # reconstruct has no --order (its refusal is pinned in
                # TestVerbs); its cases still reach the verb
                if verb != "reconstruct":
                    flags.append(order)
            if rng.random() < 0.5:
                flags.append("--json")
            yield verb, texts, flags


# edits of one expression's right-hand side: nested operators, calls and
# signs, powers at and past MAX_EXPONENT, values near and past the digits
# Python prints, a literal too long to convert, and a stray piece
EXPR_EDITS = (
    *(lambda e, k=k: f"({e})^{k}" for k in (0, 1, 2, 300, 65536)),
    *(lambda e, c=c: f"{e}*{c}"
      for c in ("(1/3)^9000", "(1/3)^9100", "((2/3)^15)^17",
                "((2/3)^300)^300", "(1 + w)^3", "1" * 5000)),
    lambda e: f"-(-({e}))",
    lambda e: f"conj(conj({e}))",
    lambda e: f"Re({e}) + Im({e})*0",
    lambda e: "(" * 99 + e + ")" * 99,
    lambda e: "(" * 101 + e + ")" * 101,
    lambda e: f"{e} + (w - w)^9*z1",
    lambda e: f"{e}^",
    lambda e: f"{e})",
)
SCALAR_KEYS = ("kind", "N", "order", "axes", "components", "jet_order")


def mutate_expression(rng, text):
    """One seeded edit of the right-hand side of one expression."""
    lines = text.splitlines(keepends=True)
    exprs = [i for i, line in enumerate(lines) if "=" in line
             and line.split("=")[0].strip() not in SCALAR_KEYS]
    i = rng.choice(exprs)
    key, rhs = lines[i].split("=", 1)
    lines[i] = f"{key}= {rng.choice(EXPR_EDITS)(rhs.strip())}\n"
    return "".join(lines)


def expression_cases(seed, per_verb):
    rng = random.Random(seed)
    for verb, bases in EXIT_DOCS.items():
        for _ in range(per_verb):
            base = rng.choice(bases)
            texts = [base] if isinstance(base, str) else list(base)
            i = rng.randrange(len(texts))
            texts[i] = mutate_expression(rng, texts[i])
            flags = [EXIT_NEEDS[verb]] if verb in EXIT_NEEDS else []
            if rng.random() < 0.5:
                flags.append("--json")
            yield verb, texts, flags


def assert_exit_contract(tmp_path, capsys, cases) -> list:
    """Run each case; main returns 0, 1 or 2 and raises only argparse's
    SystemExit(2); exit 1 comes with pass: false, exit 0 with pass: true,
    and exit 2 with no report.  Returns the exit codes."""
    codes = []
    for case, (verb, texts, flags) in enumerate(cases):
        paths = []
        for i, text in enumerate(texts):
            path = tmp_path / f"c{case}_{i}.crj"
            if text is not None:
                path.write_text(text, encoding="utf-8")
            paths.append(str(path))
        argv = [verb] + paths + flags
        where = (argv, texts)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused the command line
            assert exc.code == 2, where
            code = 2
        out, _ = capsys.readouterr()
        assert code in (0, 1, 2), where
        codes.append(code)
        if code == 2:
            assert out == "", where
            continue
        passed = json.loads(out)["pass"] if "--json" in flags else \
            "\npass: true\n" in "\n" + out
        assert passed == (code == 0), where
    return codes


def byte_corruption_cases(seed, per_slot):
    """Each document slot of each verb's base documents with one byte that
    is not valid UTF-8 put in or over an ASCII text, and the offset where
    decoding fails."""
    rng = random.Random(seed)
    for verb, bases in EXIT_DOCS.items():
        for base in bases:
            texts = [base] if isinstance(base, str) else list(base)
            for slot in range(len(texts)):
                for _ in range(per_slot):
                    data = texts[slot].encode("ascii")
                    offset = rng.randrange(len(data))
                    byte = bytes([rng.randrange(0x80, 0x100)])
                    cut = offset + rng.randrange(2)
                    yield (verb, texts, slot,
                           data[:offset] + byte + data[cut:], offset)


class TestExitContract:
    def test_undecodable_bytes_in_each_slot(self, tmp_path, capsys,
                                            monkeypatch):
        """A byte that does not decode as UTF-8, in any document of any
        verb, is bad input naming the file and the byte's offset."""
        monkeypatch.delenv("CRJET_ORDER", raising=False)
        count = 0
        for case, (verb, texts, slot, data, offset) in enumerate(
                byte_corruption_cases(13, 2)):
            paths = [tmp_path / f"b{case}_{i}.crj"
                     for i in range(len(texts))]
            for path, text in zip(paths, texts):
                path.write_text(text, encoding="utf-8")
            paths[slot].write_bytes(data)
            flags = [EXIT_NEEDS[verb]] if verb in EXIT_NEEDS else []
            code, out, errtext = run(capsys, [verb, *map(str, paths),
                                              *flags])
            assert (code, out) == (2, ""), (verb, slot, data)
            assert errtext == (f"error: {paths[slot]}: byte "
                               f"0x{data[offset]:02x} at offset {offset} "
                               "is not valid UTF-8\n"), (verb, slot, data)
            count += 1
        assert count == 2 * 28

    def test_undecodable_rho_and_latin1_comment(self, docs, tmp_path,
                                                capsys):
        bad = tmp_path / "bad_rho.crj"
        bad.write_bytes(HEIS.encode().replace(b"Im(w)", b"Im(w)\xff"))
        code, out, errtext = run(capsys, ["analyze", str(bad)])
        assert (code, out) == (2, "")
        assert errtext == (f"error: {bad}: byte 0xff at offset 53 is not "
                           "valid UTF-8\n")
        latin1 = tmp_path / "latin1_map.crj"
        latin1.write_bytes(("# dilation, not the caf\u00e9 map\n"
                            + DILATION).encode("latin-1"))
        code, out, errtext = run(capsys, ["reflect", docs["heis"],
                                          docs["heis"], str(latin1)])
        assert (code, out) == (2, "")
        assert errtext == (f"error: {latin1}: byte 0xe9 at offset 23 is "
                           "not valid UTF-8\n")

    def test_seeded_inputs(self, tmp_path, capsys, monkeypatch):
        """Mutated documents, missing files and flag values."""
        monkeypatch.delenv("CRJET_ORDER", raising=False)
        codes = assert_exit_contract(tmp_path, capsys,
                                     exit_contract_cases(11, 30))
        assert len(codes) == 180
        assert set(codes) == {0, 1, 2}

    def test_expression_mutations(self, tmp_path, capsys, monkeypatch):
        """Edits inside expressions, the flags left valid."""
        monkeypatch.delenv("CRJET_ORDER", raising=False)
        codes = assert_exit_contract(tmp_path, capsys,
                                     expression_cases(12, 20))
        assert len(codes) == 120
        assert {0, 2} <= set(codes)

    def test_wrong_kind_in_each_position(self, docs, capsys):
        """A document of another kind in any argument position of any verb
        is bad input, and the message names that document."""
        kinds = {"hypersurface": docs["heis"], "map": docs["dilation"],
                 "system": docs["line_sys"], "jet": docs["line_jet"]}
        positions = {"analyze": ("hypersurface",),
                     "verify": ("hypersurface",),
                     "scan": ("hypersurface",), "aut": ("hypersurface",),
                     "reflect": ("hypersurface", "hypersurface", "map"),
                     "reconstruct": ("system", "jet")}
        checked = 0
        for verb, wanted in positions.items():
            flags = [EXIT_NEEDS[verb]] if verb in EXIT_NEEDS else []
            for i, kind in enumerate(wanted):
                for other, path in kinds.items():
                    if other == kind:
                        continue
                    paths = [kinds[k] for k in wanted]
                    paths[i] = path
                    code, out, errtext = run(capsys, [verb] + paths + flags)
                    assert (code, out) == (2, ""), (verb, i, other)
                    assert errtext.startswith(f"error: {path}: "), \
                        (verb, i, other, errtext)
                    checked += 1
        assert checked == 27


# the crjet modules a fresh process holds after running main on argv, or
# after importing main and loading the documents named after "load"
LOADED_MODULES = """\
import contextlib, io, sys
from crjet.cli.main import main
from crjet.cli.documents import load_document
if sys.argv[1] == "load":
    for path in sys.argv[2:]:
        load_document(path)
else:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(sys.argv[1:]) == 0
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "crjet")))
"""
CLI_MODULES = {"crjet", "crjet.series", "crjet.errors", "crjet.cli",
               "crjet.cli.main", "crjet.cli.documents", "crjet.cli.report"}


def loaded_modules(argv) -> set:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "CRJET_ORDER"}
    env["PYTHONPATH"] = src
    proc = subprocess.run([sys.executable, "-c", LOADED_MODULES, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


class TestStartupImports:
    """Each verb imports only the library modules it runs."""

    @pytest.mark.parametrize("verb, layers", [
        ("analyze", {"hypersurface", "linalg", "invariants"}),
        ("verify", {"hypersurface", "linalg", "invariants", "operators"}),
        ("scan", {"hypersurface", "linalg", "invariants"}),
        ("aut", {"hypersurface", "linalg", "autdim"}),
        ("reflect", {"hypersurface", "linalg", "invariants", "mappings"}),
        ("reconstruct", {"jets"})])
    def test_verb_loads_only_its_layers(self, docs, verb, layers):
        paths = {"reflect": ["heis", "heis", "dilation"],
                 "reconstruct": ["line_sys", "line_jet"]}.get(verb, ["heis"])
        flags = [EXIT_NEEDS[verb]] if verb in EXIT_NEEDS else []
        argv = [verb, *(docs[name] for name in paths), *flags]
        assert loaded_modules(argv) == CLI_MODULES | {
            f"crjet.{layer}" for layer in layers}

    @pytest.mark.parametrize("names, extra", [
        (["heis"], set()), (["dilation"], set()),
        (["line_sys", "line_jet"], {"crjet.jets"})])
    def test_loading_documents(self, docs, names, extra):
        argv = ["load", *(docs[name] for name in names)]
        assert loaded_modules(argv) == CLI_MODULES | extra
