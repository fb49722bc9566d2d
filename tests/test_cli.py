"""Command-line layer: grammar positions, document round-trips, verbs."""

import json
from fractions import Fraction

import pytest

from crjet.cli.documents import (ParseError, build_hypersurface, build_jet,
                                 build_map, build_system, degree_bound,
                                 parse_document, render_expr,
                                 serialize_document)
from crjet.cli.main import main
from crjet.hypersurface import from_defining
from crjet.jets import taylor_propagate
from crjet.series import CScalar
from tests.conftest import heis, m3_rho

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


@pytest.fixture()
def docs(tmp_path, monkeypatch):
    monkeypatch.delenv("CRJET_ORDER", raising=False)
    paths = {}
    for name, text in [("heis", HEIS), ("m2", M2), ("m3", M3),
                       ("plane", PLANE), ("dilation", DILATION),
                       ("line_sys", SYSTEM_LINE), ("line_jet", JET_LINE)]:
        p = tmp_path / f"{name}.crj"
        p.write_text(text, encoding="utf-8")
        paths[name] = str(p)
    return paths


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerbs:
    def test_analyze_quadric(self, docs, capsys):
        code, out, _ = run(capsys, ["analyze", docs["heis"]])
        assert code == 0
        assert "schema_version: 1" in out
        assert "k0: 1" in out
        assert "type: 2" in out
        assert "levi_rank: 1" in out
        assert "order: 6" in out       # default 2*(kmax+2) with kmax=n=1
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

    def test_verify_vacuous_certificates(self, docs, capsys):
        # no Levi pivot at the origin: certificate batches degrade to
        # vacuous passes instead of inventing operators
        code, out, _ = run(capsys, ["verify", docs["m2"],
                                    "--check", "operators"])
        assert code == 0
        assert "vacuous: true" in out

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

    def test_reconstruct_needs_a_request(self, docs, capsys):
        code, _, errtext = run(capsys, ["reconstruct", docs["line_sys"],
                                        docs["line_jet"]])
        assert code == 2
        assert "nothing to do" in errtext

    def test_aut_quadric(self, docs, capsys):
        code, out, _ = run(capsys, ["aut", docs["heis"], "--degree", "2",
                                    "--weights", "1,2", "--order", "9"])
        assert code == 0
        assert "bound: 30" in out
        assert "dim: 8" in out
        assert "dim: 0" in out         # no holomorphic degeneracy evidence
        assert "inequality: satisfied" in out

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

    @pytest.mark.parametrize("verb, flag", [
        ("analyze", "--kmax"), ("scan", "--kmax"), ("verify", "--kmax"),
        ("verify", "--degree"), ("reflect", "--kmax"), ("aut", "--degree"),
    ])
    def test_negative_bound_is_bad_input(self, docs, capsys, verb, flag):
        files = {"reflect": [docs["heis"], docs["heis"], docs["dilation"]],
                 "scan": [docs["heis"], "--scan", "0"]}
        argv = [verb] + files.get(verb, [docs["heis"]]) + [flag, "-1"]
        code, out, errtext = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert f"{flag}: must be non-negative, got -1" in errtext
