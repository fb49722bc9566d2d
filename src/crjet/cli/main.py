"""Command-line driver: parse documents, run analyses, emit reports.

Verbs: analyze, verify, reflect, reconstruct, aut, scan.  Every verb
prints one canonical report (text, or JSON with --json) and exits 0 when
all requested verifications pass, 1 when some check fails, and 2 on bad
input.  The truncation order is taken from --order, then the document
(for reflect, the source, target and map documents, which must agree),
then the CRJET_ORDER environment variable, then the default 2*(kmax+2);
an error that runs out of truncation order names which of these set it.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys
from fractions import Fraction

from ..autdim import (AutError, _holo_exponents, aut_bound,
                      holomorphic_degeneracy_test, infinitesimal_aut_dim,
                      tangency_restrictions, tangency_terms)
from ..hypersurface import GeometryError, build_frame
from ..invariants import (CheckReport, extrinsic_k0, intrinsic_filtration,
                          nondegeneracy_scan, verify_bracket_pairing,
                          verify_derivative_recursion,
                          verify_frame_structure,
                          verify_leading_order_reduction)
from ..jets import JetError, integrate, taylor_propagate
from ..mappings import (MappingError, _Pullback, pushforward_data,
                        solve_levi_reflection, verify_reflection_base,
                        verify_transport_recursion)
from ..operators import operator_certificates
from ..series import OrderExhausted, SeriesError
from .documents import (ParseError, build_hypersurface, build_jet,
                        build_map, build_system, jet_coordinate_name,
                        load_document)
from .report import SCHEMA_VERSION, emit, scalar_text

CHECK_TOKENS = ("frame", "recursion", "leading", "commutators", "operators")
# most points one reconstruct grid may tabulate; every point is built
# eagerly and printed
MAX_GRID_POINTS = 100_000
# most monomials one operator-certificate basis may hold: verify --degree D
# on C^N acts on C(2N - 1 + D, D) monomials, all kept alive for the call
MAX_BASIS_MONOMIALS = 5_000
# most real unknowns one aut call may solve for: aut --degree D on C^N has
# 2N * C(N + D, D) of them, and every restriction and equation row is kept
# alive for the call.  The C^4 quadric at --degree 9 --order 14 (5720
# unknowns) takes about 4 s and 90 MB; at --degree 11 (10920) 10 s and
# 200 MB
MAX_TANGENCY_UNKNOWNS = 6_000
# most graph terms aut's tangency restrictions may hold up to the tangency
# order, bounded by autdim.tangency_terms from supports once the model is
# built: the order drives the cost as much as the unknowns do.  A generic
# C^3 germ at --degree 10 --order 14 (1716 unknowns, 62370 terms) takes
# about 16 s and 116 MB; the C^4 quadric at --degree 9 --order 14 (32064
# terms) 4 s, and the C^5 quadric at --degree 3 and the default order 12
# (1100 terms) 0.4 s
MAX_TANGENCY_TERMS = 50_000
# most decimal digits of any integer in the normalized rho's exact
# coefficients (their common denominator and every numerator part),
# checked once the model is built and before aut eliminates: elimination
# cost grows with coefficient size.  The cubic C^3 model with its
# Re(z1^2 zb2) term scaled by ((2/3)^100)^200 (9543 digits) takes about
# 1.7 s at the default bounds, and scaled by ((2/3)^255)^257 (31269
# digits) about 15 s
MAX_RHO_DIGITS = 10_000
# most ordered index words one enumeration may reach: every word of length
# 0 to L over n = N - 1 indices, sum n^k of them.  The filtration and
# extrinsic_k0 walk only the sorted words, so analyze and scan stay well
# under a second at the limit: analyze --kmax 16 on the C^3 germ
# Im w = |z1|^4 (262143 ordered words, no k0 found) takes 0.3 s, and at
# its default bounds on the C^7 quadric (335923 words) 0.4 s.  The verify
# suites still walk the ordered words, and this count guards them
MAX_CHAIN_WORDS = 400_000
# the same count for reflect, whose words each cost composed target entries
# at an order that grows with --kmax: at --kmax 8 on C^3 (1023 words) it
# takes 19 s on a unit-Levi pair
MAX_REFLECT_WORDS = 1_024


def _resolve_order(args, kmax, *docs):
    """Truncation order of a verb; args.order_origin records where it came
    from, for the message of an error that runs out of order.

    docs are (origin, document) pairs.  Those that set an order must agree,
    and the first of them names the origin.
    """
    ordered = [(origin, doc) for origin, doc in docs
               if doc.scalar("order") is not None]
    if args.order is not None:
        order, origin = args.order, "--order"
    elif ordered:
        origin, first = ordered[0]
        order = first.scalar("order")
        for _, doc in ordered[1:]:
            if doc.scalar("order") != order:
                line, col = doc.position("order")
                raise ParseError(doc.source, line, col,
                                 f"order {doc.scalar('order')} disagrees "
                                 f"with order {order} of {first.source}")
    elif "CRJET_ORDER" in os.environ:
        env = os.environ["CRJET_ORDER"]
        try:
            order, origin = int(env), "CRJET_ORDER"
        except ValueError:
            raise ParseError("CRJET_ORDER", None, 0,
                             f"not an integer: {env!r}")
        if order < 0:
            raise ParseError("CRJET_ORDER", None, 0,
                             f"must be non-negative, got {order}")
    else:
        order, origin = 2 * (kmax + 2), "the default 2*(kmax+2)"
    args.order_origin = f"truncation order {order} from {origin}"
    return order


def _check_chain_words(N, length, bound, source="--kmax",
                       limit=MAX_CHAIN_WORDS, name="MAX_CHAIN_WORDS"):
    """Refuse a run that enumerates the ordered index words of lengths 0
    to length over N - 1 indices when they number more than limit; bound
    names the option or default that set length, and source is where the
    error points."""
    n = N - 1
    count, level = 0, 1
    for _ in range(length + 1):
        count += level
        if count > limit:
            raise ParseError(source, None, 0,
                             f"{bound} on C^{N} needs more than {name} = "
                             f"{limit} ordered index words")
        level *= n


def _kmax_bound(args, kmax, from_n=False):
    """How the message of a refused word count names kmax; from_n marks a
    default of N - 1."""
    if args.kmax is not None:
        return f"--kmax {kmax}"
    return f"the default --kmax {kmax}" + (" = N - 1" if from_n else "")


def _tangency_unknowns(N, degree, weights):
    """Real unknowns of aut's tangency problems, counted without building
    them; a weighted count stops once it passes MAX_TANGENCY_UNKNOWNS."""
    if weights is None:
        return 2 * N * math.comb(N + degree, degree)
    count = 0
    for j in range(N):
        for _ in _holo_exponents(N, degree, weights, j):
            count += 2
            if count > MAX_TANGENCY_UNKNOWNS:
                return count
    return count


def _check_tree(rep: CheckReport) -> dict:
    return {"name": rep.name, "ok": rep.ok, "checked": rep.checked,
            "vacuous": rep.vacuous, "note": rep.note,
            "violations": len(rep.violations)}


def _operator_check(F, m, degree) -> CheckReport:
    name = f"operator-certificates-m{m}"
    try:
        certs = operator_certificates(F, m, verify_degree=degree)
    except GeometryError as exc:
        return CheckReport(name=name, ok=True, checked=0, vacuous=True,
                           note=str(exc))
    bad = tuple(c.target for c in certs if not c.verified)
    return CheckReport(name=name, ok=not bad, checked=len(certs),
                       violations=bad,
                       note=f"monomial basis degree {degree}")


def _scan_points(spec, n):
    try:
        values = [Fraction(tok) for tok in spec.split(",") if tok.strip()]
    except (ValueError, ZeroDivisionError):
        raise ParseError("--scan", None, 0,
                         f"expected comma-separated rationals, got {spec!r}")
    if not values:
        raise ParseError("--scan", None, 0, "empty grid")
    return [(z, 0) for z in itertools.product(values, repeat=n)]


def _scan_tree(report) -> dict:
    points = []
    for r in report.results:
        entry = {"z": "(" + ", ".join(v.render() for v in r.z) + ")",
                 "s": r.s, "status": r.status}
        if r.status == "ok":
            entry["k0"] = r.k0
            entry["nondegenerate"] = r.nondegenerate
        points.append(entry)
    return {"k": report.k, "points": points,
            "nondegenerate_count": report.nondegenerate_count}


def _load_model(args, kind_error):
    doc = load_document(args.file)
    if doc.kind != "hypersurface":
        raise ParseError(doc.source, None, 0, kind_error)
    return doc


def _run_analyze(args):
    doc = _load_model(args, "analyze needs a hypersurface document")
    n = doc.scalar("N") - 1
    kmax = args.kmax if args.kmax is not None else n
    # the count runs to the filtration's lmax = kmax + 1
    _check_chain_words(n + 1, kmax + 1, _kmax_bound(args, kmax, True))
    order = _resolve_order(args, kmax, ("the document's order", doc))
    M = build_hypersurface(doc, order)
    F = build_frame(M)
    filt = intrinsic_filtration(F, kmax=kmax)
    ek0 = extrinsic_k0(M, kmax)
    agree_k0 = filt.k0 == ek0
    agree_ell = filt.ell0 == filt.ell1
    passed = agree_k0 and agree_ell
    tree = {
        "schema_version": SCHEMA_VERSION,
        "verb": "analyze",
        "model": {"N": M.N, "n": M.n, "order": order, "kmax": kmax,
                  "lmax": filt.lmax, "typemax": filt.typemax},
        "filtration": {
            "k0": filt.k0,
            "Ek_dims": list(filt.Ek_dims),
            "Fk_dims": list(filt.Fk_dims),
            "rk": list(filt.rk),
            "levi_rank": filt.levi_rank,
            "ell0": filt.ell0,
            "ell1": filt.ell1,
            "type": filt.m0,
        },
        "extrinsic_k0": ek0,
        "agreement": {"k0_paths": agree_k0, "ell0_ell1": agree_ell},
        "pass": passed,
    }
    if args.scan is not None:
        tree["scan"] = _scan_tree(
            nondegeneracy_scan(M, _scan_points(args.scan, M.n), kmax))
    return tree, passed


def _run_verify(args):
    doc = _load_model(args, "verify needs a hypersurface document")
    n = doc.scalar("N") - 1
    tokens = [t.strip() for t in args.check.split(",") if t.strip()]
    if not tokens:
        raise ParseError("--check", None, 0,
                         f"no check given; choose from "
                         f"{', '.join(CHECK_TOKENS)}")
    for t in tokens:
        if t not in CHECK_TOKENS:
            raise ParseError("--check", None, 0,
                             f"unknown check {t!r}; choose from "
                             f"{', '.join(CHECK_TOKENS)}")
    if "operators" in tokens:
        size = math.comb(2 * n + 1 + args.degree, args.degree)
        if size > MAX_BASIS_MONOMIALS:
            raise ParseError("--degree", None, 0,
                             f"--degree {args.degree} needs {size} basis "
                             "monomials, more than MAX_BASIS_MONOMIALS = "
                             f"{MAX_BASIS_MONOMIALS}")
    kmax = args.kmax if args.kmax is not None else 1
    # the recursion suite reads chains up to kmax + 1, and the filtration
    # of the leading and commutator suites up to its default lmax = n + 1
    if "recursion" in tokens:
        _check_chain_words(n + 1, kmax + 1, _kmax_bound(args, kmax))
    if "leading" in tokens or "commutators" in tokens:
        _check_chain_words(n + 1, n + 1, f"lmax = N = {n + 1} of the "
                           "leading and commutator suites", doc.source)
    order = _resolve_order(args, kmax, ("the document's order", doc))
    M = build_hypersurface(doc, order)
    F = build_frame(M)
    reports = []
    filt = None
    for t in tokens:
        if t == "frame":
            reports.append(verify_frame_structure(F))
        elif t == "recursion":
            reports.append(verify_derivative_recursion(F, kmax))
        elif t in ("leading", "commutators"):
            if filt is None:
                filt = intrinsic_filtration(F)
            check = verify_leading_order_reduction if t == "leading" \
                else verify_bracket_pairing
            reports.append(check(F, filtration=filt))
        else:
            for m in (2, 3):
                reports.append(_operator_check(F, m, args.degree))
    passed = all(r.ok for r in reports)
    tree = {
        "schema_version": SCHEMA_VERSION,
        "verb": "verify",
        "model": {"N": M.N, "n": n, "order": order, "kmax": kmax},
        "checks": [_check_tree(r) for r in reports],
        "pass": passed,
    }
    return tree, passed


def _run_reflect(args):
    src_doc = load_document(args.source)
    tgt_doc = load_document(args.target)
    map_doc = load_document(args.map)
    for doc in (src_doc, tgt_doc):
        if doc.kind != "hypersurface":
            raise ParseError(doc.source, None, 0,
                             "reflect needs two hypersurface documents")
    if map_doc.kind != "map":
        raise ParseError(map_doc.source, None, 0,
                         "reflect needs a map document")
    kmax = args.kmax if args.kmax is not None else 1
    # the recursion at level k reads target chains up to k + 1
    _check_chain_words(src_doc.scalar("N"), kmax + 1,
                       _kmax_bound(args, kmax), limit=MAX_REFLECT_WORDS,
                       name="MAX_REFLECT_WORDS")
    order = _resolve_order(args, kmax,
                           ("the source document's order", src_doc),
                           ("the target document's order", tgt_doc),
                           ("the map document's order", map_doc))
    Ms = build_hypersurface(src_doc, order)
    Mt = build_hypersurface(tgt_doc, order)
    F = build_map(map_doc, Ms, Mt)
    Fs, Ft = build_frame(F.source), build_frame(F.target)
    data = pushforward_data(F, Fs, Ft)
    pull = _Pullback(Fs, Ft, data.imap)

    reports = [verify_reflection_base(data, pull)]
    for k in range(1, kmax + 1):
        reports.append(verify_transport_recursion(data, pull, k))

    n = data.n
    try:
        gamma, eta = solve_levi_reflection(data.conjugated(), pull)
        exact = all(gamma[C][B].agrees(data.gamma[C][B])
                    for C in range(n) for B in range(n)) \
            and all(eta[C].agrees(data.eta[C]) for C in range(n))
        reports.append(CheckReport(name="levi-reflection-roundtrip",
                                   ok=exact, checked=n * n + n))
    except MappingError as exc:
        reports.append(CheckReport(name="levi-reflection-roundtrip",
                                   ok=True, checked=0, vacuous=True,
                                   note=str(exc)))

    passed = all(r.ok for r in reports)
    tree = {
        "schema_version": SCHEMA_VERSION,
        "verb": "reflect",
        "order": order,
        "base_point": [scalar_text(v) for v in F.base_point],
        "xi0": data.xi.constant_term(),
        "eta0": [e.constant_term() for e in data.eta],
        "gamma0": ["(" + ", ".join(
            data.gamma[A][B].constant_term().render()
            for B in range(n)) + ")" for A in range(n)],
        "checks": [_check_tree(r) for r in reports],
        "pass": passed,
    }
    return tree, passed


def _parse_grid(specs, q):
    if len(specs) == 1:
        specs = specs * q
    if len(specs) != q:
        raise ParseError("--grid", None, 0,
                         f"need one spec or {q}, got {len(specs)}")
    grid, points = [], 1
    for spec in specs:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ParseError("--grid", None, 0,
                             f"expected lo:hi:count, got {spec!r}")
        try:
            lo, hi, count = Fraction(parts[0]), Fraction(parts[1]), \
                int(parts[2])
        except (ValueError, ZeroDivisionError):
            raise ParseError("--grid", None, 0,
                             f"expected lo:hi:count, got {spec!r}")
        if count < 1 or hi < lo:
            raise ParseError("--grid", None, 0,
                             f"bad grid range {spec!r}")
        points *= count
        if points > MAX_GRID_POINTS:
            raise ParseError("--grid", None, 0,
                             "more than MAX_GRID_POINTS = "
                             f"{MAX_GRID_POINTS} grid points")
        if count == 1:
            grid.append([lo])
        else:
            step = (hi - lo) / (count - 1)
            grid.append([lo + step * i for i in range(count)])
    return grid


def _run_reconstruct(args):
    system_doc = load_document(args.system)
    jet_doc = load_document(args.jet)
    S = build_system(system_doc)
    jet = build_jet(jet_doc)
    if args.target_order is None and not args.grid:
        raise ParseError(args.system, None, 0,
                         "nothing to do: give --target-order and/or --grid")
    tree = {
        "schema_version": SCHEMA_VERSION,
        "verb": "reconstruct",
        "system": {"axes": S.q, "components": S.m, "jet_order": S.k},
        "pass": True,
    }
    if args.target_order is not None:
        grown = taylor_propagate(S, jet, args.target_order)
        tree["jet"] = {jet_coordinate_name(i, beta): value
                       for (i, beta), value in grown.values.items()}
        tree["target_order"] = args.target_order
    if args.grid:
        axis_order = None
        if args.axis_order is not None:
            axis_order = []
            for tok in args.axis_order.split(","):
                try:
                    axis_order.append(int(tok) - 1)
                except ValueError:
                    raise ParseError("--axis-order", None, 0,
                                     f"not an axis number: {tok!r}")
        result = integrate(S, jet, _parse_grid(args.grid, S.q), args.step,
                           axis_order=axis_order)
        tree["grid"] = {
            "step": result.step,
            "axis_order": [a + 1 for a in result.axis_order],
            "points": {
                "(" + ", ".join(repr(c) for c in coords) + ")": list(vals)
                for coords, vals in result.values.items()},
        }
    return tree, True


def _check_rho_digits(doc, M):
    """Refuse a model whose normalized rho holds an integer of more than
    MAX_RHO_DIGITS decimal digits."""
    den, items = M.rho.numerators()
    limit = 10 ** MAX_RHO_DIGITS
    if den >= limit or any(abs(re) >= limit or abs(im) >= limit
                           for _, (re, im) in items):
        line, col = doc.position("rho")
        raise ParseError(doc.source, line, col,
                         "the normalized rho's exact coefficients need more "
                         f"than MAX_RHO_DIGITS = {MAX_RHO_DIGITS} decimal "
                         "digits; aut's elimination cost grows with them")


def _run_aut(args):
    doc = _load_model(args, "aut needs a hypersurface document")
    n = doc.scalar("N") - 1
    weights = None
    if args.weights is not None:
        try:
            weights = tuple(int(t) for t in args.weights.split(","))
        except ValueError:
            raise ParseError("--weights", None, 0,
                             f"expected comma-separated integers, "
                             f"got {args.weights!r}")
    count = _tangency_unknowns(n + 1, args.degree, weights)
    if count > MAX_TANGENCY_UNKNOWNS:
        limit = f"MAX_TANGENCY_UNKNOWNS = {MAX_TANGENCY_UNKNOWNS}"
        if weights:
            need = (f"--degree {args.degree} with --weights {args.weights} "
                    f"needs more than {limit} real tangency unknowns")
        else:
            need = (f"--degree {args.degree} needs {count} real tangency "
                    f"unknowns, more than {limit}")
        raise ParseError("--degree", None, 0, need)
    order = _resolve_order(args, n, ("the document's order", doc))
    use_order = order - 1
    M = build_hypersurface(doc, order)
    _check_rho_digits(doc, M)
    # a restriction holds at most every chart monomial up to the tangency
    # order, so only a run that could pass the budget counts its terms
    dense = count // 2 * math.comb(2 * n + 1 + max(use_order, 0), 2 * n + 1)
    if dense > MAX_TANGENCY_TERMS and tangency_terms(
            M, args.degree, use_order, weights,
            MAX_TANGENCY_TERMS) > MAX_TANGENCY_TERMS:
        raise ParseError("--order", None, 0,
                         f"--degree {args.degree} at tangency order "
                         f"{use_order} needs more than MAX_TANGENCY_TERMS = "
                         f"{MAX_TANGENCY_TERMS} restricted tangency terms "
                         f"({args.order_origin}); lower the truncation "
                         "order or --degree")
    shared = tangency_restrictions(M, args.degree, use_order, weights)
    hol = holomorphic_degeneracy_test(M, args.degree, use_order, weights,
                                      shared)
    real = infinitesimal_aut_dim(M, args.degree, use_order, weights, shared)
    bound = aut_bound(M.N)
    passed = real.solution_dim <= bound
    tree = {
        "schema_version": SCHEMA_VERSION,
        "verb": "aut",
        "model": {"N": M.N, "n": M.n, "order": order},
        "degree": args.degree,
        "tangency_order": use_order,
        "weights": list(weights) if weights else "none",
        "bound": bound,
        "holomorphic": {"dim": hol.solution_dim, "note": hol.note},
        "real": {"dim": real.solution_dim, "note": real.note},
        "inequality": "satisfied" if passed else "violated",
        "pass": passed,
    }
    return tree, passed


def _run_scan(args):
    doc = _load_model(args, "scan needs a hypersurface document")
    n = doc.scalar("N") - 1
    kmax = args.kmax if args.kmax is not None else n
    _check_chain_words(n + 1, kmax, _kmax_bound(args, kmax, True))
    order = _resolve_order(args, kmax, ("the document's order", doc))
    M = build_hypersurface(doc, order)
    report = nondegeneracy_scan(M, _scan_points(args.scan, M.n), kmax)
    tree = {
        "schema_version": SCHEMA_VERSION,
        "verb": "scan",
        "model": {"N": M.N, "n": M.n, "order": order},
        "scan": _scan_tree(report),
        "pass": True,
    }
    return tree, True


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing leaves it unchanged,
    since every call fills a fresh namespace and an append action copies
    its default list before appending."""
    parser = argparse.ArgumentParser(
        prog="crjet",
        description="Exact computations on real-analytic hypersurface "
                    "germs: invariants, mapping transport, jet systems, "
                    "symmetry dimensions.")
    subs = parser.add_subparsers(dest="verb", required=True)

    def common(sp):
        sp.add_argument("--order", type=int, default=None,
                        help="truncation order override")
        sp.add_argument("--json", action="store_true",
                        help="emit the JSON form of the report")

    sp = subs.add_parser("analyze", help="nondegeneracy invariants")
    sp.add_argument("file")
    sp.add_argument("--kmax", type=int, default=None)
    sp.add_argument("--scan", default=None,
                    help="comma-separated rational grid values")
    common(sp)

    sp = subs.add_parser("verify", help="identity residual checks")
    sp.add_argument("file")
    sp.add_argument("--check", default=",".join(CHECK_TOKENS))
    sp.add_argument("--kmax", type=int, default=None)
    sp.add_argument("--degree", type=int, default=2,
                    help="monomial basis degree for operator certificates")
    common(sp)

    sp = subs.add_parser("reflect", help="mapping transport residuals")
    sp.add_argument("source")
    sp.add_argument("target")
    sp.add_argument("map")
    sp.add_argument("--kmax", type=int, default=None)
    common(sp)

    sp = subs.add_parser("reconstruct", help="rebuild a map from its jet")
    sp.add_argument("system")
    sp.add_argument("jet")
    sp.add_argument("--target-order", type=int, default=None)
    sp.add_argument("--grid", action="append", default=[],
                    help="lo:hi:count, once or per axis")
    sp.add_argument("--step", type=float, default=1e-3)
    sp.add_argument("--axis-order", default=None)
    common(sp)

    sp = subs.add_parser("aut", help="tangent-field dimensions and bound")
    sp.add_argument("file")
    sp.add_argument("--degree", type=int, default=2)
    sp.add_argument("--weights", default=None,
                    help="comma-separated positive weights per variable")
    common(sp)

    sp = subs.add_parser("scan", help="pointwise nondegeneracy scan")
    sp.add_argument("file")
    sp.add_argument("--scan", required=True,
                    help="comma-separated rational grid values")
    sp.add_argument("--kmax", type=int, default=None)
    common(sp)
    return parser


_RUNNERS = {
    "analyze": _run_analyze,
    "verify": _run_verify,
    "reflect": _run_reflect,
    "reconstruct": _run_reconstruct,
    "aut": _run_aut,
    "scan": _run_scan,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag in ("kmax", "degree", "target_order", "order"):
            value = getattr(args, flag, None)
            if value is not None and value < 0:
                raise ParseError("--" + flag.replace("_", "-"), None, 0,
                                 f"must be non-negative, got {value}")
        tree, passed = _RUNNERS[args.verb](args)
    except (ParseError, SeriesError, GeometryError, MappingError,
            JetError, AutError, OSError) as exc:
        message = str(exc)
        if isinstance(exc, OrderExhausted) and hasattr(args, "order_origin"):
            message += f" ({args.order_origin})"
        print(f"error: {message}", file=sys.stderr)
        return 2
    try:
        text = emit(tree, args.json)
    except ValueError:  # str() refuses an int of too many digits
        print("error: a report value has a numerator or denominator of more "
              f"than {sys.get_int_max_str_digits()} digits, the most Python "
              "prints (sys.get_int_max_str_digits())", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
