"""Command-line driver: parse documents, run analyses, emit reports.

Verbs: analyze, verify, reflect, reconstruct, aut, scan.  Every verb
prints one canonical report (text, or JSON with --json) and exits 0 when
all requested verifications pass, 1 when some check fails, and 2 on bad
input.  The truncation order is taken from --order, then the document
(for reflect, the source, target and map documents, which must agree),
then the CRJET_ORDER environment variable, then a default.  The default
is the order the verb's results read: kmax+2 for analyze, whose
filtration reads words up to lmax = kmax+1, and max(kmax+2, degree of
rho) for scan and analyze --scan, which recentre the complete
polynomial.  verify, reflect and aut, whose suites check whole series up
to the order, keep 2*(kmax+2), with kmax = N - 1 for aut, and verify
takes at least N+1 when its filtration runs to lmax = N.  An error that
runs out of truncation order, and any refusal of aut's tangency problem,
names which of these set it.

Each verb imports only the library modules it runs, inside its runner:
at module level this driver, the document reader and the report writer
load the standard library, ``crjet.series`` and ``crjet.errors`` alone,
so a fresh process pays for compiling no layer it does not call
(``reconstruct`` loads ``crjet.jets`` and nothing else of the library).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import re
import sys
from fractions import Fraction

from ..errors import AutError, GeometryError, JetError, MappingError
from ..series import OrderExhausted, SeriesError
from .documents import (ParseError, build_hypersurface, build_jet,
                        build_map, build_system, degree_bound,
                        jet_coordinate_name, load_document)
from .report import SCHEMA_VERSION, emit

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
# extrinsic_k0 walk only the sorted words: analyze --kmax 16 on the C^3
# germ Im w = |z1|^4 (262143 ordered words, no k0 found) takes 0.3 s, and
# at its default bounds on the C^7 quadric (335923 words) 0.4 s.  verify's
# leading and commutators suites walk the ordered words on purpose, and
# the recursion suites the sorted ones; the ordered count bounds them all.
# It does not bound analyze's type scan, which brackets every CR field
# with every field of the previous level: on the C^3 germ
# Im w = Re(w)*(|z1|^2 + |z2|^2), analyze --kmax 5 / 6 / 7 takes about
# 0.3 / 0.4 / 0.3 s as a fresh process on a 2-core machine, but
# --kmax 10 about 27 s
MAX_CHAIN_WORDS = 400_000
# the same count for reflect, whose words each cost composed target entries
# at an order that grows with --kmax: at --kmax 8 on C^3 (1023 words) it
# takes about 0.2 s as a fresh process on a unit-Levi pair, most of it in
# the transport recursion and the target entries it composes
MAX_REFLECT_WORDS = 1_024
# most jet coefficients reconstruct --target-order T may expand: degree d
# reads every unknown's Taylor coefficients up to d - k - 1, which sums to
# m * C(q + k, q) * C(q + T - k, q + 1) over the degrees k + 1 to T.  The
# line system d11_f1 = 0 at T = 500 (249500 of them) takes about 0.5 s as
# a fresh process on a 2-core machine, and at T = 2000 about 5 s
MAX_TAYLOR_TERMS = 250_000
# most coefficient products the expansions of a rhs of degree 2 or more may
# form up to --target-order T.  At degree d a rhs entry of written degree
# D multiplies at least D - 1 pairs of series in q variables without
# constant term at order t = d - k - 1, each forming every pair of their
# terms of total degree at most t.  Summed over the degrees, an entry
# counts (D - 1) * (C(2q + T - k, 2q + 1) - 2 C(q + T - k, q + 1) + T - k).
# The quadratic line system d11_f1 = f1_1*f1_1 + x1*f1 counts 273819 products
# at T = 120 (about 0.6 s as a fresh process on a 2-core machine) and
# 497640 at T = 146, the most it may take (about 1 s); at T = 300 it would
# count 4410549 and take about 20 s
MAX_TAYLOR_PRODUCTS = 500_000


def _resolve_order(args, default, rule, *docs):
    """Truncation order of a verb; args.order_origin records where it came
    from, for the message of an error that runs out of order.

    docs are (origin, document) pairs.  Those that set an order must agree,
    and the first of them names the origin.  When nothing sets one, the
    order is default, named by its rule.
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
        order, origin = default, f"the default {rule}"
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


def _check_tree(rep) -> dict:
    return {"name": rep.name, "ok": rep.ok, "checked": rep.checked,
            "vacuous": rep.vacuous, "note": rep.note,
            "violations": len(rep.violations)}


def _operator_check(memo, m, degree):
    from ..invariants import CheckReport
    from ..operators import operator_certificates

    name = f"operator-certificates-m{m}"
    try:
        certs = operator_certificates(memo, m, verify_degree=degree)
    except GeometryError as exc:
        return CheckReport(name=name, ok=True, checked=0, vacuous=True,
                           note=str(exc))
    bad = tuple(c.target for c in certs if not c.verified)
    return CheckReport(name=name, ok=not bad, checked=len(certs),
                       violations=bad,
                       note=f"monomial basis degree {degree}")


_EXPONENT = re.compile(r"e[-+]?([\d_]+)", re.IGNORECASE)


def _check_exponents(spec, flag):
    """Refuse an exponent of more than the digits Python converts in the
    rationals of a flag value, before Fraction reads them: Fraction builds
    10^e arithmetically, past the limit that refuses a long plain literal,
    and Fraction('1e10000000') alone takes seconds."""
    limit = sys.get_int_max_str_digits()
    for match in _EXPONENT.finditer(spec):
        digits = match.group(1).replace("_", "").lstrip("0")
        if limit and (len(digits) > len(str(limit))
                      or int(digits or 0) > limit):
            raise ParseError(flag, None, 0,
                             f"exponent {match.group()!r} is more than "
                             f"{limit}, the most digits Python converts "
                             "(sys.get_int_max_str_digits())")


def _scan_points(spec, n):
    _check_exponents(spec, "--scan")
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
        entry = {"z": r.z, "s": r.s, "status": r.status}
        if r.status == "ok":
            entry["k0"] = r.k0
            entry["nondegenerate"] = r.nondegenerate
        points.append(entry)
    return {"k": report.k, "points": points,
            "nondegenerate_count": report.nondegenerate_count}


def _load(path, kind, verb):
    """The document at path, refused unless it is of the given kind."""
    doc = load_document(path)
    if doc.kind != kind:
        raise ParseError(doc.source, None, 0,
                         f"{verb} needs a {kind} document")
    return doc


def _scan_germ(args, doc, kmax):
    """The order and germ of a scan, which recentres rho at each point: the
    order covers rho's complete polynomial, and an explicit order below
    its degree is refused once the germ is built (an order too low for
    the germ itself fails there first)."""
    degree = degree_bound(doc.expression("rho"))
    order = _resolve_order(args, max(kmax + 2, degree),
                           "max(kmax+2, degree of rho)",
                           ("the document's order", doc))
    M = build_hypersurface(doc, order)
    if order < degree:
        line, col = doc.position("rho")
        raise ParseError(doc.source, line, col,
                         f"rho's terms reach degree {degree}, above "
                         f"{args.order_origin}; the scan recentres the "
                         "complete polynomial")
    return order, M


def _run_analyze(args):
    from ..hypersurface import build_frame
    from ..invariants import (extrinsic_k0, intrinsic_filtration,
                              nondegeneracy_scan)

    doc = _load(args.file, "hypersurface", "analyze")
    n = doc.scalar("N") - 1
    kmax = args.kmax if args.kmax is not None else n
    # the count runs to the filtration's lmax = kmax + 1
    _check_chain_words(n + 1, kmax + 1, _kmax_bound(args, kmax, True))
    points = None if args.scan is None else _scan_points(args.scan, n)
    if points is None:
        # the filtration reads frame order lmax, one below the germ's
        order = _resolve_order(args, kmax + 2, "kmax+2",
                               ("the document's order", doc))
        M = build_hypersurface(doc, order)
    else:
        order, M = _scan_germ(args, doc, kmax)
    F = build_frame(M)
    filt = intrinsic_filtration(F, kmax=kmax)
    ek0 = extrinsic_k0(M.rho, kmax)
    agree_k0 = filt.k0 == ek0
    agree_ell = filt.ell0 == filt.ell1
    passed = agree_k0 and agree_ell
    tree = {
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
    if points is not None:
        tree["scan"] = _scan_tree(nondegeneracy_scan(M, points, kmax))
    return tree, passed


def _run_verify(args):
    from ..hypersurface import build_frame
    from ..invariants import (intrinsic_filtration, verify_bracket_pairing,
                              verify_derivative_recursion,
                              verify_frame_structure,
                              verify_leading_order_reduction)
    from ..operators import CertificateMemo

    doc = _load(args.file, "hypersurface", "verify")
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
        if args.degree < 2:
            raise ParseError("--degree", None, 0,
                             f"--degree {args.degree} gives a basis of "
                             "degree below 2, which cannot see the "
                             "second-order coefficients of the m = 2 "
                             "operator certificates; the operators check "
                             "needs --degree 2 or more")
        size = math.comb(2 * n + 1 + args.degree, args.degree)
        if size > MAX_BASIS_MONOMIALS:
            raise ParseError("--degree", None, 0,
                             f"--degree {args.degree} needs {size} basis "
                             "monomials, more than MAX_BASIS_MONOMIALS = "
                             f"{MAX_BASIS_MONOMIALS}")
    kmax = args.kmax if args.kmax is not None else 1
    # the recursion suite reads chains up to kmax + 1, and the filtration
    # of the leading and commutator suites up to its default lmax = n + 1,
    # which needs germ order n + 2
    if "recursion" in tokens:
        _check_chain_words(n + 1, kmax + 1, _kmax_bound(args, kmax))
    default, rule = 2 * (kmax + 2), "2*(kmax+2)"
    if "leading" in tokens or "commutators" in tokens:
        _check_chain_words(n + 1, n + 1, f"lmax = N = {n + 1} of the "
                           "leading and commutator suites", doc.source)
        default, rule = max(default, n + 2), "max(2*(kmax+2), N+1)"
    order = _resolve_order(args, default, rule, ("the document's order", doc))
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
            # every application of a length-2 word is a suffix of a
            # length-3 one, so both lengths share one memo
            memo = CertificateMemo(F)
            for m in (2, 3):
                reports.append(_operator_check(memo, m, args.degree))
    passed = all(r.ok for r in reports)
    return {"model": {"N": M.N, "n": n, "order": order, "kmax": kmax},
            "checks": [_check_tree(r) for r in reports],
            "pass": passed}, passed


def _run_reflect(args):
    from ..hypersurface import build_frame
    from ..invariants import CheckReport
    from ..mappings import (Pullback, pushforward_data, solve_levi_reflection,
                            verify_reflection_base,
                            verify_transport_recursion)

    src_doc = _load(args.source, "hypersurface", "reflect")
    tgt_doc = _load(args.target, "hypersurface", "reflect")
    map_doc = _load(args.map, "map", "reflect")
    kmax = args.kmax if args.kmax is not None else 1
    # the recursion at level k reads target chains up to k + 1
    _check_chain_words(src_doc.scalar("N"), kmax + 1,
                       _kmax_bound(args, kmax), limit=MAX_REFLECT_WORDS,
                       name="MAX_REFLECT_WORDS")
    order = _resolve_order(args, 2 * (kmax + 2), "2*(kmax+2)",
                           ("the source document's order", src_doc),
                           ("the target document's order", tgt_doc),
                           ("the map document's order", map_doc))
    Ms = build_hypersurface(src_doc, order)
    Mt = build_hypersurface(tgt_doc, order)
    F = build_map(map_doc, Ms, Mt)
    Fs, Ft = build_frame(F.source), build_frame(F.target)
    data = pushforward_data(F, Fs, Ft)
    pull = Pullback(Fs, Ft, data.imap)

    reports = [verify_reflection_base(data, pull)]
    for k in range(1, kmax + 1):
        reports.append(verify_transport_recursion(data, pull, k))

    n = data.n
    try:
        gamma, eta = solve_levi_reflection(data.conjugated(), pull)
        wrong = tuple(("gamma", C, B) for C in range(n) for B in range(n)
                      if not gamma[C][B].agrees(data.gamma[C][B])) \
            + tuple(("eta", C) for C in range(n)
                    if not eta[C].agrees(data.eta[C]))
        reports.append(CheckReport(name="levi-reflection-roundtrip",
                                   ok=not wrong, checked=n * n + n,
                                   violations=wrong))
    except MappingError as exc:
        reports.append(CheckReport(name="levi-reflection-roundtrip",
                                   ok=True, checked=0, vacuous=True,
                                   note=str(exc)))

    passed = all(r.ok for r in reports)
    return {
        "order": order,
        "base_point": list(F.base_point),
        "xi0": data.xi.constant_term(),
        "eta0": [e.constant_term() for e in data.eta],
        "gamma0": [tuple(g.constant_term() for g in row)
                   for row in data.gamma],
        "checks": [_check_tree(r) for r in reports],
        "pass": passed,
    }, passed


def _parse_grid(specs, q):
    if len(specs) == 1:
        specs = specs * q
    if len(specs) != q:
        raise ParseError("--grid", None, 0,
                         f"need one spec or {q}, got {len(specs)}")
    grid, points = [], 1
    for spec in specs:
        _check_exponents(spec, "--grid")
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


def _check_taylor_terms(doc, target_order):
    """Refuse a --target-order whose expansions would read more than
    MAX_TAYLOR_TERMS jet coefficients or, for a rhs of degree 2 or more,
    form more than MAX_TAYLOR_PRODUCTS coefficient products, both counted
    from the system document."""
    q, m, k = doc.scalar("axes"), doc.scalar("components"), \
        doc.scalar("jet_order")
    n = max(target_order - k, 0)
    count = m * math.comb(q + k, q) * math.comb(q + n, q + 1)
    if count > MAX_TAYLOR_TERMS:
        raise ParseError("--target-order", None, 0,
                         f"--target-order {target_order} expands more than "
                         f"MAX_TAYLOR_TERMS = {MAX_TAYLOR_TERMS} jet "
                         f"coefficients of a system with axes = {q}, "
                         f"components = {m} and jet_order = {k}")
    degrees = [degree_bound(node) for _, node in doc.expressions]
    products = sum(max(d - 1, 0) for d in degrees) * (
        math.comb(2 * q + n, 2 * q + 1) - 2 * math.comb(q + n, q + 1) + n)
    if products > MAX_TAYLOR_PRODUCTS:
        raise ParseError("--target-order", None, 0,
                         f"--target-order {target_order} forms more than "
                         f"MAX_TAYLOR_PRODUCTS = {MAX_TAYLOR_PRODUCTS} "
                         "coefficient products in the expansions of a "
                         f"system with axes = {q}, components = {m}, "
                         f"jet_order = {k} and rhs degree {max(degrees)}")


def _run_reconstruct(args):
    from ..jets import integrate, taylor_propagate

    system_doc = _load(args.system, "system", "reconstruct")
    jet_doc = _load(args.jet, "jet", "reconstruct")
    if args.target_order is not None:
        _check_taylor_terms(system_doc, args.target_order)
    S = build_system(system_doc)
    jet = build_jet(jet_doc)
    if args.target_order is None and not args.grid:
        raise ParseError(args.system, None, 0,
                         "nothing to do: give --target-order and/or --grid")
    tree = {
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
    # 10 ** MAX_RHO_DIGITS has this many bits, and only an integer of as
    # many bits is compared with it exactly: the power alone takes about
    # 0.1 ms to build
    bits = int(MAX_RHO_DIGITS * math.log2(10)) + 1

    def too_long(x):
        size = abs(x).bit_length()
        return size > bits or (size == bits
                               and abs(x) >= 10 ** MAX_RHO_DIGITS)

    if too_long(den) or any(too_long(re) or too_long(im)
                            for _, (re, im) in items):
        line, col = doc.position("rho")
        raise ParseError(doc.source, line, col,
                         "the normalized rho's exact coefficients need more "
                         f"than MAX_RHO_DIGITS = {MAX_RHO_DIGITS} decimal "
                         "digits; aut's elimination cost grows with them")


def _run_aut(args):
    from ..autdim import aut_bound, infinitesimal_aut_dim, tangency_unknowns

    doc = _load(args.file, "hypersurface", "aut")
    n = doc.scalar("N") - 1
    weights = None
    if args.weights is not None:
        try:
            weights = tuple(int(t) for t in args.weights.split(","))
        except ValueError:
            raise ParseError("--weights", None, 0,
                             f"expected comma-separated integers, "
                             f"got {args.weights!r}")
    count = tangency_unknowns(n + 1, args.degree, weights,
                              MAX_TANGENCY_UNKNOWNS)
    if count > MAX_TANGENCY_UNKNOWNS:
        limit = f"MAX_TANGENCY_UNKNOWNS = {MAX_TANGENCY_UNKNOWNS}"
        if weights:
            need = (f"--degree {args.degree} with --weights {args.weights} "
                    f"needs more than {limit} real tangency unknowns")
        else:
            need = (f"--degree {args.degree} needs {count} real tangency "
                    f"unknowns, more than {limit}")
        raise ParseError("--degree", None, 0, need)
    order = _resolve_order(args, 2 * (n + 2), "2*(kmax+2)",
                           ("the document's order", doc))
    use_order = order - 1
    M = build_hypersurface(doc, order)
    _check_rho_digits(doc, M)
    aut = infinitesimal_aut_dim(M, args.degree, use_order, weights)
    bound = aut_bound(M.N)
    passed = aut.solution_dim <= bound
    return {
        "model": {"N": M.N, "n": M.n, "order": order},
        "degree": args.degree,
        "tangency_order": use_order,
        "weights": list(weights) if weights else "none",
        "bound": bound,
        "holomorphic": {"dim": aut.holomorphic_dim,
                        "note": aut.holomorphic_note},
        "real": {"dim": aut.solution_dim, "note": aut.note},
        "inequality": "satisfied" if passed else "violated",
        "pass": passed,
    }, passed


def _run_scan(args):
    from ..invariants import nondegeneracy_scan

    doc = _load(args.file, "hypersurface", "scan")
    n = doc.scalar("N") - 1
    kmax = args.kmax if args.kmax is not None else n
    _check_chain_words(n + 1, kmax, _kmax_bound(args, kmax, True))
    points = _scan_points(args.scan, n)
    order, M = _scan_germ(args, doc, kmax)
    report = nondegeneracy_scan(M, points, kmax)
    return {"model": {"N": M.N, "n": M.n, "order": order},
            "scan": _scan_tree(report), "pass": True}, True


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

    def common(sp, order=True):
        if order:
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
                    help="monomial basis degree for operator certificates, "
                    "at least 2")
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
    common(sp, order=False)

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
        body, passed = _RUNNERS[args.verb](args)
    except (ParseError, SeriesError, GeometryError, MappingError,
            JetError, AutError, OSError) as exc:
        message = str(exc)
        if isinstance(exc, (OrderExhausted, AutError)) and hasattr(
                args, "order_origin"):
            message += f" ({args.order_origin})"
        print(f"error: {message}", file=sys.stderr)
        return 2
    try:
        text = emit({"schema_version": SCHEMA_VERSION, "verb": args.verb,
                     **body}, args.json)
    except ValueError:  # str() refuses an int of too many digits
        print("error: a report value has a numerator or denominator of more "
              f"than {sys.get_int_max_str_digits()} digits, the most Python "
              "prints (sys.get_int_max_str_digits())", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
