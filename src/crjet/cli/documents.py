"""Input files for the command-line front end.

A document is a line-based list of `key = value` declarations with `#`
comments.  Values are either small integers or expressions over the
variables of the document's chart: z1..zn and w for hypersurfaces and
maps, jet coordinates f<j>, f<j>_<axes> and positions x1..xq for systems
and jets.  Expressions use rational literals p/q, the operators + - * ^,
parentheses, and (in hypersurface documents only) conj, Re and Im.  Every
syntax error carries the source name with a line and column.

Parsed expressions are plain nested tuples, so documents compare
structurally.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from ..hypersurface import Hypersurface, ambient_pairing, ambient_var, \
    from_defining
from ..jets import CompleteSystem, JetVector, multi_indices, unknown_layout
from ..mappings import AmbientMap
from ..series import CScalar, TruncatedSeries

KINDS = ("hypersurface", "jet", "map", "system")
FUNCTIONS = ("Im", "Re", "conj")
HALF = Fraction(1, 2)
# deepest nesting of parentheses, function calls and signs in one
# expression: each level costs the recursive-descent parser several stack
# frames, and the cap keeps it well inside Python's recursion limit
MAX_NESTING = 100
# largest product of the exponents along nested powers in one expression,
# the series exponent limit: evaluation multiplies series of that degree
# or coefficients of that many digits, and without the cap (2/3)^1000000
# in a rho took 51 s to build on a 2-core machine
MAX_EXPONENT = 65_535


class ParseError(ValueError):
    """Input rejected, with the offending source position when known."""

    def __init__(self, source, line, col, message):
        self.source = source
        self.line = line
        self.col = col
        if line is None:
            super().__init__(f"{source}: {message}")
        else:
            super().__init__(f"{source}:{line}:{col}: {message}")


def _integer(tok, source) -> int:
    """Value of an int token; Python converts at most
    sys.get_int_max_str_digits() digits (4300 by default)."""
    try:
        return int(tok[1])
    except ValueError:
        raise ParseError(source, tok[2], tok[3],
                         f"integer literal of {len(tok[1])} digits is too "
                         "long to convert") from None


_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|[+\-*^()/=,]|\S")


def _tokenize(text, lineno, source):
    out = []
    for m in _TOKEN.finditer(text):
        tok = m.group()
        col = m.start() + 1
        if tok[0].isalpha() or tok[0] == "_":
            out.append(("name", tok, lineno, col))
        elif tok[0].isdigit():
            out.append(("int", tok, lineno, col))
        elif tok in "+-*^()/=,":
            out.append(("op", tok, lineno, col))
        else:
            raise ParseError(source, lineno, col,
                             f"unexpected character {tok!r}")
    return out


class _ExprParser:
    """Recursive descent over one declaration's token list."""

    def __init__(self, tokens, source, names, allow_conj):
        self.tokens = tokens
        self.i = 0
        self.source = source
        self.names = names
        self.allow_conj = allow_conj
        self.depth = 0

    def error(self, message, tok=None):
        if tok is None:
            tok = self.tokens[self.i] if self.i < len(self.tokens) else None
        if tok is None:
            last = self.tokens[-1]
            raise ParseError(self.source, last[2], last[3] + len(last[1]),
                             message)
        raise ParseError(self.source, tok[2], tok[3], message)

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            self.error("unexpected end of expression")
        self.i += 1
        return tok

    def nested(self, tok, parse):
        """parse() one level deeper, opened by tok."""
        if self.depth == MAX_NESTING:
            self.error(f"expression nests deeper than {MAX_NESTING} levels "
                       "of parentheses, function calls and signs", tok)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            self.error(f"unexpected token {self.peek()[1]!r}")
        return node

    def expr(self):
        node = self.term()
        while True:
            tok = self.peek()
            if tok and tok[1] in "+-":
                self.take()
                rhs = self.term()
                node = ("add" if tok[1] == "+" else "sub", node, rhs)
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            tok = self.peek()
            if tok and tok[1] == "*":
                self.take()
                node = ("mul", node, self.unary())
            elif tok and tok[1] == "/":
                self.error("'/' only forms rational literals (p/q)")
            else:
                return node

    def unary(self):
        tok = self.peek()
        if tok and tok[1] == "-":
            self.take()
            return ("neg", self.nested(tok, self.unary))
        return self.power()

    def power(self):
        node = self.atom()
        tok = self.peek()
        if tok and tok[1] == "^":
            self.take()
            etok = self.take()
            if etok[0] != "int":
                self.error("exponent must be a non-negative integer", etok)
            node = ("pow", node, _integer(etok, self.source))
            product = exponent_product(node)
            if product > MAX_EXPONENT:
                self.error(f"nested powers multiply to exponent {product}, "
                           f"more than MAX_EXPONENT = {MAX_EXPONENT}", tok)
        return node

    def atom(self):
        tok = self.take()
        if tok[0] == "int":
            num, den = _integer(tok, self.source), 1
            nxt = self.peek()
            if nxt and nxt[1] == "/":
                self.take()
                dtok = self.take()
                if dtok[0] != "int":
                    self.error("rational literal needs an integer "
                               "denominator", dtok)
                den = _integer(dtok, self.source)
                if den == 0:
                    self.error("zero denominator", dtok)
            return ("num", Fraction(num, den))
        if tok[0] == "name":
            name = tok[1]
            if name in FUNCTIONS:
                if not self.allow_conj:
                    self.error(f"{name} is only allowed in hypersurface "
                               "expressions", tok)
                if self.take()[1] != "(":
                    self.error(f"{name} needs parentheses", tok)
                inner = self.nested(tok, self.expr)
                closing = self.take()
                if closing[1] != ")":
                    self.error("expected ')'", closing)
                return ("call", name, inner)
            if name not in self.names:
                self.error(f"unknown identifier {name!r}", tok)
            return ("var", name)
        if tok[1] == "(":
            inner = self.nested(tok, self.expr)
            closing = self.take()
            if closing[1] != ")":
                self.error("expected ')'", closing)
            return inner
        self.error(f"unexpected token {tok[1]!r}", tok)


_BINARY = frozenset(("add", "sub", "mul"))


def _spine(node):
    """Unwind the left spine of binary operators, which the parser builds
    for every chain: returns the leftmost operand and the spine nodes,
    innermost first.  Walkers fold along it instead of recursing, so a
    long sum or product costs no stack depth."""
    spine = []
    while node[0] in _BINARY:
        spine.append(node)
        node = node[1]
    spine.reverse()
    return node, spine


def degree_bound(node) -> int:
    """Syntactic total-degree bound: the degree of the written terms,
    which is the polynomial's unless its top terms cancel.  It sizes the
    chart of a system's evaluation and the order of a scan's germ."""
    kind = node[0]
    if kind == "num":
        return 0
    if kind == "var":
        return 1
    if kind == "call":
        return degree_bound(node[2])
    if kind == "neg":
        return degree_bound(node[1])
    if kind == "pow":
        return degree_bound(node[1]) * node[2]
    first, spine = _spine(node)
    out = degree_bound(first)
    for kind, _, right in spine:
        d = degree_bound(right)
        out = out + d if kind == "mul" else max(out, d)
    return out


def exponent_product(node) -> int:
    """Largest product of the exponents along nested powers in node; 1
    when node has no power."""
    kind = node[0]
    if kind in ("num", "var"):
        return 1
    if kind == "call":
        return exponent_product(node[2])
    if kind == "neg":
        return exponent_product(node[1])
    if kind == "pow":
        return exponent_product(node[1]) * node[2]
    first, spine = _spine(node)
    return max([exponent_product(first)]
               + [exponent_product(right) for _, _, right in spine])


def eval_expr(node, env, nvars, order, pairing=None):
    """Evaluate on a chart of nvars variables at the given order; env maps
    each variable name to its series."""
    kind = node[0]
    if kind == "num":
        return TruncatedSeries.constant(nvars, CScalar(node[1]), order)
    if kind == "var":
        return env[node[1]]
    if kind == "neg":
        return -eval_expr(node[1], env, nvars, order, pairing)
    if kind == "pow":
        if node[2] == 0:
            return TruncatedSeries.constant(nvars, 1, order)
        return eval_expr(node[1], env, nvars, order, pairing) ** node[2]
    if kind == "call":
        inner = eval_expr(node[2], env, nvars, order, pairing)
        flipped = inner.conjugate(pairing)
        if node[1] == "conj":
            return flipped
        if node[1] == "Re":
            return HALF * (inner + flipped)
        return CScalar(0, -HALF) * (inner - flipped)
    first, spine = _spine(node)
    out = eval_expr(first, env, nvars, order, pairing)
    for kind, _, right in spine:
        b = eval_expr(right, env, nvars, order, pairing)
        if kind == "add":
            out = out + b
        elif kind == "sub":
            out = out - b
        else:
            out = out * b
    return out


# ---------------------------------------------------------------------------
# documents


@dataclass(frozen=True)
class InputDocument:
    kind: str
    scalars: tuple       # sorted (key, int) pairs
    expressions: tuple   # sorted (key, expression tree) pairs
    source: str = field(default="<string>", compare=False)
    positions: tuple = field(default=(), compare=False, repr=False)

    def scalar(self, key, default=None):
        for k, v in self.scalars:
            if k == key:
                return v
        return default

    def expression(self, key):
        for k, v in self.expressions:
            if k == key:
                return v
        raise KeyError(key)

    def position(self, key):
        for k, pos in self.positions:
            if k == key:
                return pos
        return (None, 0)


_SYSTEM_KEY = re.compile(r"^d([1-9]+)_f([1-9][0-9]*)$")
_JET_KEY = re.compile(r"^f([1-9][0-9]*)(?:_([1-9]+))?$")

# the integer keys of each kind with their ranges; all but order are
# required
_SCALAR_KEYS = {
    "hypersurface": {"N": (2, None), "order": (1, None)},
    "map": {"N": (2, None), "order": (1, None)},
    "system": {"axes": (1, 9), "components": (1, None),
               "jet_order": (0, None)},
    "jet": {"axes": (1, 9), "components": (1, None), "jet_order": (0, None)},
}


def _exponent_from_digits(digits, q, source, line, col):
    beta = [0] * q
    for ch in digits:
        axis = int(ch)
        if axis > q:
            raise ParseError(source, line, col,
                             f"axis {axis} exceeds the declared {q}")
        beta[axis - 1] += 1
    return tuple(beta)


def _digits_from_exponent(beta) -> str:
    return "".join(str(a + 1) * e for a, e in enumerate(beta))


def jet_coordinate_name(i, beta) -> str:
    suffix = _digits_from_exponent(beta)
    return f"f{i + 1}" + (f"_{suffix}" if suffix else "")


def _rhs_name(j, alpha) -> str:
    return f"d{_digits_from_exponent(alpha)}_f{j + 1}"


def _chart_names(q, m, k):
    """Identifier -> chart index, jet unknowns first, then positions."""
    names = {}
    for idx, (i, beta) in enumerate(unknown_layout(q, m, k)):
        names[jet_coordinate_name(i, beta)] = idx
    base = len(names)
    for a in range(q):
        names[f"x{a + 1}"] = base + a
    return names


def parse_document(text, source="<string>") -> InputDocument:
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        tokens = _tokenize(line, lineno, source)
        if len(tokens) < 3 or tokens[0][0] != "name" or tokens[1][1] != "=":
            col = tokens[0][3] if tokens else 1
            raise ParseError(source, lineno, col,
                             "expected a 'key = value' declaration")
        key = tokens[0][1]
        if key in entries:
            raise ParseError(source, lineno, tokens[0][3],
                             f"duplicate declaration of {key!r}")
        entries[key] = (tokens[2:], lineno, tokens[0][3])

    if "kind" not in entries:
        raise ParseError(source, None, 0, "missing 'kind' declaration")
    ktoks, kline, kcol = entries.pop("kind")
    if len(ktoks) != 1 or ktoks[0][0] != "name" or ktoks[0][1] not in KINDS:
        raise ParseError(source, kline, kcol,
                         f"kind must be one of {', '.join(KINDS)}")
    kind = ktoks[0][1]

    scalars = {}
    allowed = _SCALAR_KEYS[kind]
    for key in list(entries):
        if key in allowed:
            toks, lineno, col = entries.pop(key)
            if len(toks) != 1 or toks[0][0] != "int":
                raise ParseError(source, lineno, toks[0][3] if toks else col,
                                 f"{key} must be a plain integer")
            value = _integer(toks[0], source)
            lo, hi = allowed[key]
            if value < lo or (hi is not None and value > hi):
                top = hi if hi is not None else "inf"
                raise ParseError(source, lineno, toks[0][3],
                                 f"{key} must lie in [{lo}, {top}]")
            scalars[key] = (value, (lineno, col))
    for key in allowed:
        if key != "order" and key not in scalars:
            raise ParseError(source, None, 0,
                             f"missing '{key}' declaration")

    if kind in ("hypersurface", "map"):
        N = scalars["N"][0]
        names = frozenset([f"z{j + 1}" for j in range(N - 1)] + ["w"])
        allow_conj = kind == "hypersurface"
        if kind == "hypersurface":
            needed = {"rho"}
        else:
            needed = {f"f{j + 1}" for j in range(N)}
    else:
        q = scalars["axes"][0]
        m = scalars["components"][0]
        k = scalars["jet_order"][0]
        allow_conj = False
        if kind == "system":
            names = frozenset(_chart_names(q, m, k))
            needed = {_rhs_name(j, alpha)
                      for j in range(m) for alpha in multi_indices(q, k + 1)}
        else:
            names = frozenset()
            needed = {jet_coordinate_name(i, beta)
                      for i, beta in unknown_layout(q, m, k)}

    expressions = {}
    positions = {}
    for key, (toks, lineno, col) in entries.items():
        canonical = _canonical_key(key, kind, scalars, source, lineno, col)
        if canonical not in needed:
            raise ParseError(source, lineno, col,
                             f"unknown declaration {key!r} for a "
                             f"{kind} document")
        if canonical in expressions:
            raise ParseError(source, lineno, col,
                             f"duplicate declaration of {key!r}")
        expressions[canonical] = _ExprParser(
            toks, source, names, allow_conj).parse()
        positions[canonical] = (lineno, col)
    missing = sorted(needed - set(expressions))
    if missing:
        raise ParseError(source, None, 0,
                         f"missing declarations: {', '.join(missing[:4])}")

    return InputDocument(
        kind=kind,
        scalars=tuple(sorted((k, v[0]) for k, v in scalars.items())),
        expressions=tuple(sorted(expressions.items())),
        source=source,
        positions=tuple(sorted(
            list(positions.items())
            + [(k, v[1]) for k, v in scalars.items()])))


def _canonical_key(key, kind, scalars, source, lineno, col):
    """Sort derivative digit strings so spellings like d21_f1 match d12_f1."""
    if kind == "system":
        m = _SYSTEM_KEY.match(key)
        if not m:
            return key
        q = scalars["axes"][0]
        k = scalars["jet_order"][0]
        beta = _exponent_from_digits(m.group(1), q, source, lineno, col)
        if sum(beta) != k + 1:
            raise ParseError(source, lineno, col,
                             f"rhs key {key!r} must carry exactly "
                             f"{k + 1} axis digits")
        return f"d{_digits_from_exponent(beta)}_f{m.group(2)}"
    if kind == "jet":
        m = _JET_KEY.match(key)
        if not m:
            return key
        q = scalars["axes"][0]
        beta = _exponent_from_digits(m.group(2) or "", q,
                                     source, lineno, col)
        # the component stays a digit string: it may be too long for int
        suffix = _digits_from_exponent(beta)
        return f"f{m.group(1)}" + (f"_{suffix}" if suffix else "")
    return key


def load_document(path) -> InputDocument:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_document(text, source=str(path))


# ---------------------------------------------------------------------------
# evaluation into library objects


def _ambient_env(N, order):
    env = {f"z{j + 1}": ambient_var(N, j, order) for j in range(N - 1)}
    env["w"] = ambient_var(N, N - 1, order)
    return env


def build_hypersurface(doc: InputDocument, order: int) -> Hypersurface:
    N = doc.scalar("N")
    pairing = ambient_pairing(N)
    rho = eval_expr(doc.expression("rho"), _ambient_env(N, order), 2 * N,
                    order, pairing)
    if rho.conjugate(pairing) != rho:
        line, col = doc.position("rho")
        raise ParseError(doc.source, line, col, "rho is not real-valued")
    return from_defining(rho, N)


def build_map(doc: InputDocument, source_M: Hypersurface,
              target_M: Hypersurface) -> AmbientMap:
    N = doc.scalar("N")
    if N != source_M.N or N != target_M.N:
        raise ParseError(doc.source, None, 0,
                         f"map is in C^{N} but the germs live in "
                         f"C^{source_M.N} and C^{target_M.N}")
    env = _ambient_env(N, source_M.order)
    comps = [eval_expr(doc.expression(f"f{j + 1}"), env, 2 * N,
                       source_M.order) for j in range(N)]
    return AmbientMap(comps, source_M, target_M)


def build_system(doc: InputDocument) -> CompleteSystem:
    q = doc.scalar("axes")
    m = doc.scalar("components")
    k = doc.scalar("jet_order")
    names = _chart_names(q, m, k)
    nvars = len(names)
    exprs = dict(doc.expressions)
    order = max([1] + [degree_bound(node) for node in exprs.values()])
    env = {name: TruncatedSeries.variable(nvars, idx, order)
           for name, idx in names.items()}
    rhs = {(j, alpha): eval_expr(exprs[_rhs_name(j, alpha)], env, nvars,
                                 order)
           for alpha in multi_indices(q, k + 1) for j in range(m)}
    return CompleteSystem(q, m, k, rhs)


def build_jet(doc: InputDocument) -> JetVector:
    q = doc.scalar("axes")
    m = doc.scalar("components")
    k = doc.scalar("jet_order")
    exprs = dict(doc.expressions)
    values = {}
    for i, beta in unknown_layout(q, m, k):
        key = jet_coordinate_name(i, beta)
        # a jet document has no variables: its values are constants, the
        # series of an empty chart at order 0
        value = eval_expr(exprs[key], {}, 0, 0).constant_term()
        if not value.is_real():
            line, col = doc.position(key)
            raise ParseError(doc.source, line, col,
                             f"jet entry {key} must be real")
        values[(i, beta)] = value.re
    return JetVector(q, m, k, values)
