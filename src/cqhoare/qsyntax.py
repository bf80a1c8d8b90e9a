"""Program syntax: AST, parser, pretty printer and static analyses.

Concrete grammar (statements, ';' is right associative and binds weakest):

    skip
    x := e
    q := |0>                    (also q[i,j] := |0>)
    U[q1,...,qn]                gate, optionally U(t1,...,tk)[q1,...,qn]
    x := M[q1,...,qn]           measurement
    if b then P1 else P0 fi
    while b do P od

A right-hand side of the form NAME[...] is read as a measurement when NAME
is in the caller-provided measurement set, or, when none is given, when
NAME starts with an uppercase letter; otherwise it is a bit-array index
expression.
Expressions are read by precedence climbing over one table, `_LEVEL`, which
`format_expr` also reads to parenthesize; the README's "Concrete syntax"
section lists the operators in its order.
"""

from dataclasses import dataclass
import functools
import math
import re

from . import classical as cl
from .classical import (  # the JSON helpers keep their qsyntax names
    BinFrac,
    BinOp,
    BitIndex,
    Call,
    DepthError,
    Lit,
    Node,
    ParseError,
    Quant,
    UnOp,
    Var,
    json_field,
)


# ---------------------------------------------------------------------------
# AST


class QVar(Node):
    """A possibly subscripted quantum variable occurrence."""

    name: str
    subs: tuple = ()


class Skip(Node):
    pass


class Assign(Node):
    var: str
    expr: object


class Init(Node):
    qvar: QVar


class Gate(Node):
    name: str
    params: tuple
    targets: tuple  # of QVar


class Measure(Node):
    var: str
    meas: str
    targets: tuple


class Seq(Node):
    first: object
    second: object


class If(Node):
    cond: object
    then: object
    orelse: object


class While(Node):
    cond: object
    body: object


def seq_all(cmds):
    """Right-associated sequence of a non-empty command list."""
    cmds = list(cmds)
    if not cmds:
        return Skip()
    out = cmds[-1]
    for c in reversed(cmds[:-1]):
        out = Seq(c, out)
    return out


def seq_parts(p):
    """The non-sequence commands of `p` in program order.  Walks nested
    `Seq` nodes with an explicit stack, so a long sequence cannot exhaust
    the interpreter's recursion limit."""
    out, stack = [], [p]
    while stack:
        c = stack.pop()
        if isinstance(c, Seq):
            stack.append(c.second)
            stack.append(c.first)
        else:
            out.append(c)
    return out


# ---------------------------------------------------------------------------
# Lexer

_KEYWORDS = {
    "skip", "if", "then", "else", "fi", "while", "do", "od",
    "and", "or", "not", "true", "false", "forall", "exists", "in",
}

_SYMBOLS = [":=", "<=", ">=", "!=", "->", "..",
            ";", "(", ")", "[", "]", ",", "<", ">", "|", "=",
            "+", "-", "*", "/", "%", ":", "_", "."]


@dataclass(slots=True)
class Tok:
    """A token of the concrete syntax and where it starts in the source."""

    kind: str  # NUM IDENT KW SYM EOF
    text: str
    line: int
    col: int
    offset: int  # index of its first character in the source


# One alternative per token kind, tried in this order at each position;
# `_SYMBOLS` is longest first, so the alternation takes the longest symbol.
_TOKEN = re.compile(
    r"(?P<WS>[ \t\r\n]+|#[^\n]*)"
    r"|(?P<NUM>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<IDENT>(?:[^\W\d_]|_(?=[^\W_]))\w*)"  # a lone "_" is the ket marker
    r"|(?P<SYM>%s)|(?P<BAD>.)" % "|".join(map(re.escape, _SYMBOLS)))


def tokenize(src):
    if not isinstance(src, str):
        raise ParseError("expected text, got %s" % type(src).__name__)
    toks, line, bol = [], 1, 0  # bol: index where the current line begins
    for m in _TOKEN.finditer(src):
        kind, text, col = m.lastgroup, m.group(), m.start() - bol + 1
        if kind == "WS":
            if "\n" in text:
                line += text.count("\n")
                bol = m.start() + text.rindex("\n") + 1
            continue
        # `[^\W\d_]` also admits numerals such as "²", which are not letters
        if kind == "BAD" or kind == "IDENT" and not (text[0].isalpha() or text[0] == "_"):
            raise ParseError("unexpected character %r" % text[0], line, col)
        toks.append(Tok("KW" if text in _KEYWORDS else kind, text, line, col, m.start()))
    toks.append(Tok("EOF", "", line, len(src) - bol + 1, len(src)))
    return toks


# ---------------------------------------------------------------------------
# Parser

# How tightly each binary operator binds, loosest first; the parser and
# `format_expr` both read it.  Prefix "not" binds at _NOT, unary minus at _NEG.
_LEVEL = {"->": 1, "or": 2, "and": 3,
          "=": 5, "!=": 5, "<": 5, "<=": 5, ">": 5, ">=": 5,
          "+": 6, "-": 6, "*": 7, "/": 7, "%": 7}
_NOT, _NEG = 4, 8

# How deeply a text may nest.  Each bracket, quantifier, prefix operator,
# branch or loop body, and each operator of a chain, is one level.  The
# parser takes up to four frames a level and the walks of its trees up to
# three, so the bound keeps both well inside the interpreter's default
# recursion limit of 1,000 frames.
MAX_DEPTH = 200


class _Parser:
    def __init__(self, src, measurements=None, allow_sections=False):
        self.toks = tokenize(src)
        # lookahead reaches two tokens past the position, which never
        # passes the end of input: two more copies of it keep it in range
        self.toks += self.toks[-1:] * 2
        self.pos = 0
        self.depth = 0  # levels open at the current token
        self.peak = 0  # the most levels open at any token so far
        self.measurements = measurements
        self.allow_sections = allow_sections

    # -- token helpers

    def peek(self, k=0):
        return self.toks[self.pos + k]

    def at(self, kind, text=None, k=0):
        t = self.toks[self.pos + k]
        return t.kind == kind and (text is None or t.text == text)

    def at_sym(self, text, k=0):
        t = self.toks[self.pos + k]
        return t.kind == "SYM" and t.text == text

    def take(self):
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def expect(self, kind, text=None):
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            raise ParseError("expected %r, found %r" % (want, t.text or "end of input"),
                             t.line, t.col)
        return self.take()

    def int_literal(self):
        t = self.expect("NUM")
        if not t.text.isdigit():
            raise ParseError("expected an integer, found %r" % t.text, t.line, t.col)
        return int(t.text)

    def fail(self, msg):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    def nest(self):
        """Open one more level; a caller that returns closes those it
        opened by restoring `depth`."""
        self.depth += 1
        if self.depth > self.peak:
            self.peak = self.depth
            if self.depth > MAX_DEPTH:
                t = self.peek()
                raise DepthError("nested more than %d levels deep" % MAX_DEPTH,
                                 t.line, t.col)

    def is_measurement(self, name):
        if self.measurements is not None:
            return name in self.measurements
        return name[:1].isupper()

    # -- programs

    def program(self, starts=None):
        """A sequence of commands; `starts`, when given, is a list that
        receives the index of each command's first token."""
        cmds = []
        while True:
            if starts is not None:
                starts.append(self.pos)
            cmds.append(self.command())
            if not self.at_sym(";"):
                return seq_all(cmds)
            self.take()

    def command(self):
        if self.at("KW", "skip"):
            self.take()
            return Skip()
        if self.at("KW", "if"):
            self.take()
            base = self.depth
            self.nest()
            cond = self.expr()
            self.expect("KW", "then")
            p1 = self.program()
            self.expect("KW", "else")
            p0 = self.program()
            self.expect("KW", "fi")
            self.depth = base
            return If(cond, p1, p0)
        if self.at("KW", "while"):
            self.take()
            base = self.depth
            self.nest()
            cond = self.expr()
            self.expect("KW", "do")
            body = self.program()
            self.expect("KW", "od")
            self.depth = base
            return While(cond, body)
        if not self.at("IDENT"):
            self.fail("expected a command")
        # lookahead: IDENT [subs]? ':=' is an assignment/init/measurement,
        # anything else is a gate application
        save, base = self.pos, self.depth
        name = self.take().text
        subs = None
        if self.at_sym("["):
            try:
                subs = self.subscripts()
            except ParseError:
                self.pos, self.depth = save, base
                return self.gate_command()
        if self.at_sym(":="):
            self.take()
            if self.at_sym("|"):
                self.take()
                z = self.expect("NUM")
                if z.text != "0":
                    raise ParseError("initialization must use |0>", z.line, z.col)
                self.expect("SYM", ">")
                return Init(QVar(name, tuple(subs or ())))
            if subs is not None:
                self.fail("only quantum variables may be initialized")
            if self.at("IDENT") and self.at_sym("[", 1) and self.is_measurement(self.peek().text):
                mname = self.take().text
                self.expect("SYM", "[")
                targets = self.qvar_list()
                self.expect("SYM", "]")
                return Measure(name, mname, tuple(targets))
            return Assign(name, self.expr())
        self.pos = save
        return self.gate_command()

    def gate_command(self):
        name = self.expect("IDENT").text
        params = ()
        if self.at_sym("("):
            self.take()
            params = tuple(self.expr_list())
            self.expect("SYM", ")")
        self.expect("SYM", "[")
        targets = self.qvar_list()
        self.expect("SYM", "]")
        return Gate(name, params, tuple(targets))

    def subscripts(self):
        self.expect("SYM", "[")
        subs = self.expr_list()
        self.expect("SYM", "]")
        return subs

    def qvar(self):
        name = self.expect("IDENT").text
        if self.at_sym("["):
            self.take()
            first = self.expr()
            if self.allow_sections and self.at_sym(":"):
                self.take()
                last = self.expr()
                self.expect("SYM", "]")
                lo = _const_int(first)
                hi = _const_int(last)
                if lo is None or hi is None:
                    self.fail("section bounds must be integer literals")
                return [QVar(name, (Lit(i),)) for i in range(lo, hi + 1)]
            subs = [first]
            while self.at_sym(","):
                self.take()
                subs.append(self.expr())
            self.expect("SYM", "]")
            return [QVar(name, tuple(subs))]
        return [QVar(name)]

    def qvar_list(self):
        out = list(self.qvar())
        while self.at_sym(","):
            self.take()
            out.extend(self.qvar())
        return out

    def expr_list(self):
        out = [self.expr()]
        while self.at_sym(","):
            self.take()
            out.append(self.expr())
        return out

    # -- expressions

    def expr(self, level=0):
        """An expression whose binary operators bind at `level` or tighter,
        by precedence climbing over `_LEVEL`: "->" groups to the right, the
        other operators to the left, and comparisons do not chain.  A
        quantifier is read only at level 0 and "not" only up to `_NOT`."""
        base = self.depth
        self.nest()
        if level == 0 and (self.at("KW", "forall") or self.at("KW", "exists")):
            kind = self.take().text
            var = self.expect("IDENT").text
            self.expect("KW", "in")
            lo = self.int_literal()
            self.expect("SYM", "..")
            hi = self.int_literal()
            self.expect("SYM", ".")
            body = self.expr()
            self.depth = base
            return Quant(kind, var, cl.IntType(lo, hi), body)
        if level <= _NOT and self.at("KW", "not"):
            self.take()
            left, bound = UnOp("not", self.expr(_NOT)), _NOT - 1
        else:
            left, bound = self.unary(), _NEG
        while True:  # `bound`: the tightest level the next operator may have
            op = self.peek().text
            lvl = _LEVEL.get(op, -1)
            if not level <= lvl <= bound:
                self.depth = base
                return left
            self.take()
            left = BinOp(op, left, self.expr(lvl if op == "->" else lvl + 1))
            self.nest()  # the chain so far is one level deeper
            bound = lvl - 1 if lvl == _LEVEL["="] else lvl

    def unary(self):
        if self.at_sym("-"):
            self.take()
            self.nest()
            arg = self.unary()
            self.depth -= 1
            return UnOp("-", arg)
        return self.primary()

    def primary(self):
        t = self.peek()
        if t.kind == "NUM":
            # binary fraction: 0.j[k:l]
            if t.text == "0" and self.at_sym(".", 1) and self.at("IDENT", None, 2):
                self.take()
                self.take()
                arr = self.take().text
                self.expect("SYM", "[")
                lo = self.expr()
                self.expect("SYM", ":")
                hi = self.expr()
                self.expect("SYM", "]")
                return BinFrac(arr, lo, hi)
            self.take()
            if "." in t.text or "e" in t.text or "E" in t.text:
                return Lit(float(t.text))
            return Lit(int(t.text))
        if t.kind == "KW" and t.text in ("true", "false"):
            self.take()
            return Lit(t.text == "true")
        if t.kind == "IDENT":
            self.take()
            if t.text == "pi" and not self.at_sym("("):
                return Lit(math.pi)
            if self.at_sym("("):
                self.take()
                args = () if self.at_sym(")") else tuple(self.expr_list())
                self.expect("SYM", ")")
                return Call(t.text, args)
            if self.at_sym("["):
                self.take()
                idx = self.expr()
                self.expect("SYM", "]")
                return BitIndex(t.text, idx)
            return Var(t.text)
        if self.at_sym("("):
            self.take()
            e = self.expr()
            self.expect("SYM", ")")
            return e
        self.fail("expected an expression")

    def done(self):
        t = self.peek()
        if t.kind != "EOF":
            raise ParseError("unexpected trailing input %r" % t.text, t.line, t.col)


def _const_int(e):
    if isinstance(e, Lit) and isinstance(e.value, int) and not isinstance(e.value, bool):
        return e.value
    if isinstance(e, UnOp) and e.op == "-":
        v = _const_int(e.arg)
        return None if v is None else -v
    return None


def parse_program(src, measurements=None, allow_sections=False, cache=None):
    """The program `src`.  With `cache`, a `parse_once` cache, each suffix
    c_i; ...; c_k of its top-level sequence becomes a span `parse_once`
    answers from."""
    p = _Parser(src, measurements, allow_sections)
    starts = []
    prog = p.program(starts)
    p.done()
    if cache is not None:
        last, suffix = p.toks[p.pos - 1], prog
        end = last.offset + len(last.text)
        for i in starts:  # `Seq` nests to the right: each `.second` is a suffix
            share_span(cache, parse_program, src, p.toks[i].offset, end, suffix)
            suffix = suffix.second if isinstance(suffix, Seq) else None
    return prog


def parse_expr(src):
    p = _Parser(src)
    e = p.expr()
    p.done()
    return e


parse_formula = parse_expr


# Parsing each text once per document.  A `parse_once` cache is a dict that
# lives as long as the document being read, never longer.  It maps
# (parse, text) to the tree made from a whole text, (_SPAN, parse, length)
# to the spans of earlier texts `parse` would read alone into a tree it
# already made, and ("factor", text) to the tree of a bracketed state factor
# and the levels it opens (see `assertions._StateParser`).  Equal texts give
# equal trees, as the parser is context-free inside a span.  Equal trees are
# one object anyway (`cl.Node`); the cache only saves parsing them again.

_SPAN = "span"


def share_span(cache, parse, src, start, end, tree):
    """Let `parse_once` answer a text equal to src[start:end] with `tree`.
    Only the offsets are kept, so a long text is never copied."""
    cache.setdefault((_SPAN, parse, end - start), []).append((src, start, tree))


def parse_once(at, cache, parse, text, *args):
    """parse(text, *args) for the text at path `at` in a JSON document,
    reusing the tree already made from the same text, or from an equal span
    of an earlier one, with the same `parse` when `cache`, a dict the caller
    keeps for one document, holds one.  `args` must not vary within a
    cache; a parse that shares its subtrees takes the cache among them.  A
    ParseError names the path before its message, and a DepthError stays
    one, at its line and column."""
    try:
        if cache is None or not isinstance(text, str):  # the parser reports non-text
            return parse(text, *args)
        key = (parse, text)
        tree = cache.get(key)
        if tree is None:
            for src, start, tree in cache.get((_SPAN, parse, len(text)), ()):
                if src.startswith(text, start):
                    break
            else:
                tree = parse(text, *args)
            cache[key] = tree
        return tree
    except ParseError as e:
        err = type(e)("%s: %s" % (cl.json_path(at), e))
        err.line, err.col = e.line, e.col
        raise err from None


# ---------------------------------------------------------------------------
# Pretty printing


def format_expr(e, prec=0):
    """`e` as text, parenthesized by the parser's levels (`_LEVEL`, `_NOT`
    and `_NEG`) where it sits at a level looser than `prec`."""
    def wrap(s, lvl):
        return "(" + s + ")" if lvl < prec else s

    if isinstance(e, Lit):
        if isinstance(e.value, bool):
            return "true" if e.value else "false"
        if isinstance(e.value, float) and abs(e.value - math.pi) < 1e-15:
            return "pi"
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, BitIndex):
        return "%s[%s]" % (e.array, format_expr(e.index))
    if isinstance(e, BinFrac):
        return "0.%s[%s:%s]" % (e.array, format_expr(e.lo), format_expr(e.hi))
    if isinstance(e, Call):
        return "%s(%s)" % (e.fn, ", ".join(format_expr(a) for a in e.args))
    if isinstance(e, UnOp):
        if e.op == "not":
            return wrap("not " + format_expr(e.arg, _NOT), _NOT)
        return wrap("-" + format_expr(e.arg, _NEG), _NEG)
    if isinstance(e, BinOp):
        lvl = _LEVEL[e.op]
        sep = " %s " % e.op
        if e.op == "->":
            s = format_expr(e.left, lvl + 1) + sep + format_expr(e.right, lvl)
        elif e.op in ("or", "and", "+", "*"):
            s = format_expr(e.left, lvl) + sep + format_expr(e.right, lvl + 1)
        else:
            s = format_expr(e.left, lvl + 1) + sep + format_expr(e.right, lvl + 1)
        return wrap(s, lvl)
    if isinstance(e, Quant):
        if not isinstance(e.vartype, cl.IntType):
            raise ValueError("only integer-range quantifiers have concrete syntax")
        s = "%s %s in %d..%d . %s" % (
            e.kind, e.var, e.vartype.lo, e.vartype.hi, format_expr(e.body))
        return wrap(s, 0) if prec > 0 else s
    raise ValueError("unknown expression node %r" % (e,))


def format_qvar(q):
    if not q.subs:
        return q.name
    return "%s[%s]" % (q.name, ", ".join(format_expr(s) for s in q.subs))


def pretty(p):
    if isinstance(p, Skip):
        return "skip"
    if isinstance(p, Assign):
        return "%s := %s" % (p.var, format_expr(p.expr))
    if isinstance(p, Init):
        return "%s := |0>" % format_qvar(p.qvar)
    if isinstance(p, Gate):
        ps = "(%s)" % ", ".join(format_expr(e) for e in p.params) if p.params else ""
        return "%s%s[%s]" % (p.name, ps, ", ".join(format_qvar(q) for q in p.targets))
    if isinstance(p, Measure):
        return "%s := %s[%s]" % (p.var, p.meas, ", ".join(format_qvar(q) for q in p.targets))
    if isinstance(p, Seq):
        return "; ".join(pretty(c) for c in seq_parts(p))
    if isinstance(p, If):
        return "if %s then %s else %s fi" % (
            format_expr(p.cond), pretty(p.then), pretty(p.orelse))
    if isinstance(p, While):
        return "while %s do %s od" % (format_expr(p.cond), pretty(p.body))
    raise ValueError("unknown program node %r" % (p,))


# ---------------------------------------------------------------------------
# Static analyses


def _qvar_entry(q):
    vals = []
    for s in q.subs:
        v = _const_int(s)
        if v is None:
            return (q.name, None)
        vals.append(v)
    return (q.name, tuple(vals))


# ---------------------------------------------------------------------------
# Generic syntax walks
#
# Every syntax node (program, formal state, predicate, assertion, triple,
# QVar) is a `cl.Node` whose fields are strings, nodes, tuples of nodes, or
# classical expressions.  An expression is a leaf here.


_SEQS = (tuple, list)


@functools.cache
def _fields(cls):
    """Field names of a node type in order; () for an expression, which is
    a leaf, and None for a type that is not syntax, such as str."""
    if not issubclass(cls, Node):
        return None
    return () if issubclass(cls, cl.EXPRS) else cls._fields


def nodes(x):
    """Every node of a tree or tuple of trees, each before its children.
    An expression is yielded but not entered.  The walk keeps an explicit
    stack, so a long program cannot exhaust the recursion limit."""
    stack = [x]
    while stack:
        x = stack.pop()
        if isinstance(x, _SEQS):
            stack.extend(x)
            continue
        names = _fields(type(x))
        if names is None:
            continue
        yield x
        for n in names:
            v = getattr(x, n)
            if v and type(v) is not str:  # names and () hold no nodes
                stack.append(v)


def map_exprs(x, f):
    """The tree `x` rebuilt with `f` applied to each expression in it, QVar
    subscripts included.  Recurses on the tree's depth."""
    if isinstance(x, cl.EXPRS):
        return f(x)
    if isinstance(x, _SEQS):
        return type(x)(map_exprs(y, f) for y in x)
    names = _fields(type(x))
    if names is None:
        return x
    values = (getattr(x, n) for n in names)
    return type(x)(*[v if not v or type(v) is str else map_exprs(v, f) for v in values])


def same_syntax(x, y):
    """Whether two trees are the same syntax: equal node types, strings and
    lengths, and expressions equal by `cl.formula_equal`, which tells
    literal types apart.  Walks both trees pairwise with an explicit stack
    and skips subtrees they share."""
    stack = [(x, y)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if isinstance(a, cl.EXPRS) or isinstance(b, cl.EXPRS):
            if not (isinstance(a, cl.EXPRS) and isinstance(b, cl.EXPRS)
                    and cl.formula_equal(a, b)):
                return False
        elif isinstance(a, _SEQS):
            if not isinstance(b, _SEQS) or len(a) != len(b):
                return False
            stack.extend(zip(a, b))
        elif type(a) is not type(b):
            return False
        else:
            names = _fields(type(a))
            if names is None:
                if a != b:
                    return False
            else:
                stack.extend((getattr(a, n), getattr(b, n)) for n in names)
    return True


def quantum_vars(x):
    """Map base name -> set of constant subscript tuples, or None when some
    occurrence has a non-constant subscript (whole array)."""
    out = {}
    for q in nodes(x):
        if not isinstance(q, QVar):
            continue
        name, entry = _qvar_entry(q)
        if entry is None:
            out[name] = None
        elif out.get(name, set()) is not None:
            out.setdefault(name, set()).add(entry)
    return out


def classical_vars(x):
    """Classical variables occurring in a tree: the free variables of its
    expressions and the variable of each assignment and measurement."""
    out = set()
    for n in nodes(x):
        if isinstance(n, cl.EXPRS):
            out |= cl.free_vars(n)
        elif isinstance(n, (Assign, Measure)):
            out.add(n.var)
    return out
