"""Propositional formulas, default rules and the theory file format.

A default theory is a pair (W, D): W is a set of propositional formulas
taken as certain knowledge, D is an ordered list of default rules
``prerequisite : justification, ... / consequent``.  Formulas use only
negation, conjunction and disjunction over lowercase atoms, which keeps
clause-form conversion purely distributive (no auxiliary atoms are ever
introduced, so per-rule clause-group selection stays exact).  The price is
growth: a disjunction of k two-atom conjunctions has 2^k clauses, so
clause-form conversion raises ValueError when a formula's clause form would
pass MAX_CLAUSES.  A clause is a pair (heads, body) of atom-id masks (see
:func:`to_cnf`), the one clause form from conversion to the prover.

A formula node is a tuple that leads with its class (see :class:`Formula`),
and a rule and a theory are named tuples, so none of them runs generated
code when this module is imported.

The concrete syntax accepted by :func:`parse_theory`::

    # comment until end of line
    w: !boy || kid .
    d: adult : !student, !priest / married .
    d: go : / use_1_2 && at_2 .          # empty justification list

Atoms match [a-z][a-z0-9_]*, ``!`` binds tighter than ``&&``, which binds
tighter than ``||``.  Negations and parentheses nest at most MAX_NESTING
deep, and a parsed formula tree is at most MAX_DEPTH levels deep; deeper
input is a ParseError, not a stack overflow.  Chains ``a && b && ...``
parse left-deep, one level per operand, and parentheses let chains stack,
so the depth cap bounds the operand count of every chain and the whole
tree that later walks recurse over.
"""

from __future__ import annotations

import re
from collections import namedtuple
from operator import itemgetter


class Formula(tuple):
    """Base class for formula nodes.

    A node is the tuple (node class, *fields), so equality and hashing
    tell And(a, b) from Or(a, b).  Fields are read-only properties, and a
    node is not iterable, so it cannot pass for a list of formulas.
    """

    __slots__ = ()
    __iter__ = None

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(map(repr, self[1:])))

    def __getnewargs__(self):  # pickle and copy rebuild a node from its fields
        return self[1:]


_ATOM_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


class Atom(Formula):
    __slots__ = ()
    name = property(itemgetter(1))

    def __new__(cls, name):
        if not _ATOM_RE.match(name):
            raise ValueError("bad atom name: %r" % (name,))
        return tuple.__new__(cls, (cls, name))


class Not(Formula):
    __slots__ = ()
    operand = property(itemgetter(1))

    def __new__(cls, operand):
        return tuple.__new__(cls, (cls, operand))


class _Binary(Formula):
    __slots__ = ()
    left = property(itemgetter(1))
    right = property(itemgetter(2))

    def __new__(cls, left, right):
        return tuple.__new__(cls, (cls, left, right))


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


def conj(*parts):
    """Left-folded conjunction of one or more formulas."""
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def disj(*parts):
    """Left-folded disjunction of one or more formulas."""
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def atoms_of(f: Formula) -> set[str]:
    if isinstance(f, Atom):
        return {f.name}
    if isinstance(f, Not):
        return atoms_of(f.operand)
    return atoms_of(f.left) | atoms_of(f.right)


def tautology(name: str = "true_") -> Formula:
    """A fixed tautology, used as the prerequisite of rules that need none."""
    a = Atom(name)
    return Or(a, Not(a))


class AtomTable:
    """Bijection between atom names and dense integer ids.

    Built while a theory is constructed and treated as read-only
    afterwards; every module downstream works on the integer ids.
    """

    def __init__(self):
        self._ids: dict[str, int] = {}
        self.names: list[str] = []

    def intern(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = len(self.names)
            self._ids[name] = i
            self.names.append(name)
        return i


# A conjunction's clause form has the sum of its sides' clause counts and a
# disjunction's the product; past this many clauses in either, and so in any
# formula, clause-form conversion gives up.
MAX_CLAUSES = 4096


def _nnf_clauses(f: Formula, positive: bool, table: AtomTable) -> list[tuple[int, int]]:
    # Returns CNF as (heads, body) mask pairs, distributing disjunction over
    # conjunction.  `positive` tracks negation parity instead of rewriting
    # the tree.
    # f[0] is the node class and f[1:] its fields; indexing beats the properties
    kind = f[0]
    if kind is Not:
        return _nnf_clauses(f[1], not positive, table)
    if kind is Atom:
        bit = 1 << table.intern(f[1])
        return [(bit, 0)] if positive else [(0, bit)]
    left = _nnf_clauses(f[1], positive, table)
    right = _nnf_clauses(f[2], positive, table)
    conjunction = (kind is And) == positive
    if (len(left) + len(right) if conjunction else len(left) * len(right)) > MAX_CLAUSES:
        raise ValueError("formula has more than %d clauses in clause form" % MAX_CLAUSES)
    if conjunction:
        return left + right
    # disjunction: cartesian merge of the two clause sets
    return [(lh | rh, lb | rb) for lh, lb in left for rh, rb in right]


def to_cnf(f: Formula, table: AtomTable | None = None) -> frozenset[tuple[int, int]]:
    """Distributive CNF of f; tautological clauses dropped, duplicates merged.

    A clause is a pair (heads, body) of atom-id masks, bit k for atom id k:
    the disjunction h1 | ... | hp <- b1 & ... & bn of the positive literals
    in heads and the negated ones in body.  A clause with no heads is a
    constraint (it defines the goal "false"); one whose heads meet its body
    is a tautology and is never returned.
    """
    if table is None:
        table = AtomTable()
    return frozenset((heads, body) for heads, body in _nnf_clauses(f, True, table)
                     if not heads & body)


# One default rule; justifications may be empty, index is 1-based.
Default = namedtuple("Default", "index prerequisite justifications consequent")


class DefaultTheory(namedtuple("DefaultTheory", "world defaults atoms")):
    """Certain knowledge W, default rules D and the table of their atoms.
    Equality and hashing cover (world, defaults) only: the table follows."""

    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, DefaultTheory) and self[:2] == other[:2]

    def __ne__(self, other):  # tuple's own __ne__ would compare the tables
        return not self == other

    def __hash__(self):
        return hash(self[:2])

    @property
    def n_defaults(self) -> int:
        return len(self.defaults)


def make_theory(world, defaults) -> DefaultTheory:
    """Build a theory from formulas and (prereq, justifs, consequent) triples.

    Structural duplicates collapse (a theory is a pair of sets even though
    defaults keep their list order); indices are assigned 1..n afterwards.
    """
    w_out = tuple(dict.fromkeys(world))
    triples = dict.fromkeys((pre, tuple(justs), cons) for pre, justs, cons in defaults)
    d_out = tuple(Default(k, *triple) for k, triple in enumerate(triples, 1))
    table = AtomTable()
    for f in (*w_out, *(f for pre, justs, cons in triples for f in (pre, *justs, cons))):
        for a in sorted(atoms_of(f)):
            table.intern(a)
    return DefaultTheory(w_out, d_out, table)


class ParseError(ValueError):
    """Syntax error with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__("%s (line %d, column %d)" % (message, line, column))
        self.line = line
        self.column = column


MAX_NESTING = 100
MAX_DEPTH = 200

_TOKEN_RE = re.compile(r"[a-z][a-z0-9_]*|&&|\|\||[!(),:/.]")


class _Tokens:
    def __init__(self, text: str):
        self.toks: list[tuple[str, int, int]] = []
        line = 1
        for raw in text.split("\n"):
            body = raw.split("#", 1)[0]
            pos = 0
            while pos < len(body):
                ch = body[pos]
                if ch.isspace():
                    pos += 1
                    continue
                m = _TOKEN_RE.match(body, pos)
                if not m:
                    raise ParseError("unexpected character %r" % ch, line, pos + 1)
                self.toks.append((m.group(), line, pos + 1))
                pos = m.end()
            line += 1
        self.i = 0
        self.depth = 0  # open `!` and `(` around the current position

    def peek(self) -> str | None:
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def pos(self) -> tuple[int, int]:
        if self.i < len(self.toks):
            _, ln, col = self.toks[self.i]
            return ln, col
        if self.toks:
            _, ln, col = self.toks[-1]
            return ln, col
        return 1, 1

    def take(self, expected: str | None = None) -> str:
        if self.i >= len(self.toks):
            ln, col = self.pos()
            raise ParseError("unexpected end of input", ln, col)
        tok, ln, col = self.toks[self.i]
        if expected is not None and tok != expected:
            raise ParseError("expected %r, found %r" % (expected, tok), ln, col)
        self.i += 1
        return tok


def _parse_formula(ts: _Tokens) -> Formula:
    return _parse_chain(ts)[0]


_CHAINS = (("||", Or), ("&&", And))


def _parse_chain(ts: _Tokens, level: int = 0) -> tuple[Formula, int]:
    """A left-deep `||` chain (level 0) of `&&` chains (level 1), and its tree depth."""
    op, node = _CHAINS[level]
    f, depth = _parse_lit(ts) if level else _parse_chain(ts, 1)
    while ts.peek() == op:
        ln, col = ts.pos()
        ts.take()
        g, d = _parse_lit(ts) if level else _parse_chain(ts, 1)
        f, depth = node(f, g), _deeper(max(depth, d), ln, col)
    return f, depth


def _deeper(depth: int, ln: int, col: int) -> int:
    """The depth of a node over a subtree `depth` deep, at most MAX_DEPTH."""
    if depth >= MAX_DEPTH:
        raise ParseError("formula more than %d levels deep" % MAX_DEPTH, ln, col)
    return depth + 1


def _parse_lit(ts: _Tokens) -> tuple[Formula, int]:
    tok = ts.peek()
    ln, col = ts.pos()
    if tok in ("!", "("):
        if ts.depth >= MAX_NESTING:
            raise ParseError("formula nested deeper than %d levels" % MAX_NESTING, ln, col)
        ts.take()
        ts.depth += 1
        if tok == "!":
            f, depth = _parse_lit(ts)
            f, depth = Not(f), _deeper(depth, ln, col)
        else:
            f, depth = _parse_chain(ts)
            ts.take(")")
        ts.depth -= 1
        return f, depth
    if tok is None:
        raise ParseError("unexpected end of input", ln, col)
    if not _ATOM_RE.match(tok):
        raise ParseError("expected an atom, found %r" % tok, ln, col)
    ts.take()
    return Atom(tok), 0


def parse_theory(text: str) -> DefaultTheory:
    """Parse theory text into a DefaultTheory; raises ParseError on bad input."""
    ts = _Tokens(text)
    world: list[Formula] = []
    defaults: list[tuple] = []
    while ts.peek() is not None:
        ln, col = ts.pos()
        kind = ts.take()
        if kind not in ("w", "d"):
            raise ParseError("expected 'w:' or 'd:', found %r" % kind, ln, col)
        ts.take(":")
        if kind == "w":
            world.append(_parse_formula(ts))
            ts.take(".")
            continue
        pre = _parse_formula(ts)
        ts.take(":")
        justs: list[Formula] = []
        if ts.peek() != "/":
            justs.append(_parse_formula(ts))
            while ts.peek() == ",":
                ts.take()
                justs.append(_parse_formula(ts))
        ts.take("/")
        cons = _parse_formula(ts)
        ts.take(".")
        defaults.append((pre, tuple(justs), cons))
    return make_theory(world, defaults)


def format_formula(f: Formula) -> str:
    """Render f so that parsing the result rebuilds the identical tree."""

    def walk(g: Formula, floor: int) -> str:
        if isinstance(g, Atom):
            return g.name
        if isinstance(g, Not):
            return "!" + walk(g.operand, 3)
        if isinstance(g, And):
            op, prec = " && ", 2
        else:
            op, prec = " || ", 1
        text = walk(g.left, prec) + op + walk(g.right, prec + 1)
        if prec < floor:
            return "(" + text + ")"
        return text

    return walk(f, 1)


def format_theory(theory: DefaultTheory) -> str:
    """Theory file text that parses back to an equal theory."""
    lines = []
    for f in theory.world:
        lines.append("w: %s." % format_formula(f))
    for d in theory.defaults:
        js = ", ".join(format_formula(j) for j in d.justifications)
        lines.append("d: %s : %s / %s." % (format_formula(d.prerequisite), js, format_formula(d.consequent)))
    return "\n".join(lines) + "\n"
