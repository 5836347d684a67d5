"""Function-free first-order formulas: syntax tree, parser, printer, evaluation.

Grammar (precedence from loose to tight: quantifier prefix, ->, |, &, ~)::

    formula := quant* expr
    quant   := ("forall" | "exists") var ("," var)* ":"
    expr    := impl
    impl    := disj ("->" disj)?
    disj    := conj ("|" conj)*
    conj    := unary ("&" unary)*
    unary   := "~" unary | "(" formula ")" | atom
    atom    := pred "(" term ("," term)* ")" | term "=" term | term "!=" term

Identifiers starting with an upper-case letter are variables, lower-case
identifiers are constants or predicate names.  ``a -> b`` desugars to
``~a | b`` and ``a != b`` to ``~(a = b)`` at parse time, so the tree has no
implication or inequality nodes.  Equality is decided by name identity
(unique-names assumption).

Each formula node keeps the ``Signature`` of its tree once it is read:
its free variables, variables, constants, predicates, quantifier count and
the quantifier depth of each atom, from one walk.  ``vars_of``,
``free_vars``, ``constants_of``, ``vocabulary_of`` and ``quantifier_free``
read it, as do the formula checks of ``stats`` and ``worlds``, so a formula
checked again is not walked again.

This module decides no formula itself: ``holds`` (on a set of ground
atoms) and ``evaluate`` (on a structure's position arrays, and through it
``unsatisfied_rules``) build one structure's truth tables and call
``stats.holds_over``, the evaluator behind every statistic, count matrix
and hard-rule filter.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .data import GlobalExample, GroundAtom
from .errors import DomainError, FormulaSyntaxError, VocabularyError


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Const:
    name: str

    def __str__(self):
        return self.name


Term = Var | Const


@dataclass(frozen=True)
class Predicate:
    name: str
    arity: int


class _Node:
    """A formula node keeps the hash of its fields, computed once from its
    children's kept hashes, so that a cache keyed on formulas (the pattern
    tables, the count matrices) does not walk a whole tree on every lookup.
    It also keeps its ``signature`` once it is read, so that checking a
    formula again walks nothing; a subformula keeps none unless it is asked
    itself.  Neither is a dataclass field, so ``==``, ``repr`` and pickling
    see only the fields.  Each node class names ``__hash__`` in its own
    body, which a frozen dataclass keeps in place of the one it would
    generate."""

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(self._fields()))

    @functools.cached_property
    def signature(self) -> Signature:
        """The free variables, variables, constants, predicates, quantifier
        count and atom depths of this formula (``Signature``)."""
        return _signature(self)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # string hashes differ between processes: a loaded node hashes again
        return type(self), self._fields()


@dataclass(frozen=True)
class PredAtom(_Node):
    pred: Predicate
    args: tuple[Term, ...]
    __hash__ = _Node.__hash__

    def __post_init__(self):
        if len(self.args) != self.pred.arity:
            raise DomainError(
                f"atom {self.pred.name} expects {self.pred.arity} arguments, got {len(self.args)}"
            )
        super().__post_init__()


@dataclass(frozen=True)
class Eq(_Node):
    left: Term
    right: Term
    __hash__ = _Node.__hash__


@dataclass(frozen=True)
class Not(_Node):
    sub: "Formula"
    __hash__ = _Node.__hash__


@dataclass(frozen=True)
class And(_Node):
    parts: tuple["Formula", ...]
    __hash__ = _Node.__hash__


@dataclass(frozen=True)
class Or(_Node):
    parts: tuple["Formula", ...]
    __hash__ = _Node.__hash__


@dataclass(frozen=True)
class Forall(_Node):
    vars: tuple[Var, ...]
    body: "Formula"
    __hash__ = _Node.__hash__


@dataclass(frozen=True)
class Exists(_Node):
    vars: tuple[Var, ...]
    body: "Formula"
    __hash__ = _Node.__hash__


Formula = PredAtom | Eq | Not | And | Or | Forall | Exists

_KEYWORDS = ("forall", "exists")


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<arrow>->)"
    r"|(?P<neq>!=)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<sym>[(),:~&|=])"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # ident | arrow | neq | sym | eof
    value: str
    line: int
    col: int


def _tokenize(text: str, source: str) -> list[_Token]:
    tokens = []
    pos = 0
    line, line_start = 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1, source
            )
        kind = m.lastgroup
        value = m.group()
        if kind != "ws":
            tokens.append(_Token(kind, value, line, pos - line_start + 1))
        line += value.count("\n")
        if "\n" in value:
            line_start = pos + value.rindex("\n") + 1
        pos = m.end()
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], source: str):
        self.tokens = tokens
        self.pos = 0
        self.source = source
        self.seen_arity: dict[str, int] = {}
        self.bound: list[str] = []  # variables bound on the path to here

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise FormulaSyntaxError(message, tok.line, tok.col, self.source)

    def expect(self, value: str) -> _Token:
        tok = self.peek()
        if tok.value != value:
            shown = tok.value or "end of input"
            self.fail(f"expected {value!r}, found {shown!r}")
        return self.next()

    def parse(self) -> Formula:
        f = self.formula()
        if self.peek().kind != "eof":
            self.fail(f"unexpected trailing input {self.peek().value!r}")
        return f

    def formula(self) -> Formula:
        tok = self.peek()
        if tok.kind == "ident" and tok.value in _KEYWORDS:
            self.next()
            depth = len(self.bound)
            vs = [self.variable()]
            while self.peek().value == ",":
                self.next()
                vs.append(self.variable())
            self.expect(":")
            body = self.formula()
            del self.bound[depth:]
            node = Forall if tok.value == "forall" else Exists
            return node(tuple(vs), body)
        return self.impl()

    def variable(self) -> Var:
        tok = self.peek()
        if tok.kind != "ident" or not tok.value[0].isupper():
            self.fail("expected a variable (upper-case identifier)")
        # a variable may be bound at most once on any root-to-leaf path
        if tok.value in self.bound:
            self.fail(f"variable {tok.value} is bound twice")
        self.bound.append(tok.value)
        self.next()
        return Var(tok.value)

    def impl(self) -> Formula:
        left = self.disj()
        if self.peek().kind == "arrow":
            self.next()
            right = self.disj()
            return Or((Not(left), right))
        return left

    def disj(self) -> Formula:
        parts = [self.conj()]
        while self.peek().value == "|":
            self.next()
            parts.append(self.conj())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def conj(self) -> Formula:
        parts = [self.unary()]
        while self.peek().value == "&":
            self.next()
            parts.append(self.unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.value == "~":
            self.next()
            return Not(self.unary())
        if tok.value == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        return self.atom()

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind != "ident":
            shown = tok.value or "end of input"
            self.fail(f"expected an atom, found {shown!r}")
        if tok.value in _KEYWORDS:
            self.fail(f"{tok.value!r} is a reserved keyword")
        self.next()
        if tok.value[0].islower() and self.peek().value == "(":
            return self.pred_atom(tok)
        left = Var(tok.value) if tok.value[0].isupper() else Const(tok.value)
        op = self.peek()
        if op.value == "=":
            self.next()
            return Eq(left, self.term())
        if op.kind == "neq":
            self.next()
            return Not(Eq(left, self.term()))
        self.fail("expected '(' (predicate atom) or '='/'!=' (equality atom)", op)

    def pred_atom(self, name_tok: _Token) -> PredAtom:
        self.expect("(")
        args = [self.term()]
        while self.peek().value == ",":
            self.next()
            args.append(self.term())
        self.expect(")")
        arity = len(args)
        name = name_tok.value
        seen = self.seen_arity.setdefault(name, arity)
        if seen != arity:
            self.fail(f"predicate {name!r} used with arity {arity} and {seen}", name_tok)
        return PredAtom(Predicate(name, arity), tuple(args))

    def term(self) -> Term:
        tok = self.peek()
        if tok.kind != "ident" or tok.value in _KEYWORDS:
            shown = tok.value or "end of input"
            self.fail(f"expected a term, found {shown!r}")
        self.next()
        return Var(tok.value) if tok.value[0].isupper() else Const(tok.value)


def parse_formula(text: str, source: str = "<formula>") -> Formula:
    """Parse ``text`` into a formula tree.

    A predicate used with two arities is a syntax error, as is a variable
    bound again inside its own scope; arities are checked
    against a structure's vocabulary where the formula is used
    (``stats.check_formula``, ``merge_vocabulary``).  Errors carry line and
    column numbers.
    """
    return _Parser(_tokenize(text, source), source).parse()


# ---------------------------------------------------------------------------
# printing

def _prec(f: Formula) -> int:
    if isinstance(f, (PredAtom, Eq)):
        return 5
    if isinstance(f, Not):
        return 5 if isinstance(f.sub, Eq) else 4
    if isinstance(f, And):
        return 3
    if isinstance(f, Or):
        return 2
    return 1  # quantifiers


def _fmt(f: Formula, minp: int) -> str:
    if isinstance(f, PredAtom):
        s = f"{f.pred.name}({','.join(t.name for t in f.args)})"
    elif isinstance(f, Eq):
        s = f"{f.left.name} = {f.right.name}"
    elif isinstance(f, Not) and isinstance(f.sub, Eq):
        s = f"{f.sub.left.name} != {f.sub.right.name}"
    elif isinstance(f, Not):
        s = "~" + _fmt(f.sub, 4)
    elif isinstance(f, And):
        s = " & ".join(_fmt(p, 4) for p in f.parts)
    elif isinstance(f, Or):
        s = " | ".join(_fmt(p, 3) for p in f.parts)
    elif isinstance(f, (Forall, Exists)):
        word = "forall" if isinstance(f, Forall) else "exists"
        s = f"{word} {', '.join(v.name for v in f.vars)}: {_fmt(f.body, 1)}"
    else:
        raise TypeError(f"not a formula: {f!r}")
    return f"({s})" if _prec(f) < minp else s


def format_formula(f: Formula) -> str:
    """Render ``f`` so that ``parse_formula(format_formula(f))`` returns ``f``."""
    return _fmt(f, 1)


for _node in (PredAtom, Eq, Not, And, Or, Forall, Exists):
    _node.__str__ = format_formula


# ---------------------------------------------------------------------------
# structural queries

class Signature(NamedTuple):
    """What the structural queries read off a formula, from one walk of its
    tree: its ``free`` variables, all its ``variables`` and its
    ``constants`` (names), each in order of first occurrence; its distinct
    ``predicates`` in pre-order of first occurrence; its number of
    ``quantifiers``; and the ``depths`` of its predicate atoms in pre-order,
    the number of variables that the quantifiers around each one bind."""

    free: tuple[Var, ...]
    variables: tuple[Var, ...]
    constants: tuple[str, ...]
    predicates: tuple[Predicate, ...]
    quantifiers: int
    depths: tuple[int, ...]


def _signature(f: Formula) -> Signature:
    """The ``Signature`` of ``f``, from one pre-order walk that reads no
    subformula's signature."""
    free, variables, constants, predicates, depths = {}, {}, {}, {}, []
    quantifiers = 0
    stack = [(f, ())]  # a node and the variables bound around it
    while stack:
        g, bound = stack.pop()
        node = type(g)  # dispatch on the exact node class: this walk is hot
        if node is Not:
            stack.append((g.sub, bound))
        elif node is And or node is Or:
            stack.extend((p, bound) for p in reversed(g.parts))
        elif node is Forall or node is Exists:
            quantifiers += 1
            variables.update(dict.fromkeys(g.vars))
            stack.append((g.body, bound + g.vars))
        else:
            if node is PredAtom:
                predicates[g.pred] = None
                depths.append(len(bound))
            for t in g.args if node is PredAtom else (g.left, g.right):
                if type(t) is Const:
                    constants[t.name] = None
                else:
                    variables[t] = None
                    if t not in bound:
                        free[t] = None
    found = map(tuple, (free, variables, constants, predicates))
    return Signature(*found, quantifiers, tuple(depths))


def vars_of(f: Formula) -> frozenset[Var]:
    """All variables occurring in ``f``, bound or free."""
    return frozenset(f.signature.variables)


def free_vars(f: Formula) -> frozenset[Var]:
    return frozenset(f.signature.free)


def constants_of(f: Formula) -> frozenset[str]:
    return frozenset(f.signature.constants)


def vocabulary_of(f: Formula) -> dict[str, int]:
    """Predicate name -> arity used in ``f``, in order of first occurrence;
    raises on inconsistent use."""
    vocab: dict[str, int] = {}
    for p in f.signature.predicates:
        seen = vocab.setdefault(p.name, p.arity)
        if seen != p.arity:
            raise VocabularyError(f"predicate {p.name!r} used with arities {seen} and {p.arity}")
    return vocab


def merge_vocabulary(*vocabs: Mapping[str, int]) -> dict[str, int]:
    merged: dict[str, int] = {}
    for vocab in vocabs:
        for name, arity in vocab.items():
            seen = merged.setdefault(name, arity)
            if seen != arity:
                raise VocabularyError(
                    f"predicate {name!r} declared with arities {seen} and {arity}"
                )
    return merged


def quantifier_free(f: Formula) -> bool:
    return not f.signature.quantifiers


def strip_foralls(f: Formula) -> tuple[tuple[Var, ...], Formula]:
    """Split a leading universal prefix from its matrix."""
    vs: list[Var] = []
    while isinstance(f, Forall):
        vs.extend(f.vars)
        f = f.body
    return tuple(vs), f


# ---------------------------------------------------------------------------
# evaluation

def holds(
    f: Formula,
    atoms: frozenset[GroundAtom],
    domain: Iterable[str],
    env: dict[str, str] | None = None,
) -> bool:
    """Tarskian evaluation, no validation.

    Quantifiers range over ``domain``; a predicate atom is true iff the
    corresponding ground atom is in ``atoms``.  Free variables must be covered
    by ``env`` (variable name -> constant name).

    This is ``stats.holds_over`` at one grounding of one structure, whose
    constants are the names in ``domain``, ``env``, ``f`` and the atoms of
    ``f``'s predicates; constants are bound by name, as in the hard-rule
    filter of ``enumerate_worlds``.  Truth tables over
    ``stats.TABLE_CELL_CAP`` cells raise ``CapExceededError``.
    """
    # stats imports this module, so the kernel is imported at call time
    from . import stats

    vocabulary = vocabulary_of(f)
    kept = [a for a in atoms if vocabulary.get(a.pred) == len(a.args)]
    dom = tuple(domain)
    env = {} if env is None else env
    names = tuple(dict.fromkeys(itertools.chain(
        dom, env.values(), sorted(f.signature.constants), (c for a in kept for c in a.args)
    )))
    tables = stats.structure_tables(GlobalExample(names, kept), vocabulary)
    return _holds_at(f, tables, names, dom, env)


def _holds_at(
    f: Formula, tables: Mapping[str, np.ndarray], names: tuple[str, ...], domain, env
) -> bool:
    """``stats.holds_over`` at one grounding of the one structure whose
    truth ``tables`` are over the constants ``names``: quantifiers range
    over the constants in ``domain``, constants are bound by name and the
    free variables by ``env`` (variable name -> constant name)."""
    from . import stats

    position = {c: np.array([i]) for i, c in enumerate(names)}
    bound = {**position, **{v: position[c] for v, c in env.items()}}
    return bool(stats.holds_over(f, tables, (1, 1), [position[c] for c in domain], bound)[0, 0])


def evaluate(f: Formula, example) -> bool:
    """Whether the closed formula ``f`` holds in ``example`` (a GlobalExample).

    Quantifiers range over ``example.constants``; equality is name identity.
    The formula is decided on the example's truth tables
    (``stats.structure_tables``), so no ground atom is built.
    """
    from . import stats

    signature = f.signature
    if signature.free:
        names = sorted(v.name for v in signature.free)
        raise DomainError(f"formula is not closed (free: {', '.join(names)})")
    unknown = set(signature.constants) - set(example.constants)
    if unknown:
        raise DomainError(f"unknown constant(s): {', '.join(sorted(unknown))}")
    vocabulary = vocabulary_of(f)
    merge_vocabulary(vocabulary, example.vocabulary())
    tables = stats.structure_tables(example, vocabulary)
    return _holds_at(f, tables, example.constants, example.constants, {})


def unsatisfied_rules(rules: Iterable[Formula], example) -> list[Formula]:
    """The subset of ``rules`` that ``example`` violates."""
    return [r for r in rules if not evaluate(r, example)]

