"""Reference implementations that the tests compare the package against.

The package decides formulas only in ``stats.holds_over`` and canonical
forms only in ``stats.canonical_patterns``; ``logic.holds``,
``logic.evaluate`` and ``data.canonicalize`` are calls of those kernels.
A test that checks a kernel against one of them would check it against
itself, so tests that need an independent answer use these instead: a tree
walker that grounds each quantifier by explicit enumeration, a canonicaliser
that tries every relabelling, and a substitution that rewrites the formula
tree.
"""

import itertools

from relmarg.data import CanonicalForm, GroundAtom, LocalExample
from relmarg.errors import DomainError
from relmarg.logic import And, Const, Eq, Exists, Not, Or, PredAtom, Var


def holds(f, atoms, domain, env=None) -> bool:
    """Tarskian evaluation: quantifiers range over ``domain``, a predicate
    atom is true iff its ``GroundAtom`` is in ``atoms``, equality is name
    identity, and ``env`` binds free variables to constant names."""
    domain = tuple(domain)
    env = {} if env is None else env

    def term(t):
        return env[t.name] if isinstance(t, Var) else t.name

    if isinstance(f, PredAtom):
        return GroundAtom(f.pred.name, tuple(term(t) for t in f.args)) in atoms
    if isinstance(f, Eq):
        return term(f.left) == term(f.right)
    if isinstance(f, Not):
        return not holds(f.sub, atoms, domain, env)
    if isinstance(f, And):
        return all(holds(p, atoms, domain, env) for p in f.parts)
    if isinstance(f, Or):
        return any(holds(p, atoms, domain, env) for p in f.parts)
    names = [v.name for v in f.vars]
    test = any if isinstance(f, Exists) else all
    return test(
        holds(f.body, atoms, domain, {**env, **dict(zip(names, combo))})
        for combo in itertools.product(domain, repeat=len(names))
    )


def evaluate(f, example) -> bool:
    """Whether the closed formula ``f`` holds in the ``GlobalExample``."""
    return holds(f, example.atoms, example.constants)


def canonicalize(local: LocalExample) -> CanonicalForm:
    """Minimizes the sorted atom tuple over all k! relabellings; the number
    of relabellings attaining the minimum is the automorphism count."""
    order = range(1, local.width + 1)
    best, hits = None, 0
    for perm in itertools.permutations(order):
        relabel = dict(zip(order, perm))
        image = tuple(sorted((p, tuple(relabel[a] for a in args)) for p, args in local.atoms))
        if best is None or image < best:
            best, hits = image, 1
        elif image == best:
            hits += 1
    return CanonicalForm(local.width, best, hits)


def apply_substitution(f, theta):
    """Replace the variables ``theta`` covers by its constants.  Quantified
    variables it covers leave their prefix; a quantifier with none left is
    dropped."""
    for target in theta.values():
        if not isinstance(target, Const):
            raise DomainError("substitution targets must be constants")

    def sub_term(t):
        return theta.get(t, t) if isinstance(t, Var) else t

    def go(g):
        if isinstance(g, PredAtom):
            return PredAtom(g.pred, tuple(sub_term(t) for t in g.args))
        if isinstance(g, Eq):
            return Eq(sub_term(g.left), sub_term(g.right))
        if isinstance(g, Not):
            return Not(go(g.sub))
        if isinstance(g, (And, Or)):
            return type(g)(tuple(go(p) for p in g.parts))
        remaining = tuple(v for v in g.vars if v not in theta)
        body = go(g.body)
        return type(g)(remaining, body) if remaining else body

    return go(f)
