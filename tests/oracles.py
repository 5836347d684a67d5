"""Reference implementations that the tests compare the package against.

Each formula keeps one signature (``logic.Signature``) that one walk of
its tree builds, and the package reads its variables, constants,
predicates and table reads off it; the walkers here compute each of them
by a walk of its own.
The package decides formulas only in ``stats.holds_over`` and canonical
forms only in ``stats.canonical_patterns``; ``logic.holds``,
``logic.evaluate`` and ``data.canonicalize`` are calls of those kernels.
A test that checks a kernel against one of them would check it against
itself, so tests that need an independent answer use these instead: a tree
walker that grounds each quantifier by explicit enumeration, an
assignment loop over the truth tables of ``stats.holds_over`` (each
quantifier's variables take every ``itertools.product`` of the domain in
turn), a canonicaliser
that tries every relabelling, and a substitution that rewrites the formula
tree.  For polytopes there is a facet enumeration over every vertex subset
in Fractions, and the eta-interiority probe loop that asks
``hull_distance`` about every probe.  ``maxent.shrink_distribution``
gathers every subset's bit pattern from truth tables; its reference walks
each world's atoms subset by subset.  A ``GlobalExample`` holds
one position array per predicate, and ``expansion.expand``,
``expansion.noisy_expand``, ``data.fragment``,
``estimation.random_structure``, ``stats.structure_tables`` and the atom
checks of its constructor work on those arrays; their references go atom
by atom, build each structure from ``GroundAtom``s, and
``same_structure`` compares an array-built structure with an atom-built
one on everything a caller can read.
``expansion.residue_groundings`` lists an expansion's residue rows as one
array with one weight per row shape; its reference lists them one row at a
time, each with its own weight.
``stats.distinct_rows`` keys each row by one integer; its reference
compares whole rows.  ``worlds.world_tables`` reads each predicate's
table off its run's columns of a ``stats.PatternLayout``; its reference
decodes one atom bit at a time over the atom order of a world space.
``maxent.solve_maxent`` runs its Newton loop over a world space's distinct
count rows, weighted by their multiplicities; its reference runs the same
loop over every world's row of the count matrix.
"""

import functools
import itertools
import math
import operator
from fractions import Fraction

import numpy as np

from relmarg import maxent, stats
from relmarg.data import CanonicalForm, GlobalExample, GroundAtom, LocalExample, format_facts
from relmarg.errors import DomainError, VocabularyError
from relmarg.expansion import _extended_names
from relmarg.logic import And, Const, Eq, Exists, Forall, Not, Or, PredAtom, Var
from relmarg.polytope import ETA_PROBES, MEMBERSHIP_TOL, EtaVerdict, hull_distance
from relmarg.worlds import enumerate_worlds


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


def holds_over(f, tables, shape, domain, env):
    """``stats.holds_over`` by an assignment loop: quantifiers range over
    ``domain``, a list of position arrays of length G (or 1), one per
    domain element, and a quantifier's variables take every
    ``itertools.product`` of them in turn, its body decided once per
    assignment on the (G, S) ``shape`` and folded from all-false (exists)
    or all-true (forall)."""
    return np.broadcast_to(_holds_over(f, tables, shape, domain, env), shape)


def _holds_over(g, tables, shape, domain, env):
    if isinstance(g, PredAtom):
        table = tables.get(g.pred.name)
        if table is None:
            return np.zeros(shape, dtype=bool)
        return table[tuple(env[t.name] for t in g.args)]
    if isinstance(g, Eq):
        return (env[g.left.name] == env[g.right.name])[:, None]
    if isinstance(g, Not):
        return ~_holds_over(g.sub, tables, shape, domain, env)
    if isinstance(g, (And, Or)):
        parts = (_holds_over(p, tables, shape, domain, env) for p in g.parts)
        return functools.reduce(operator.and_ if isinstance(g, And) else operator.or_, parts)
    names = [v.name for v in g.vars]
    exists = isinstance(g, Exists)
    out = np.full(shape, not exists)
    inner = dict(env)
    for combo in itertools.product(domain, repeat=len(names)):
        inner.update(zip(names, combo))
        if exists:
            out |= _holds_over(g.body, tables, shape, domain, inner)
        else:
            out &= _holds_over(g.body, tables, shape, domain, inner)
    return out


def evaluate(f, example) -> bool:
    """Whether the closed formula ``f`` holds in the ``GlobalExample``."""
    return holds(f, example.atoms, example.constants)


def _walk(f):
    yield f
    if isinstance(f, Not):
        yield from _walk(f.sub)
    elif isinstance(f, (And, Or)):
        for p in f.parts:
            yield from _walk(p)
    elif isinstance(f, (Forall, Exists)):
        yield from _walk(f.body)


def vars_of(f):
    """All variables occurring in ``f``, bound or free."""
    out = set()
    for g in _walk(f):
        if isinstance(g, PredAtom):
            out.update(t for t in g.args if isinstance(t, Var))
        elif isinstance(g, Eq):
            out.update(t for t in (g.left, g.right) if isinstance(t, Var))
        elif isinstance(g, (Forall, Exists)):
            out.update(g.vars)
    return frozenset(out)


def free_vars(f):
    if isinstance(f, PredAtom):
        return frozenset(t for t in f.args if isinstance(t, Var))
    if isinstance(f, Eq):
        return frozenset(t for t in (f.left, f.right) if isinstance(t, Var))
    if isinstance(f, Not):
        return free_vars(f.sub)
    if isinstance(f, (And, Or)):
        return frozenset().union(*(free_vars(p) for p in f.parts))
    return free_vars(f.body) - frozenset(f.vars)


def constants_of(f):
    out = set()
    for g in _walk(f):
        if isinstance(g, PredAtom):
            out.update(t.name for t in g.args if isinstance(t, Const))
        elif isinstance(g, Eq):
            out.update(t.name for t in (g.left, g.right) if isinstance(t, Const))
    return frozenset(out)


def vocabulary_of(f):
    """Predicate name -> arity in pre-order of first use; raises on
    inconsistent use."""
    vocab = {}
    for g in _walk(f):
        if isinstance(g, PredAtom):
            seen = vocab.setdefault(g.pred.name, g.pred.arity)
            if seen != g.pred.arity:
                raise VocabularyError(
                    f"predicate {g.pred.name!r} used with arities {seen} and {g.pred.arity}"
                )
    return vocab


def quantifier_free(f):
    return not any(isinstance(g, (Forall, Exists)) for g in _walk(f))


def nesting(f):
    """The most variables that a quantifier of ``f`` and those around it
    bind."""
    if isinstance(f, (PredAtom, Eq)):
        return 0
    if isinstance(f, Not):
        return nesting(f.sub)
    if isinstance(f, (And, Or)):
        return max(map(nesting, f.parts), default=0)
    return len(f.vars) + nesting(f.body)


def table_reads(f, k):
    """Table reads per grounding of ``f`` at width k: one per atom
    occurrence and assignment of the variables of the quantifiers around
    it."""
    if isinstance(f, PredAtom):
        return 1
    if isinstance(f, Eq):
        return 0
    if isinstance(f, Not):
        return table_reads(f.sub, k)
    if isinstance(f, (And, Or)):
        return sum(table_reads(p, k) for p in f.parts)
    return k ** len(f.vars) * table_reads(f.body, k)


def expand(example, level):
    """``expansion.expand`` atom by atom: each base atom's distinct
    constants take every combination of copies, c_{r+1+t*n} for copy t of
    the constant at position r."""
    if level < 1:
        raise DomainError("expansion level must be at least 1")
    if not example.constants:
        raise DomainError("cannot expand an empty constant set")
    if level == 1:
        return example
    n = len(example.constants)
    names = _extended_names(example.constants, level)
    index = {c: i for i, c in enumerate(example.constants)}
    atoms = set()
    for atom in example.atoms:
        distinct = sorted(set(atom.args), key=atom.args.index)
        choices = [[names[index[c] + t * n] for t in range(level)] for c in distinct]
        for picks in itertools.product(*choices):
            relabel = dict(zip(distinct, picks))
            atoms.add(GroundAtom(atom.pred, tuple(relabel[a] for a in atom.args)))
    return GlobalExample(tuple(names), frozenset(atoms), example.vocab)


def noisy_expand(example, level, eps, rng):
    """``expansion.noisy_expand`` atom by atom: the per-atom expansion,
    then, predicates by name, residues in order and copies in product
    order, one ``rng.random() < eps`` draw for each ground atom over
    pairwise-congruent constants that the expansion lacks."""
    if not 0 <= eps <= 1:
        raise DomainError(f"noise probability {eps} outside [0, 1]")
    expanded = expand(example, level)
    n = len(example.constants)
    vocab = example.vocabulary()
    atoms = set(expanded.atoms)
    for pred in sorted(vocab):
        for residue in range(n):
            copies = [expanded.constants[residue + t * n] for t in range(level)]
            for args in itertools.product(copies, repeat=vocab[pred]):
                atom = GroundAtom(pred, args)
                if atom not in expanded.atoms and rng.random() < eps:
                    atoms.add(atom)
    return GlobalExample(expanded.constants, frozenset(atoms), example.vocab)


def fragment(example, subset):
    """``data.fragment`` atom by atom: the atoms whose constants all lie in
    ``subset``, over the subset in the example's order, with the example's
    whole vocabulary declared."""
    chosen = set(subset)
    kept = tuple(c for c in example.constants if c in chosen)
    atoms = frozenset(a for a in example.atoms if all(arg in chosen for arg in a.args))
    return GlobalExample(kept, atoms, example.vocabulary())


def random_structure(n, vocabulary, density, rng):
    """``estimation.random_structure`` atom by atom: one ``rng.random() <
    density`` draw per ground atom over c1..cn, predicates by name and
    arguments in product order."""
    constants = tuple(f"c{i}" for i in range(1, n + 1))
    atoms = [
        GroundAtom(pred, args)
        for pred in sorted(vocabulary)
        for args in itertools.product(constants, repeat=vocabulary[pred])
        if rng.random() < density
    ]
    return GlobalExample(constants, atoms, dict(vocabulary))


def same_structure(got, want):
    """Assert that the structures ``got`` and ``want`` agree on equality,
    hashing, atoms, printing, the facts format, the vocabulary in order and
    the truth tables of every predicate of the vocabulary."""
    assert got == want and want == got and hash(got) == hash(want)
    assert got.constants == want.constants and got.atoms == want.atoms
    assert str(got) == str(want) and format_facts(got) == format_facts(want)
    assert list(got.vocabulary().items()) == list(want.vocabulary().items())
    vocabulary = want.vocabulary()
    tables = stats.structure_tables(got, vocabulary)
    for p, table in structure_tables(want, vocabulary).items():
        assert tables[p].shape == table.shape and np.array_equal(tables[p], table)


def world_tables(worlds, n, vocabulary, named):
    """Truth tables of the bit patterns ``worlds`` over the atoms of a world
    space on ``n`` constants, one atom bit at a time: atom bits go through
    the predicates by name and each one's argument positions in
    ``itertools.product`` order, and ``tables[p][i, j, ..., w]`` is the bit
    of ``p(i, j, ...)`` in world w, for the predicates in ``named``."""
    order = [(p, args) for p in sorted(vocabulary)
             for args in itertools.product(range(n), repeat=vocabulary[p])]
    tables = {p: np.zeros((n,) * a + (len(worlds),), dtype=bool)
              for p, a in vocabulary.items() if p in named}
    for bit, (p, args) in enumerate(order):
        if p in tables:
            for w, bits in enumerate(worlds.tolist()):
                tables[p][args + (w,)] = bool(bits >> bit & 1)
    return tables


def residue_groundings(kind, width, n, level):
    """``expansion.residue_groundings`` one row at a time, as (row, weight)
    pairs: in each residue tuple of ``kind.residue_orders`` the i-th
    argument with residue r is copy i of r, counted in a dict, and the row
    weighs prod_r ``kind.ways(level, c_r)``; rows of weight 0 are left
    out."""
    out = []
    for residues in kind.residue_orders(range(n), width):
        copies = {}
        row = []
        for r in residues:
            row.append(r + copies.get(r, 0) * n)
            copies[r] = copies.get(r, 0) + 1
        weight = math.prod(kind.ways(level, c) for c in copies.values())
        if weight:
            out.append((tuple(row), weight))
    return out


def structure_tables(example, vocabulary):
    """``stats.structure_tables`` one numpy cell per ground atom."""
    n = len(example.constants)
    position = {c: i for i, c in enumerate(example.constants)}
    tables = {p: np.zeros((n,) * arity + (1,), dtype=bool) for p, arity in vocabulary.items()}
    for atom in example.atoms:
        table = tables.get(atom.pred)
        if table is not None:
            table[tuple(position[c] for c in atom.args) + (0,)] = True
    return tables


def atom_error(constants, atoms, vocab=None):
    """The error ``GlobalExample(constants, atoms, vocab)`` raises for its
    atoms, or None: the first atom in (predicate, arguments) order that
    uses a constant outside ``constants`` or a second arity, a declared
    arity coming first."""
    atoms = [a if isinstance(a, GroundAtom) else GroundAtom(a[0], tuple(a[1])) for a in atoms]
    arity = dict(vocab or {})
    for atom in sorted(set(atoms), key=lambda a: (a.pred, a.args)):
        for arg in atom.args:
            if arg not in constants:
                return DomainError(f"atom {atom} uses constant {arg!r} outside the constant set")
        seen = arity.setdefault(atom.pred, len(atom.args))
        if seen != len(atom.args):
            return VocabularyError(
                f"predicate {atom.pred!r} used with arities {seen} and {len(atom.args)}"
            )
    return None


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


def shrink_probabilities(dist, m):
    """Target space and probabilities of the size-``m`` shrink of the
    ``ExplicitDistribution`` ``dist``: each world's probability split evenly
    over its m-subsets, each subset's fragment relabelled onto the first m
    constants and encoded atom by atom in the target space."""
    src = dist.space
    target_constants = src.constants[:m]
    target = enumerate_worlds(target_constants, src.vocabulary)
    subsets = math.comb(len(src.constants), m)
    out = [0] * len(target)
    for bits, p in zip(src.worlds, dist.probs):
        atoms = src.world_atoms(int(bits))
        for combo in itertools.combinations(src.constants, m):
            relabel = dict(zip(combo, target_constants))
            fragment = [
                GroundAtom(a.pred, tuple(relabel[c] for c in a.args))
                for a in atoms
                if all(c in relabel for c in a.args)
            ]
            world = GlobalExample(target_constants, fragment, src.vocabulary)
            out[target.world_index(target.encode(world))] += p / subsets
    return target, out


def distinct_rows(rows):
    """First index and multiplicity of each distinct row, in order of first
    appearance, and each row's distinct row in that order, from
    ``np.unique(axis=0)``, which compares whole rows and keys nothing."""
    _, first, inverse, counts = np.unique(
        rows, axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    # numpy 2.0.0 shapes the axis=0 inverse (rows, 1); later versions, (rows,)
    return first[order], counts[order], rank[inverse.reshape(-1)]


def solve_maxent(constraints, space, kind, max_iter=20000):
    """``maxent.solve_maxent`` over worlds: the same damped Newton loop, with
    the same tolerance, cap, halvings and diagnosis, on the count matrix,
    one row per world.  Returns the weights, the log partition function,
    the achieved marginals and the probability of each world."""
    constraints = tuple(constraints)
    formulas = tuple(c.formula for c in constraints)
    counts = space.count_matrix(formulas, kind).astype(float)
    norms = space.normalizers(formulas, kind).astype(float)
    target = np.array([float(c.theta) for c in constraints]) * norms

    def distribution(w):
        scores = counts @ w
        shift = scores.max()
        weights = np.exp(scores - shift)
        total = weights.sum()
        return float(shift + np.log(total)), weights / total

    w = np.zeros(len(constraints))
    lse, p = distribution(w)
    mean = counts.T @ p
    grad = target - mean
    iterations = 0
    while iterations < max_iter and grad.any():
        cov = (counts * p[:, None]).T @ counts - np.outer(mean, mean)
        direction = np.linalg.lstsq(cov, grad, rcond=None)[0]
        norm = np.linalg.norm(grad)
        polishing = np.abs(grad).max() < maxent.TOL
        for _ in range(1 if polishing else 60):
            trial_lse, trial_p = distribution(w + direction)
            trial_mean = counts.T @ trial_p
            if np.linalg.norm(target - trial_mean) < norm:
                break
            direction = direction / 2.0
        else:
            break
        if float(np.abs(w + direction).max()) > maxent.WEIGHT_CAP:
            if polishing:
                break
            maxent._raise_not_realizable(constraints, space, kind)
        iterations += 1
        w = w + direction
        lse, p, mean = trial_lse, trial_p, trial_mean
        grad = target - mean
    if float(np.abs(grad).max()) >= maxent.TOL:
        maxent._raise_not_realizable(constraints, space, kind, stalled=True)
    return w, lse, mean / norms, p


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


def _dot(u, w):
    return sum(map(operator.mul, u, w))


def _orthogonal_basis(vectors):
    """Gram-Schmidt in integers: an orthogonal basis of the span of rational
    ``vectors``, whose first members span the first vectors.  Each vector is
    scaled to integers, and w - (w.b / b.b) b is kept as its positive
    multiple (b.b) w - (w.b) b divided by its gcd."""
    basis = []
    for v in vectors:
        scale = math.lcm(*(c.denominator for c in v))
        w = [c.numerator * (scale // c.denominator) for c in v]
        for b, bb in basis:
            wb = _dot(w, b)
            if wb:
                w = [bb * x - wb * y for x, y in zip(w, b)]
                g = math.gcd(*w)
                w = [x // g for x in w] if g > 1 else w
        if any(w):
            basis.append((w, _dot(w, w)))
    return [b for b, _ in basis]


def span_rank(vectors):
    """Dimension of the span of rational ``vectors``."""
    return len(_orthogonal_basis([[Fraction(c) for c in v] for v in vectors]))


def primitive(values):
    """The positive multiple of rational ``values`` that is a primitive
    integer vector."""
    scale = math.lcm(*(Fraction(v).denominator for v in values))
    ints = [int(Fraction(v) * scale) for v in values]
    g = math.gcd(*ints)
    return [x // g for x in ints] if g else ints


def hull_facets(vertices):
    """Affine rank of ``vertices`` and their hull's facets, by trying every
    vertex subset.

    A subset F is a facet when its affine span has dimension rank - 1 and the
    normal n of that span within the vertices' affine span has every vertex
    on one side, with exactly F on the hyperplane.  Facets map their index
    sets to the primitive integer (n, n.f) with n.x <= n.f on the hull.
    The vertices are scaled by the lcm of their denominators, so that the
    search runs in integers.
    """
    scale = math.lcm(*(Fraction(c).denominator for v in vertices for c in v))
    vs = [[int(Fraction(c) * scale) for c in v] for v in vertices]

    def edges(points):
        return [[a - b for a, b in zip(p, points[0])] for p in points]

    hull = _orthogonal_basis(edges(vs))
    rank = len(hull)
    facets = {}
    for size in range(max(rank, 1), len(vs) + 1):
        for subset in itertools.combinations(range(len(vs)), size):
            face = _orthogonal_basis(edges([vs[i] for i in subset]))
            if len(face) != rank - 1:
                continue
            normal = _orthogonal_basis(face + hull)[rank - 1]
            sides = [_dot(normal, v) - _dot(normal, vs[subset[0]]) for v in vs]
            if all(s >= 0 for s in sides):
                normal = [-c for c in normal]
            elif not all(s <= 0 for s in sides):
                continue
            if {i for i, s in enumerate(sides) if s == 0} == set(subset):
                *a, b = primitive(normal + [Fraction(_dot(normal, vs[subset[0]]), scale)])
                facets[frozenset(subset)] = (tuple(a), b)
    return rank, facets


def eta_interior(point, eta, polytope):
    """``polytope.eta_interior`` by asking ``hull_distance`` about every
    probe: the 2*dim coordinate directions, then ``ETA_PROBES`` random unit
    directions from a generator seeded with 0, until one leaves the hull."""
    d = polytope.dim
    if d == 0:
        return EtaVerdict(True, eta, None, 0)
    p = np.array([float(c) for c in point], dtype=float)
    directions = []
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1.0
        directions.extend((e, -e))
    rng = np.random.default_rng(0)
    for _ in range(ETA_PROBES):
        v = rng.standard_normal(d)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            directions.append(v / norm)
    checked = 0
    for direction in directions:
        checked += 1
        if hull_distance(p + eta * direction, polytope) >= MEMBERSHIP_TOL:
            return EtaVerdict(False, eta, tuple(float(c) for c in direction), checked)
    return EtaVerdict(True, eta, None, checked)
