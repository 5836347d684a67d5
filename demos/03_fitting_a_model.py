"""Fitting the max-entropy distribution for prescribed marginals.

Over three constants with one unary predicate there are eight possible
worlds.  We ask for models matching two marginal targets at once, read the
fitted weights, and confirm the result is the exponential family member the
weights describe.
"""

import math
from fractions import Fraction

from relmarg import (
    MarginalConstraint,
    ModelA,
    enumerate_worlds,
    model_distribution,
    parse_formula,
    solve_maxent,
)

space = enumerate_worlds(["a", "b", "c"], {"r": 1})
some = parse_formula("exists X: r(X)")
every = parse_formula("forall X: r(X)")

constraints = [
    MarginalConstraint(some, Fraction(3, 4)),
    MarginalConstraint(every, Fraction(1, 4)),
]
model = solve_maxent(constraints, space, ModelA(3))

print(f"converged in {model.iterations} iterations, gradient {model.grad_norm:.2e}")
for c, w, a in zip(constraints, model.weights, model.achieved_marginals):
    print(f"  target {str(c.theta):>4}  achieved {a:.12f}  weight {w:+.6f}")

dist = model_distribution(model)
print(f"\nworld probabilities (log partition {model.log_partition:.6f}):")
for idx, bits in enumerate(space.worlds):
    marked = [c for i, c in enumerate("abc") if bits >> i & 1]
    print(f"  r on {marked!r:<18} p = {dist.probs[idx]:.6f}")

# the probabilities are exactly exp(score - log_partition): no other
# distribution with these marginals has higher entropy
counts = space.count_matrix(model.formulas, model.kind)
check = max(
    abs(dist.probs[i] - math.exp(float(counts[i] @ model.weights) - model.log_partition))
    for i in range(len(space))
)
print(f"\nmax deviation from the exponential form: {check:.2e}")
print(f"entropy of the fit: {dist.entropy():.6f} nats")
