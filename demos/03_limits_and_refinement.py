"""How close is the default grid to the best possible one?

For certificates that are monotone in the violation index, there is a
hard floor: no admissible grid at confidence beta can go below the
fundamental lower limits.  The default (uniform-weight) grid sits above
that floor; refining the weights with iterated linear programs pushes
every cell down toward it simultaneously, never making any cell worse.
"""

import numpy as np

from scencert import (
    CertificateProblem,
    CoefficientVector,
    bound_table,
    dominance_check,
    lower_limit_table,
    refine,
)

problem = CertificateProblem(n=100, m=5, zeta=8, beta=1e-6)
weights = CoefficientVector.uniform(problem)

uniform_grid = bound_table(problem, weights)
limits = lower_limit_table(problem)
trace = refine(problem, weights)
refined_grid = trace.final.table

print(f"refinement: {trace.termination} after {len(trace.iterations) - 1} steps")
print("largest root increase per step:",
      [f"{it.max_t_increase:.2e}" for it in trace.iterations[1:]], "\n")

print(" k   l   lower    uniform  refined")
for k in (1, 4, 8):
    for l in (0, 3, 5):
        print(f"{k:>2}  {l:>2}   {limits.eps_lower[k, l]:.4f}   "
              f"{uniform_grid.eps[k, l]:.4f}   {refined_grid.eps[k, l]:.4f}")

improved = int(np.sum(uniform_grid.eps - refined_grid.eps > 1e-6))
print(f"\ncells strictly improved: {improved} of {uniform_grid.eps.size}")
print("no cell went below the floor:",
      bool(np.all(refined_grid.eps >= limits.eps_lower - 2e-10)))

cells, everywhere = dominance_check(trace.final.coefficients, uniform_grid)
print("refined weights dominate the uniform grid cellwise:", everywhere)
