"""The full certificate grid and its structure.

The two-indexed bound eps(k, l) is a table over all possible observation
pairs: k support constraints (rows) and l validation violations
(columns).  Two structural facts make it trustworthy to look things up:

* within a row, more violations never certify less risk (monotone in l),
* the last column (l = m, every validation sample violated) carries no
  validation information and equals the support-count-only bound.
"""

import numpy as np

from scencert import CertificateProblem, CoefficientVector, bound_table, wait_and_judge
from scencert.serialize import table_csv

problem = CertificateProblem(n=50, m=30, zeta=10, beta=1e-6)
weights = CoefficientVector.uniform(problem)

table = bound_table(problem, weights)
print(f"grid shape (zeta+1) x (m+1): {table.eps.shape}\n")

shown_l = [0, 5, 10, 20, 30]
header = "k \\ l " + "".join(f"{l:>9}" for l in shown_l)
print(header)
for k in range(0, problem.zeta + 1, 2):
    row = " ".join(f"{table.eps[k, l]:8.4f}" for l in shown_l)
    print(f"{k:>5} {row}")

print("\nmonotone in l within every row:",
      bool(np.all(np.diff(table.eps, axis=1) > -2e-10)))

no_validation = wait_and_judge(problem, weights)
print("last column equals the support-count-only bound:",
      bool(np.abs(table.eps[:, -1] - no_validation).max() < 1e-8))

# The grid serializes byte-stably; identical inputs give identical files.
csv_text = table_csv(table)
print(f"\nCSV export: {len(csv_text.splitlines())} lines, first three:")
for line in csv_text.splitlines()[:3]:
    print(" ", line)
