"""Workbench for the renormalization combinatorics and stochastic numerics of
the dynamical sine-Gordon equation.

Modules:

- ``tree_core``: exact-arithmetic decorated rooted trees, homogeneities,
  charges, canonical forms, symmetry factors.
- ``rule_engine``: enumeration of all admissible trees below a homogeneity
  cutoff, classification of divergent (negative) and neutral trees.
- ``counterterm``: coefficient factors attached to divergent trees and the
  exact certificate that all renormalization constants cancel.
- ``moment_diagrams``: multi-copy diagrams, divergent subtrees, forests,
  cut sets, derived edge-set calculus, and the symbolic moment-term
  inventory with its multilinearity audit.
- ``multiscale``: dyadic scale assignments, safe-forest projections,
  interval preimages, cut harvesting, and the forest/cut partition identity.
- ``power_counting``: total homogeneities, cluster-sum evaluators, and the
  subdivergence, sign and identity audits over vertex subsets; coalescence
  trees remain only for the order audit and the summability probes.
- ``stochastic``: spectral sampling of the log-correlated field, complex
  chaos fields, renormalization-constant scaling, dipole moment estimation,
  and the additive-decomposition PDE solver.
- ``cli``: a single command-line entry point exposing all workflows.
"""

__version__ = "0.1.0"
