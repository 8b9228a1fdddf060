"""Workbench for the renormalization combinatorics and stochastic numerics of
the dynamical sine-Gordon equation.

Modules:

- ``tree_core``: exact-arithmetic decorated rooted trees, homogeneities,
  charges, canonical forms, symmetry factors.
- ``rule_engine``: enumeration of all admissible trees below a homogeneity
  cutoff, classification of divergent (negative) and neutral trees.
- ``counterterm``: coefficient factors attached to divergent trees and the
  exact certificate that all renormalization constants cancel.
- ``moment_diagrams``: multi-copy diagrams, their connected node sets,
  divergent subtrees, forests, cut sets, derived edge-set calculus, and
  the symbolic moment-term inventory with its multilinearity audit.
- ``multiscale``: dyadic scale assignments, safe-forest projections,
  interval preimages, cut harvesting, and the forest/cut partition identity.
- ``power_counting``: total homogeneities, cluster-sum evaluators, the
  subdivergence, identity and order audits over vertex subsets, the
  big-graph and inner sign audits over the subsets of a forest's quotient
  and the large-scale one over connected node sets, none of them with a
  total homogeneity and the last with no vertex cap, and summability
  probes that recurse over subsets and their set partitions; coalescence
  hierarchies are enumerated only as children maps, for the oracle tests.
- ``stochastic``: spectral sampling of the log-correlated field, its
  unit-expectation chaos exponentials, renormalization-constant scaling,
  dipole moment estimation, and the additive-decomposition PDE solver, all
  heat flows stepped by one real half-spectrum integrator (the dipole's
  complex profile as one stacked pair of real flows).
- ``cli``: a single command-line entry point exposing all workflows.
"""

__version__ = "0.1.0"
