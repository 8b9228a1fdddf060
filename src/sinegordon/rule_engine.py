"""Enumeration of admissible trees below the homogeneity cutoff.

A tree is admissible when every node is of one of the allowed shapes: a
(possibly decorated) 0-node with any number of kernel-edge branches, or a
charged node with any number of kernel-edge branches.  One recursion on the
cutoff builds every catalog, with no rounds and no deduplication, and
classifies each tree by the homogeneity it was built with.  :func:`enumerate_trees` returns the
full finite catalog below a cutoff ``mu`` in (beta_bar, 2); the cutoff is
an argument of the enumerator alone, not a model parameter.
:func:`enumerate_negative_trees` runs the same recursion with cutoff 0,
which yields exactly the divergent (negative-homogeneity) trees.  Both
classify the divergent and neutral-divergent trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .tree_core import (
    DecoratedTree,
    ModelParams,
    deco_weight,
    opp,
    s_homogeneity,
    sg_homogeneity,
)

#: decorations allowed on a single node during enumeration; anything of
#: scaled weight > 2 cannot occur below a cutoff mu < 2.
MAX_NODE_DECO_WEIGHT = 2

_DECOS = tuple(
    (k0, k1, k2)
    for k0 in range(2)
    for k1 in range(3)
    for k2 in range(3)
    if deco_weight((k0, k1, k2)) <= MAX_NODE_DECO_WEIGHT
)


@dataclass
class TreeCatalog:
    """Complete catalog of admissible trees below an enumeration cutoff."""

    params: ModelParams
    all: dict[str, DecoratedTree]
    negative: dict[str, DecoratedTree] = field(default_factory=dict)
    negative_neutral: dict[str, DecoratedTree] = field(default_factory=dict)

    def entry(self, key: str) -> dict:
        tau = self.all[key]
        sh = s_homogeneity(tau)
        gh = sg_homogeneity(tau)
        return {
            "key": key,
            "s_hom": {"a": str(sh.const), "b": str(sh.bcoeff)},
            "sg_hom": {"a": str(gh.const), "b": str(gh.bcoeff)},
            "charge": tau.charge,
            "n_noises": tau.n_noises,
            "n_edges": tau.n_edges,
            "negative": key in self.negative,
            "neutral": tau.charge == 0,
            "renormalizable": key in self.negative_neutral,
        }

    def export(self) -> list[dict]:
        return [self.entry(k) for k in sorted(self.all)]


@dataclass
class AuditReport:
    ok: bool
    checked: int
    violations: list[dict]


def enumerate_trees(params: ModelParams, mu=None) -> TreeCatalog:
    """All admissible trees with homogeneity strictly below ``mu``.

    The cutoff must lie in (beta_bar, 2) and defaults to the midpoint
    (beta_bar + 2)/2.
    """
    bb = params.beta_bar
    mu = (bb + 2) / 2 if mu is None else Fraction(mu)
    if not (bb < mu < 2):
        raise ValueError(f"mu = {mu} not in (beta_bar, 2)")
    return _catalog(params, mu)


def enumerate_negative_trees(params: ModelParams) -> TreeCatalog:
    """Exactly the divergent trees: the catalog below cutoff 0."""
    return _catalog(params, Fraction(0))


def _catalog(params: ModelParams, mu: Fraction) -> TreeCatalog:
    """The catalog below ``mu``, classified by the homogeneity of each tree."""
    trees = _trees_below(params.beta_bar, mu)
    negative = {t.key: t for h, t in trees if h < 0}
    return TreeCatalog(
        params, {t.key: t for _, t in trees}, negative,
        {key: t for key, t in negative.items() if t.charge == 0})


def _trees_below(bb: Fraction, mu: Fraction
                 ) -> list[tuple[Fraction, DecoratedTree]]:
    """Every admissible tree with |tau|_s < ``mu``, as (|tau|_s, tau) sorted
    by homogeneity.

    A tree is a root node (label, decoration) of cost r >= -beta_bar with a
    multiset of admissible branches, each branch b costing 2 + |b|_s > 0.
    So no tree lies below -beta_bar, and every branch of a tree below
    ``mu`` satisfies 2 + |b|_s < mu - r <= mu + beta_bar, that is, lies
    below mu - (2 - beta_bar) < mu.  The catalog below ``mu`` is therefore
    each root of cost r < mu extended by every multiset of trees below
    mu - (2 - beta_bar) whose costs sum to less than mu - r, and distinct
    (root, multiset) pairs are distinct trees.  A tree is built once here,
    and again in each deeper call whose cutoff it also lies below.
    """
    if mu <= -bb:
        return []
    branches = _trees_below(bb, mu - (2 - bb))
    costs = [2 + h for h, _ in branches]
    found: list[tuple[Fraction, DecoratedTree]] = []

    def extend(idx: int, budget: Fraction, chosen: list[DecoratedTree],
               label: str, deco: tuple[int, int, int]):
        # |tau|_s = root cost + branch costs = mu - the budget they leave
        found.append((mu - budget, DecoratedTree(label, deco, tuple(chosen))))
        for i in range(idx, len(branches)):
            if costs[i] >= budget:
                break
            chosen.append(branches[i][1])
            extend(i, budget - costs[i], chosen, label, deco)
            chosen.pop()

    for label in ("+", "-", "0"):
        for deco in _DECOS:
            root_cost = Fraction(deco_weight(deco)) - (bb if label != "0" else 0)
            if root_cost < mu:
                extend(0, mu - root_cost, [], label, deco)
    found.sort(key=lambda entry: entry[0])
    return found


def structural_audit(cat: TreeCatalog) -> AuditReport:
    """Check the structural constraints every divergent tree must satisfy.

    For each divergent tree: every node carries a charge (no 0-labeled
    nodes), and the decoration either vanishes identically or is supported
    on a single node with value (0,1,0) or (0,0,1).  Additionally every
    catalog tree other than the bare noises has homogeneity > -beta_bar.
    Each check reads the counts a tree is built with: it has no 0-node when
    each node is a noise, and since decoration weights are nonnegative
    integers, a total weight of at most 1 is exactly the decoration rule.
    """
    num, den = cat.params.beta_bar.as_integer_ratio()
    violations: list[dict] = []
    checked = 0
    for key, tau in (cat.negative | cat.negative_neutral).items():
        checked += 1
        if tau.n_noises != tau.n_nodes:
            violations.append({"key": key, "reason": "0-labeled node in divergent tree"})
        elif tau.total_deco_weight > 1:
            violations.append({"key": key, "reason": "decoration not a single unit space index"})
    for key, tau in cat.all.items():
        checked += 1
        if tau.n_nodes == 1 and tau.label != "0" and tau.total_deco_weight == 0:
            continue  # the bare noises saturate the bound
        # |tau|_s <= -beta_bar: 2|K| + decoration weight <= beta_bar (|L| - 1)
        if den * (2 * tau.n_edges + tau.total_deco_weight) <= num * (tau.n_noises - 1):
            violations.append({"key": key, "reason": "homogeneity at or below -beta_bar"})
    return AuditReport(ok=not violations, checked=checked, violations=violations)


def opp_closure_ok(cat: TreeCatalog) -> bool:
    """The catalog and both divergent subsets are stable under charge flip."""
    trees = cat.all | cat.negative | cat.negative_neutral
    flips = {key: opp(t).key for key, t in trees.items()}
    return all(
        flips[key] in subset
        for subset in (cat.all, cat.negative, cat.negative_neutral)
        for key in subset
    )
