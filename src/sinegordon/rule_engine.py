"""Enumeration of admissible trees below the homogeneity cutoff.

A tree is admissible when every node is of one of the allowed shapes: a
(possibly decorated) 0-node with any number of kernel-edge branches, or a
charged node with any number of kernel-edge branches.  One fixpoint builds
every catalog.  :func:`enumerate_trees` returns the full finite catalog
below a cutoff ``mu`` in (beta_bar, 2); the cutoff is an argument of the
enumerator alone, not a model parameter.  :func:`enumerate_negative_trees`
runs the same fixpoint with cutoff 0, which yields exactly the divergent
(negative-homogeneity) trees.  Both classify the divergent and
neutral-divergent trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .tree_core import (
    DecoratedTree,
    Homogeneity,
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
    return _fixpoint(params, mu)


def enumerate_negative_trees(params: ModelParams) -> TreeCatalog:
    """Exactly the divergent trees: the catalog fixpoint with cutoff 0."""
    return _fixpoint(params, Fraction(0))


def _fixpoint(params: ModelParams, mu: Fraction) -> TreeCatalog:
    """All admissible trees with homogeneity strictly below ``mu``.

    Every admissible tree consists of a root node (label, decoration) of
    cost r >= -beta_bar together with a multiset of admissible branch
    subtrees, each branch b costing ``2 + |b|_s >= 2 - beta_bar > 0``.  A
    tree below ``mu`` therefore has branches with 2 + |b|_s < mu - r <=
    mu + beta_bar, that is |b|_s < mu - (2 - beta_bar) < mu: every branch of
    a catalog tree is itself a catalog tree, whatever the cutoff.  So
    iterating node construction over the current catalog until nothing new
    appears yields exactly the catalog.
    """
    bb = params.beta_bar
    found: dict[str, DecoratedTree] = {}
    hom: dict[str, Fraction] = {}      # |tau|_s, evaluated once per tree

    def add(t: DecoratedTree, into: dict[str, DecoratedTree]):
        into[t.key] = t
        hom[t.key] = s_homogeneity(t).at(bb)

    # single-node seeds
    frontier: list[DecoratedTree] = []
    for label in ("+", "-", "0"):
        for deco in _DECOS:
            root_cost = Fraction(deco_weight(deco)) - (bb if label != "0" else 0)
            if root_cost < mu:
                t = DecoratedTree(label, deco)
                add(t, found)
                frontier.append(t)

    while frontier:
        # branch candidates sorted by cost; cost of using tau as a branch
        # is 2 + |tau|_s
        cand = sorted(found.values(), key=lambda t: (hom[t.key], t.key))
        costs = [2 + hom[t.key] for t in cand]
        new: dict[str, DecoratedTree] = {}

        def extend(idx: int, budget: Fraction, chosen: list[DecoratedTree],
                   root_label: str, root_deco: tuple[int, int, int]):
            if chosen:
                t = DecoratedTree(root_label, root_deco, tuple(chosen))
                if t.key not in found and t.key not in new:
                    add(t, new)
            for i in range(idx, len(cand)):
                if costs[i] >= budget:
                    break
                chosen.append(cand[i])
                extend(i, budget - costs[i], chosen, root_label, root_deco)
                chosen.pop()

        for label in ("+", "-", "0"):
            for deco in _DECOS:
                root_cost = Fraction(deco_weight(deco)) - (bb if label != "0" else 0)
                extend(0, mu - root_cost, [], label, deco)

        found.update(new)
        frontier = list(new.values())

    cat = TreeCatalog(params, found)
    classify_trees(cat)
    return cat


def classify_trees(cat: TreeCatalog):
    """Partition the catalog into divergent and neutral-divergent trees."""
    bb = cat.params.beta_bar
    neg: dict[str, DecoratedTree] = {}
    neg_neut: dict[str, DecoratedTree] = {}
    for key, tau in cat.all.items():
        if s_homogeneity(tau).at(bb) < 0:
            neg[key] = tau
            if tau.charge == 0:
                neg_neut[key] = tau
    cat.negative = neg
    cat.negative_neutral = neg_neut
    return neg, neg_neut


def structural_audit(cat: TreeCatalog) -> AuditReport:
    """Check the structural constraints every divergent tree must satisfy.

    For each divergent tree: every node carries a charge (no 0-labeled
    nodes), and the decoration either vanishes identically or is supported
    on a single node with value (0,1,0) or (0,0,1).  Additionally every
    catalog tree other than the bare noises has homogeneity > -beta_bar.
    """
    bb = cat.params.beta_bar
    violations: list[dict] = []
    checked = 0
    for key, tau in (cat.negative | cat.negative_neutral).items():
        checked += 1
        labels = [node.label for node in tau.iter_nodes()]
        if any(l == "0" for l in labels):
            violations.append({"key": key, "reason": "0-labeled node in divergent tree"})
            continue
        decos = [node.deco for node in tau.iter_nodes() if deco_weight(node.deco) > 0]
        if decos and (len(decos) > 1 or decos[0] not in ((0, 1, 0), (0, 0, 1))):
            violations.append({"key": key, "reason": "decoration not a single unit space index"})
    for key, tau in cat.all.items():
        checked += 1
        if tau.n_nodes == 1 and tau.label != "0" and tau.total_deco_weight == 0:
            continue  # the bare noises saturate the bound
        if s_homogeneity(tau).at(bb) <= -bb:
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
