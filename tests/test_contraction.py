"""The one member contraction, ``MomentDiagram.contraction``, against the
two rules it replaced: the cluster audits' quotient map, which sent each
member to its root and let a later member overwrite an earlier one, and
the harvest's relabel loop, which merged members that overlap."""

from fractions import Fraction

import pytest

from sinegordon.moment_diagrams import (BASE_POINT, build_diagram,
                                        derived_edge_sets)
from sinegordon.rule_engine import enumerate_negative_trees
from sinegordon.tree_core import (DecoratedTree, ModelParams, XI_MINUS, XI_PLUS,
                                   dipole, parse_key)


def _overwrite_contraction(d, C):
    """The cluster audits' former quotient map on the members ``C``."""
    qhat = {BASE_POINT: BASE_POINT} | {u: u for u in d.nodes}
    for T in C:
        (root,) = (u for u in T if d.parent[u] not in T)
        qhat |= dict.fromkeys(T, root)
    return qhat


def _relabel_contraction(d, F):
    """The harvest's former labels: the base point and the nodes numbered
    0, 1, ... in that order, each member of ``F`` merged in turn."""
    pos = {v: k for k, v in enumerate([0, *d.nodes])}
    label = list(pos.values())
    for S in F:
        merged = {label[pos[u]] for u in S}
        label = [min(merged) if x in merged else x for x in label]
    return label


TAU4 = DecoratedTree("-", (0, 0, 0), (XI_PLUS, XI_PLUS, XI_MINUS))
TAU6 = DecoratedTree("-", (0, 0, 0), (
    XI_PLUS, DecoratedTree("+", (0, 0, 0), (XI_PLUS, XI_MINUS, XI_PLUS))))
CHAIN = parse_key("(-;0,0,0;(+;0,0,0;(-;0,0,0;(+;0,0,0;))))")
# name -> (tree, copy pairs p, beta_bar)
TEST_DIAGRAMS = {
    "dipole-1-5/4": (dipole(), 1, "5/4"), "dipole-2-5/4": (dipole(), 2, "5/4"),
    "dipole-1-7/5": (dipole(), 1, "7/5"), "tau4-1-5/4": (TAU4, 1, "5/4"),
    "tau4-1-8/5": (TAU4, 1, "8/5"), "tau6-1-7/4": (TAU6, 1, "7/4"),
    "chain-1-8/5": (CHAIN, 1, "8/5"),
}


def _test_diagram(name):
    tau, p, bb = TEST_DIAGRAMS[name]
    return build_diagram(tau, p, ModelParams.from_beta_bar(Fraction(bb)))


def _catalog_diagrams():
    """Every tree of the negative catalogs at beta_bar 5/4, 7/5 and 8/5 at
    p = 1, and those of at most 3 nodes at p = 2: 2,456 forests."""
    out = []
    for bb in ("5/4", "7/5", "8/5"):
        params = ModelParams.from_beta_bar(Fraction(bb))
        for tau in enumerate_negative_trees(params).all.values():
            small = len(list(tau.iter_nodes())) <= 3
            out += [build_diagram(tau, p, params)
                    for p in ((1, 2) if small else (1,))]
    return out


def _check_regions(d):
    """Compare the contraction with both references on every (forest,
    region); return the number of (forest, region) pairs."""
    checked = 0
    for F in d.enumerate_forests():
        assert d.contraction(F) == tuple(_relabel_contraction(d, F))
        for S in [None, *F]:
            C = derived_edge_sets(d, F, S).C
            q = d.contraction(C)
            assert dict(enumerate(q)) == _overwrite_contraction(d, C)
            assert q == tuple(_relabel_contraction(d, C))
            checked += 1
    return checked


@pytest.mark.parametrize("name", sorted(TEST_DIAGRAMS))
def test_contraction_matches_both_references_on_test_diagrams(name):
    assert _check_regions(_test_diagram(name)) > 0


def test_contraction_matches_both_references_on_the_catalog_sweep():
    diagrams = _catalog_diagrams()
    assert sum(len(d.enumerate_forests()) for d in diagrams) == 2456
    assert sum(map(_check_regions, diagrams)) == 8064


def test_nodes_are_preorder_so_a_member_root_is_its_smallest_node():
    for d in [*map(_test_diagram, TEST_DIAGRAMS), *_catalog_diagrams()]:
        assert d.nodes == list(range(1, len(d.nodes) + 1))
        for T in d.divergent_subtrees():
            assert [u for u in T if d.parent[u] not in T] == [min(T)]


@pytest.mark.parametrize("name, join, merged", [
    # TAU4's members {1, 2} and {1, 3} share their root
    ("tau4-1-5/4", [{1, 2}, {1, 3}], {1, 2, 3}),
    # the chain's {1, 2} and {2, 3} have different roots: overwriting by
    # root would split 2 from 1
    ("chain-1-8/5", [{1, 2}, {2, 3}], {1, 2, 3}),
])
def test_overlapping_members_of_a_join_merge(name, join, merged):
    d = _test_diagram(name)
    J = frozenset(map(frozenset, join))
    assert J <= set(d.divergent_subtrees()) and J not in d.enumerate_forests()
    label = d.contraction(J)
    assert label == tuple(_relabel_contraction(d, J))
    assert label == tuple(min(merged) if v in merged else v
                          for v in range(len(d.nodes) + 1))
