"""Coalescence hierarchies, cluster sums, sign audits, summability."""

import hashlib
from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations, product
from math import floor

import pytest
from hypothesis import given, settings, strategies as st

from sinegordon.tree_core import SCALING_DIM, DecoratedTree, ModelParams, dipole
from sinegordon.moment_diagrams import BASE_POINT, build_diagram
from sinegordon.power_counting import (
    MAX_CLUSTER_VERTICES, TotalHomogeneity, _components, _k_components,
    all_coalescence_trees, big_graph_sigma_tilde,
    divergent_cluster_exclusions, identity_audit, inner_sigma_tilde,
    inner_total_homogeneity, large_scale_sigma_tilde, order_audit,
    reexpanded, sg_total_homogeneity, sign_audit_big_graph,
    sign_audit_inner, sign_audit_large_scale, subdivergence_audit,
    summability_probe,
)

Xp = DecoratedTree("+", (0, 0, 0))
Xm = DecoratedTree("-", (0, 0, 0))
TAU4 = DecoratedTree("-", (0, 0, 0), (Xp, Xp, Xm))
TAU6 = DecoratedTree("-", (0, 0, 0), (Xp,
                                      DecoratedTree("+", (0, 0, 0),
                                                    (Xm, Xp, Xm))))

# A hierarchy is a children map, as ``all_coalescence_trees`` returns it: a
# tuple of (cluster, children) pairs, the vertex set first.


def _up(tree, marker):
    """The smallest cluster of the hierarchy ``tree`` holding ``marker``."""
    return min((a for a, _ in tree if marker <= a), key=len)


def _evaluate(sigma, tree):
    """Each coefficient of ``sigma`` put on the smallest cluster of ``tree``
    that holds its marker: the weight of every cluster."""
    vals = {a: F(0) for a, _ in tree}
    for coeff, marker in sigma.terms:
        vals[_up(tree, marker)] += coeff
    return vals


def coalesce(vertices, edges):
    """(hierarchy, labels) determined by dyadic edge scales.

    ``edges`` is an iterable of (u, v, scale) triples (a multigraph; repeats
    allowed).  Clusters at level r are the connected components of the graph
    using edges of scale >= r; each multi-vertex component is labelled with
    the largest level at which it survives.  The full vertex set must be a
    single component at level 0.
    """
    vs = sorted(frozenset(vertices))
    edges = list(edges)
    max_scale = max((s for _, _, s in edges), default=0)
    labels = {}
    for r in range(max_scale + 2):
        comps = _components(vs, ((u, v) for u, v, s in edges if s >= r))
        if r == 0 and len(comps) != 1:
            raise ValueError("graph must be connected at scale zero")
        for c in comps:
            if len(c) >= 2:
                labels[c] = r
    tree = []
    for a in labels:
        inner = [b for b in labels if b < a]
        maximal = [b for b in inner if not any(b < c for c in inner)]
        covered = frozenset().union(*maximal)
        tree.append((a, tuple(maximal)
                     + tuple(frozenset([v]) for v in a - covered)))
    return tuple(tree), labels


#: combinatorial constant in the annular-window condition
ANNULUS_CONSTANT = 2


def triangle_cell_count(vertices, edges, tree, labels):
    """Count scale assignments reproducing the labelled hierarchy ``tree``
    within the annular window around each edge's cluster label."""
    width = 2 * ANNULUS_CONSTANT * len(frozenset(vertices))
    ranges = []
    for u, v, _ in edges:
        s = labels[_up(tree, frozenset([u, v]))]
        ranges.append(range(max(0, s - width + 1), s + width))
    count = 0
    for combo in product(*ranges):
        try:
            got, got_labels = coalesce(
                vertices, [(u, v, s) for (u, v, _), s in zip(edges, combo)])
        except ValueError:
            continue
        count += dict(got) == dict(tree) and got_labels == labels
    return count


class TestCoalescence:
    def test_hierarchy_counts(self):
        # total partitions of {1..n} into nested proper clusters
        for n, expect in [(2, 1), (3, 4), (4, 26), (5, 236)]:
            assert len(all_coalescence_trees(range(n))) == expect

    def test_children_maps_are_hierarchies(self):
        for n in range(2, 6):
            for tree in all_coalescence_trees(range(n)):
                cmap = dict(tree)
                assert tree[0][0] == frozenset(range(n))
                assert len(cmap) == len(tree)
                for a, kids in tree:
                    assert len(kids) >= 2
                    assert frozenset().union(*kids) == a
                    assert sum(len(k) for k in kids) == len(a)
                    assert all(k in cmap for k in kids if len(k) > 1)

    def test_coalesce_path(self):
        _, labels = coalesce(["v0", "v1", "v2"],
                             [("v0", "v1", 3), ("v1", "v2", 7)])
        assert labels == {frozenset(["v0", "v1", "v2"]): 3,
                          frozenset(["v1", "v2"]): 7}

    def test_coalesce_flat(self):
        tree, _ = coalesce([0, 1, 2], [(0, 1, 0), (1, 2, 0)])
        assert [a for a, _ in tree] == [frozenset([0, 1, 2])]

    def test_coalesce_triangle_drops_slack_edge(self):
        _, labels = coalesce(["a", "b", "c"],
                             [("a", "b", 5), ("b", "c", 5), ("c", "a", 9)])
        assert labels == {frozenset("abc"): 5, frozenset("ac"): 9}


class TestOrderAndSubdivergence:
    def test_pair_diagram_order(self):
        d = build_diagram(dipole(), 1, ModelParams.from_beta_bar(F(5, 4)))
        T1, T2 = d.divergent_subtrees()
        for forest in [(), (T1, T2)]:
            s = sg_total_homogeneity(d, forest)
            ok, alpha = order_audit(s.sigma, s.vertices)
            assert ok and alpha == 4 * F(5, 4) - 12 == -7

    def test_subdivergence_needs_contraction_exclusions(self):
        d = build_diagram(dipole(), 1, ModelParams.from_beta_bar(F(5, 4)))
        s0 = sg_total_homogeneity(d, ())
        excl = divergent_cluster_exclusions(d, (), s0.qhat)
        assert not subdivergence_audit(s0.sigma, s0.vertices).ok
        rep = subdivergence_audit(s0.sigma, s0.vertices, excluded=excl)
        assert rep.ok and rep.min_margin > 0

    def test_weak_coupling_is_subdivergence_free_outright(self):
        d = build_diagram(dipole(), 1, ModelParams.from_beta_bar(F(1, 2)))
        assert not d.divergent_subtrees()
        s = sg_total_homogeneity(d, ())
        assert subdivergence_audit(s.sigma, s.vertices).ok

    def test_constructed_violation_is_detected(self):
        sig_bad = TotalHomogeneity(((F(9), frozenset([1, 2])),))
        assert not subdivergence_audit(sig_bad, [1, 2, 3]).ok

    def test_heavier_constructed_violation_located(self):
        sig_bad = TotalHomogeneity(((F(5), frozenset([1, 2])),
                                    (F(5), frozenset([2, 3]))))
        rep = subdivergence_audit(sig_bad, [1, 2, 3])
        assert not rep.ok and rep.violations


def _hierarchy_clusters(vertices):
    """(hierarchy, non-root cluster) pairs over all hierarchies."""
    for tree in all_coalescence_trees(vertices):
        for a, _ in tree[1:]:
            yield tree, a


def _hierarchy_nested(sigma, tree, a):
    return sum(v for b, v in _evaluate(sigma, tree).items() if b <= a)


def _verdict(margins):
    """(ok, minimum margin) of a reference list of margins."""
    return all(m > 0 for m in margins), min(margins, default=None)


def _small_setups():
    """(diagram, forest, member or None, setup): the p=1 dipole at both
    couplings with no forest and with both divergent members contracted,
    and TAU4, localized to one member and with both copies contracted."""
    out = []
    for bb in [F(5, 4), F(7, 5)]:
        d = build_diagram(dipole(), 1, ModelParams.from_beta_bar(bb))
        for forest in [(), tuple(d.divergent_subtrees())]:
            out.append((d, forest, None, sg_total_homogeneity(d, forest)))
        S4 = frozenset({1, 2, 3, 4})
        d4 = build_diagram(TAU4, 1, ModelParams.from_beta_bar(bb))
        out.append((d4, (S4,), S4, inner_total_homogeneity(d4, S4, (S4,))))
    d4 = build_diagram(TAU4, 1, ModelParams.from_beta_bar(F(7, 4)))
    both = (frozenset({1, 2, 3, 4}), frozenset({5, 6, 7, 8}))
    out.append((d4, both, None, sg_total_homogeneity(d4, both)))
    return out


class TestSubsetOracle:
    """The audits run over vertex subsets; all hierarchies are the oracle."""

    def test_hierarchy_clusters_are_the_proper_subsets(self):
        for n in range(2, 6):
            got = {a for _, a in _hierarchy_clusters(range(n))}
            want = {frozenset(c) for k in range(2, n)
                    for c in combinations(range(n), k)}
            assert got == want

    def test_nested_sums_do_not_depend_on_the_hierarchy(self):
        for _, _, _, setup in _small_setups():
            for tree, a in _hierarchy_clusters(setup.vertices):
                assert _hierarchy_nested(setup.sigma, tree, a) == \
                    setup.sigma.nested(a, setup.vertices)

    def test_subdivergence_matches_hierarchies(self):
        for d, forest, _, setup in _small_setups():
            for excluded in [(), divergent_cluster_exclusions(d, forest,
                                                              setup.qhat)]:
                margins = [(len(a) - 1) * SCALING_DIM
                           - _hierarchy_nested(setup.sigma, tree, a)
                           for tree, a in _hierarchy_clusters(setup.vertices)
                           if a not in excluded]
                rep = subdivergence_audit(setup.sigma, setup.vertices,
                                          excluded=excluded)
                assert (rep.ok, rep.min_margin) == _verdict(margins)

    def test_identity_matches_hierarchies(self):
        for d, forest, S, setup in _small_setups():
            if S is None:
                continue
            exact = all(
                _hierarchy_nested(setup.sigma, tree, a)
                - (len(a) - 1) * SCALING_DIM
                == inner_sigma_tilde(d, S, reexpanded(setup, a))
                for tree, a in _hierarchy_clusters(setup.vertices))
            rep = identity_audit(d, S, forest)
            n = len(setup.vertices)
            assert exact and rep.ok and rep.checked == 2 ** n - n - 2

    def test_sign_audits_match_hierarchies(self):
        for d, forest, S, setup in _small_setups():
            skip = {T for T in d.divergent_subtrees() if T not in forest}
            cut = d.cut_sites()
            family = {a: reexpanded(setup, a)
                      for _, a in _hierarchy_clusters(setup.vertices)}
            if S is not None:
                margins = [-inner_sigma_tilde(d, S, M)
                           for M in family.values() if M not in skip]
                rep = sign_audit_inner(d, S, forest)
            else:
                margins = [-big_graph_sigma_tilde(d, (), cut, M)
                           for M in family.values() if M not in skip]
                rep = sign_audit_big_graph(d, forest, d_cut=cut)
            assert (rep.ok, rep.min_margin) == _verdict(margins)
            if S is None:
                rest = frozenset([BASE_POINT]) | frozenset(d.nodes)
                margins = [large_scale_sigma_tilde(d, (), cut, comp)
                           for a, M in family.items() if setup.pinned <= a
                           for comp in _k_components(d, rest - M)]
                rep = sign_audit_large_scale(d, forest, d_cut=cut)
                assert (rep.ok, rep.min_margin) == _verdict(margins)

    def test_cluster_cap(self):
        with pytest.raises(ValueError, match="refusing cluster audits"):
            subdivergence_audit(TotalHomogeneity(()),
                                range(MAX_CLUSTER_VERTICES + 1))
        # refused before the 2^18 nested weights are built
        with pytest.raises(ValueError, match="refusing cluster audits"):
            summability_probe(TotalHomogeneity(()),
                              range(MAX_CLUSTER_VERTICES + 1), F(-1),
                              [0, 1], [2, 3])

    def test_order_matches_hierarchies(self):
        d6 = build_diagram(TAU6, 1, ModelParams.from_beta_bar(F(7, 4)))
        S6 = frozenset(range(1, 7))
        setups = [s for *_, s in _small_setups()] + \
            [inner_total_homogeneity(d6, S6, (S6,))]
        for setup in setups:
            n = len(setup.vertices)
            orders = {sum(_evaluate(setup.sigma, t).values()) - (n - 1) * SCALING_DIM
                      for t in all_coalescence_trees(setup.vertices)}
            assert orders == {order_audit(setup.sigma, setup.vertices)[1]}


class TestNineVertexDiagrams:
    """Diagrams beyond the hierarchy-enumeration cap: the p=2 dipole moment
    and TAU4 at p=1, with no forest (and the dipole fully contracted)."""

    CASES = [  # tree, p, beta_bar, big-graph margin, large-scale margin
        (dipole(), 2, F(5, 4), F(3, 2), F(1, 4)),
        (dipole(), 2, F(7, 5), F(6, 5), F(2, 5)),
        (TAU4, 1, F(5, 4), F(1), F(1, 4)),
        (TAU4, 1, F(7, 4), F(1, 2), F(3, 4)),
    ]

    def test_sign_audits(self):
        for tau, p, bb, big, large in self.CASES:
            d = build_diagram(tau, p, ModelParams.from_beta_bar(bb))
            assert len(sg_total_homogeneity(d, ()).vertices) == 9
            rep = sign_audit_big_graph(d, ())
            assert (rep.ok, rep.min_margin) == (True, big)
            rep = sign_audit_large_scale(d, (), d_cut=d.cut_sites())
            assert (rep.ok, rep.min_margin) == (True, large)

    def test_summability_fails_with_divergent_subtrees_uncontracted(self):
        for tau, p in [(dipole(), 2), (TAU4, 1)]:
            d = build_diagram(tau, p, ModelParams.from_beta_bar(F(5, 4)))
            s = sg_total_homogeneity(d, ())
            _, alpha = order_audit(s.sigma, s.vertices)
            rep = summability_probe(s.sigma, s.vertices, alpha,
                                    [0, 1, 2], [5, 6, 7, 8])
            assert len(s.vertices) == 9 and rep.converged is False

    def test_summability_converges_with_all_members_contracted(self):
        d = build_diagram(dipole(), 2, ModelParams.from_beta_bar(F(5, 4)))
        s = sg_total_homogeneity(d, tuple(d.divergent_subtrees()))
        _, alpha = order_audit(s.sigma, s.vertices)
        rep = summability_probe(s.sigma, s.vertices, alpha,
                                [0, 1, 2], [5, 6, 7, 8])
        assert alpha == -14 and rep.converged is True


class TestSignAudits:
    def test_cut_inside_a_member_is_refused(self):
        # its marker {0, 2} would lie outside the vertex set {0, 1, 3, 4}
        d = build_diagram(dipole(), 1, ModelParams.from_beta_bar(F(5, 4)))
        forest = (frozenset({1, 2}),)
        with pytest.raises(ValueError, match=r"s_cut edges \[2\]"):
            sg_total_homogeneity(d, forest, s_cut=(2,))
        setup = sg_total_homogeneity(d, forest, s_cut=(4,))
        assert setup.vertices == {BASE_POINT, 1, 3, 4}

    def test_big_graph_and_large_scale(self):
        for bb in [F(5, 4), F(7, 5)]:
            d = build_diagram(dipole(), 1, ModelParams.from_beta_bar(bb))
            dv = d.divergent_subtrees()
            assert sign_audit_big_graph(d, tuple(dv)).ok
            assert sign_audit_big_graph(d, ()).ok
            assert sign_audit_large_scale(d, (), d_cut=d.cut_sites()).ok
            assert sign_audit_inner(d, dv[0], tuple(dv)).ok

    def test_inner_on_larger_members(self):
        p74 = ModelParams.from_beta_bar(F(7, 4))
        d4 = build_diagram(TAU4, 1, p74)
        S4 = frozenset({1, 2, 3, 4})
        r4 = sign_audit_inner(d4, S4, (S4,))
        assert r4.ok and r4.checked > 0

        d6 = build_diagram(TAU6, 1, p74)
        S6 = frozenset(range(1, 7))
        r6 = sign_audit_inner(d6, S6, (S6, frozenset({2, 4})))
        assert r6.ok and r6.checked > 0


# Diagrams of the cluster-weight digest: the multiscale oracle diagrams, TAU6,
# whose edge into its inner vertex has gamma = 3, so (gamma - 1) is not 0,
# and a dipole with a decorated leaf.
WEIGHT_DIAGRAMS = [
    build_diagram(dipole(), 1, ModelParams.from_beta_bar(F(5, 4))),
    build_diagram(dipole(), 1, ModelParams.from_beta_bar(F(7, 5))),
    build_diagram(TAU4, 1, ModelParams.from_beta_bar(F(5, 4))),
    build_diagram(dipole(), 2, ModelParams.from_beta_bar(F(5, 4))),
    build_diagram(TAU6, 1, ModelParams.from_beta_bar(F(5, 4))),
    build_diagram(DecoratedTree("+", (0, 0, 0),
                                (DecoratedTree("-", (0, 1, 0)),)),
                  1, ModelParams.from_beta_bar(F(7, 5))),
]


class TestWeightDigest:
    """Both cluster weights of the full diagram on every node set, with the
    kernel edges split between ``s_cut`` and ``d_cut`` both ways; the
    digest was recorded while each weight was still summed term by term."""

    DIGEST = (27912, "4077b009bdfc0bf7ca783e9683ca3556"
                     "7341dae2454db0c9dadaac0baf74fe52")

    def test_digest_is_unchanged(self):
        rows = []
        for d in WEIGHT_DIAGRAMS:
            edges = d.kernel_edges
            vs = [BASE_POINT, *d.nodes]
            for s_cut, d_cut in [(edges[::2], edges[1::2]),
                                 (edges[1::2], edges[::2])]:
                assert s_cut and d_cut
                for k in range(1, len(vs) + 1):
                    for M in combinations(vs, k):
                        rows.append(str(big_graph_sigma_tilde(d, s_cut, d_cut, M)))
                        if BASE_POINT not in M:
                            rows.append(str(large_scale_sigma_tilde(
                                d, s_cut, d_cut, M)))
        digest = hashlib.sha256(" ".join(rows).encode()).hexdigest()
        assert (len(rows), digest) == self.DIGEST


class TestIdentity:
    def test_exact_on_small_members(self):
        for bb in [F(5, 4), F(7, 5)]:
            # two-vertex members are vacuous; four-vertex ones are not
            d2 = build_diagram(dipole(), 1, ModelParams.from_beta_bar(bb))
            S2 = frozenset({1, 2})
            assert identity_audit(d2, S2, (S2,)).ok
            d4 = build_diagram(TAU4, 1, ModelParams.from_beta_bar(bb))
            S4 = frozenset({1, 2, 3, 4})
            rep = identity_audit(d4, S4, (S4,))
            assert rep.ok and rep.checked > 0

    def test_inner_order_formula(self):
        for bb, tau, S in [(F(5, 4), dipole(), frozenset({1, 2})),
                           (F(7, 4), TAU6, frozenset(range(1, 7)))]:
            d = build_diagram(tau, 1, ModelParams.from_beta_bar(bb))
            for in_d in (False, True):
                setup = inner_total_homogeneity(d, S, (S,), in_d_cut=in_d)
                ok, alpha = order_audit(setup.sigma, setup.vertices)
                hom = d.bare_s_hom(S)
                assert ok
                assert alpha == -floor(-hom) - hom - (1 if in_d else 0)


class TestSummability:
    def test_single_edge_geometric(self):
        sig = TotalHomogeneity(((F(1), frozenset(["u", "v"])),))
        rep = summability_probe(sig, ["u", "v"], F(1) - 4,
                                [0, 1, 2], [10, 12, 14])
        assert rep.converged and rep.spread < 0.05

    def test_single_edge_matches_exact_geometric_sum(self):
        sig = TotalHomogeneity(((F(1), frozenset(["u", "v"])),))
        rep = summability_probe(sig, ["u", "v"], F(1) - 4,
                                [0, 1, 2], [10, 12, 14])
        for (r, cap), raw in rep.values.items():
            exact = sum(2.0 ** (-3 * s) for s in range(r + 1, cap + 1))
            assert abs(raw - exact) < 1e-12 * max(1.0, exact)

    def test_wrong_exponent_fails(self):
        sig = TotalHomogeneity(((F(1), frozenset(["u", "v"])),))
        rep = summability_probe(sig, ["u", "v"], F(-2),
                                [0, 2, 4], [10, 12, 14])
        assert not rep.converged

    def test_triangle_cells_are_scale_invariant(self):
        verts = [0, 1, 2, 3]
        edges = [(0, 1, None), (1, 2, None), (2, 3, None)]
        base = [(0, 1, 8), (1, 2, 5), (2, 3, 10)]
        c1 = triangle_cell_count(verts, edges, *coalesce(verts, base))
        shifted = coalesce(verts, [(u, v, s + 3) for u, v, s in base])
        c2 = triangle_cell_count(verts, edges, *shifted)
        assert c1 == c2 <= (4 * ANNULUS_CONSTANT * 4) ** 3


def _tree_sum(sigma, tree, lo, hi, root_hi=None):
    """Scale sum of one hierarchy over strictly increasing labelings, root
    label in [lo, root_hi], all labels <= hi, label by label."""
    vals = _evaluate(sigma, tree)
    cmap = dict(tree)
    weights = {a: float(vals[a]) - SCALING_DIM * (len(kids) - 1)
               for a, kids in tree}

    @lru_cache(maxsize=None)
    def g(a, lmin):
        total = 0.0
        for l in range(lmin, hi + 1):
            prod = 2.0 ** (weights[a] * l)
            for b in cmap[a]:
                if b in weights:
                    prod *= g(b, l + 1)
            total += prod
        return total

    top = root_hi if root_hi is not None else hi
    total = 0.0
    for l in range(lo, min(top, hi) + 1):
        prod = 2.0 ** (weights[tree[0][0]] * l)
        for b in tree[0][1]:
            if b in weights:
                prod *= g(b, l + 1)
        total += prod
    return total


def _hierarchy_values(sigma, vertices, alpha, r_values, caps):
    """The probe's raw sums, summed hierarchy by hierarchy."""
    trees = all_coalescence_trees(vertices)
    return {(r, cap): sum(_tree_sum(sigma, t, r + 1, cap) if alpha < 0
                          else _tree_sum(sigma, t, 0, cap, root_hi=r)
                          for t in trees)
            for r in r_values for cap in caps}


def _assert_matches_hierarchies(sigma, vertices, alpha, r_values, caps):
    rep = summability_probe(sigma, vertices, alpha, r_values, caps)
    want = _hierarchy_values(sigma, vertices, alpha, r_values, caps)
    assert list(rep.values) == list(want)
    for key, value in want.items():
        assert rep.values[key] == pytest.approx(value, rel=1e-12, abs=0)


class TestSummabilityOracle:
    """The probe recurses over vertex subsets; the sum over all labelled
    hierarchies is the oracle."""

    CASES = {  # name: (tree, p, contract the divergent subtrees, alpha)
        "criterion-07": (dipole(), 1, True, F(-7)),
        "criterion-07-nonnegative": (dipole(), 1, True, F(1)),
        "p1-dipole-empty-forest": (dipole(), 1, False, F(-7)),
        "p1-dipole-empty-forest-nonnegative": (dipole(), 1, False, F(0)),
        "p2-dipole-contracted": (dipole(), 2, True, F(-14)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_hierarchy_sum(self, name):
        tau, p, contract, alpha = self.CASES[name]
        d = build_diagram(tau, p, ModelParams.from_beta_bar(F(5, 4)))
        forest = tuple(d.divergent_subtrees()) if contract else ()
        s = sg_total_homogeneity(d, forest)
        _assert_matches_hierarchies(s.sigma, s.vertices, alpha,
                                    [0, 1, 2], [5, 6, 7, 8])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_hierarchy_sum_on_drawn_sigma(self, data):
        n = data.draw(st.integers(2, 5))
        markers = [frozenset([u]) for u in range(n)] + \
            [frozenset(c) for c in combinations(range(n), 2)]
        coeff = st.builds(F, st.integers(-8, 8), st.integers(1, 4))
        terms = data.draw(st.lists(st.tuples(coeff, st.sampled_from(markers)),
                                   max_size=6))
        alpha = data.draw(st.sampled_from([F(-2), F(1)]))
        _assert_matches_hierarchies(TotalHomogeneity(tuple(terms)), range(n),
                                    alpha, [0, 1, 2], [3, 4])

    @pytest.mark.parametrize("alpha, r_values, caps", [
        (F(-3), [5, 6], [3, 4]),   # every sum empty
        (F(-3), [0], [1]),         # one value compared with itself
        (F(-3), [0, 1], [5]),
        (F(-3), [0, 1], [5, 5]),
        (F(1), [0], [5, 6]),
        (F(1), [-1, 0], [5, 6]),
        (F(-3), [0, 2], [2, 5]),   # the cap-2 sum at r = 2 is empty
    ])
    def test_refuses_sums_that_cannot_fail(self, alpha, r_values, caps):
        sig = TotalHomogeneity(((F(1), frozenset(["u", "v"])),))
        with pytest.raises(ValueError):
            summability_probe(sig, ["u", "v"], alpha, r_values, caps)
