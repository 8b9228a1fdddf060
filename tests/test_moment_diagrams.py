"""Diagram construction, divergences, gamma bookkeeping, the edge sets,
the memo, and the term inventory."""

import ast
import dataclasses
from fractions import Fraction
from pathlib import Path

import pytest

from sinegordon.tree_core import DecoratedTree, ModelParams, XI_PLUS, XI_MINUS, dipole
from sinegordon import multiscale as ms
from sinegordon.moment_diagrams import (BASE_POINT, build_diagram,
                                        single_copy_diagram, derived_edge_sets,
                                        moment_terms, multilinearity_audit,
                                        uncut_terms)

P54 = ModelParams.from_beta_bar(Fraction(5, 4))
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sinegordon"

# worked six-noise example: a negative root carrying one bare noise and a
# positive node that itself carries three noises
TAU6 = DecoratedTree("-", (0, 0, 0), (
    XI_PLUS,
    DecoratedTree("+", (0, 0, 0), (XI_PLUS, XI_MINUS, XI_PLUS)),
))
TAU4 = DecoratedTree("-", (0, 0, 0), (XI_PLUS, XI_PLUS, XI_MINUS))


# name -> (tree, copy pairs p, beta_bar)
DIAGRAMS = {
    "dipole-1-5/4": (dipole(), 1, "5/4"), "dipole-1-7/5": (dipole(), 1, "7/5"),
    "dipole-2-5/4": (dipole(), 2, "5/4"), "dipole-2-7/5": (dipole(), 2, "7/5"),
    "tau4-1-5/4": (TAU4, 1, "5/4"), "tau4-1-7/4": (TAU4, 1, "7/4"),
    "tau6-1-7/4": (TAU6, 1, "7/4"),
}


def diagram(name):
    """A fresh diagram, so that no test sees another's memo."""
    tau, p, beta_bar = DIAGRAMS[name]
    return build_diagram(tau, p, ModelParams.from_beta_bar(Fraction(beta_bar)))


class TestDiagramStructure:
    def test_copies_alternate_orientation(self):
        d = build_diagram(dipole(), 1, P54)
        assert d.n_copies == 2
        assert [d.label[r] for r in d.roots] == ["-", "+"]
        assert BASE_POINT not in d.parent

    def test_pairs_are_cross_copy_and_balanced(self):
        d = build_diagram(dipole(), 2, P54)
        assert len(d.noises) == 8
        assert len(d.pairs) == len(d.noises) * (len(d.noises) - 1) // 2

    def test_divergent_subtrees_of_the_pair_diagram(self):
        d = build_diagram(dipole(), 1, P54)
        assert [sorted(T) for T in d.divergent_subtrees()] == [[1, 2], [3, 4]]
        assert len(d.enumerate_forests()) == 4

    def test_forest_members_nested_or_disjoint(self):
        d = build_diagram(TAU6, 1, P54)
        for F in d.enumerate_forests():
            for S in F:
                for T in F:
                    assert S <= T or T <= S or not (S & T)


class TestGamma:
    def test_worked_value(self):
        params = ModelParams.from_beta_bar(Fraction(503, 300))
        d = build_diagram(TAU6, 1, params)
        targets = [e for e in d.kernel_edges
                   if len(d.descendants(e)) == 4]
        assert targets and all(d.gamma(e) == 2 for e in targets)

    def test_gamma_range_across_catalog(self):
        from sinegordon.rule_engine import enumerate_trees
        samples = [Fraction(k, 20) for k in range(21, 30)] + [Fraction(41, 40)]
        assert len(samples) == 10
        checked = 0
        for bb in samples:
            cat = enumerate_trees(ModelParams.from_beta_bar(bb))
            for tau in cat.negative_neutral.values():
                d = build_diagram(tau, 1, cat.params)
                for e in d.cut_sites():
                    assert d.gamma(e) in (1, 2), (bb, tau.key, e)
                    checked += 1
        assert checked > 0
        # the deeper-edge value 2 is realized on the six-noise example
        params = ModelParams.from_beta_bar(Fraction(503, 300))
        d = build_diagram(TAU6, 1, params)
        assert sorted({d.gamma(e) for e in d.cut_sites()}) == [1, 2]


class TestEdgeSets:
    def test_bundle_partitions_edges(self):
        d = build_diagram(dipole(), 2, P54)
        F = d.divergent_subtrees()[:2]
        b = derived_edge_sets(d, F)
        assert b.K_F <= set(d.kernel_edges)
        assert b.K_ring | b.K_partial | b.K_down <= set(d.kernel_edges)

    @pytest.mark.parametrize("name", DIAGRAMS)
    def test_free_sites_are_the_kernel_edges_outside_the_members(self, name):
        # every kernel edge is a cut site at these couplings, so the sites
        # a forest leaves free are exactly the kernel edges of none of its
        # members, which the big-graph audit's refusal of a cut relies on
        d = diagram(name)
        assert d.cut_sites() == tuple(d.kernel_edges)
        for F in d.enumerate_forests():
            assert d.free_sites(F) == derived_edge_sets(d, F).K_F, sorted(map(sorted, F))
            assert d.free_sites(set(F)) is d.free_sites(F)

    # TAU6 is left out for time: its 17,424 inventories take seconds alone
    @pytest.mark.parametrize("name", [n for n in DIAGRAMS if n != "tau6-1-7/4"])
    def test_each_kernel_edge_once_per_inventory(self, name):
        d = diagram(name)
        for term in moment_terms(d):
            kernels = [f.edge for f in term.inventory
                       if f.kind in ("ker", "rker")]
            assert sorted(kernels) == d.kernel_edges, term.as_dict()


# --- the two-branch edge sets, kept as an oracle for the one-body rewrite ----
#
# The whole diagram and a forest member were once computed by two near-copies.
# At the top the old fields are renamed versions of the member formulas: old
# K_F is K_ring, old K_down is K_partial, and old K_F | K_down is K_F; the new
# K_down is empty, as was the old K_partial.


def _maximal(trees):
    return [T for T in trees if not any(T < U for U in trees)]


def _member_of(node, trees):
    for T in trees:
        if node in T:
            return T
    return None


def _oracle_edge_sets(d, F, S=None):
    F = list(F)
    if S is None:
        node_set = frozenset(d.nodes)
        C = _maximal(F)
        ntf = node_set - frozenset().union(*[d.N_tilde(T) for T in F]) if F else node_set
        n_f = ntf
        l_removed = frozenset().union(*[d.L(T) for T in F]) if F else frozenset()
        l_f = d.L(node_set) - l_removed
        kbar = frozenset().union(*[d.K(T) | d.K_down(T) for T in C]) if C else frozenset()
        k_f = frozenset(d.kernel_edges) - kbar
        k_ring = k_f
        k_partial = frozenset()
        k_down = frozenset().union(*[d.K_down(T) for T in C]) if C else frozenset()
        pairs_f = [e for e in d.pairs if e[0] in l_f and e[1] in l_f]
        pairs_partial = []
        for a, b in d.pairs:
            ta = _member_of(a, C)
            tb = _member_of(b, C)
            one_out = (a in l_f) != (b in l_f)
            crossing = ta is not None and tb is not None and ta is not tb
            if one_out or crossing:
                pairs_partial.append((a, b))
        return dict(C=C, N_F=n_f, L_F=l_f, K_F=k_f, K_ring=k_ring,
                    K_partial=k_partial, K_down=k_down, pairs_F=pairs_f,
                    pairs_partial=pairs_partial)

    C = _maximal([T for T in F if T < S])
    rho = d.subtree_root(S)
    ntf = d.N_tilde(S) - (frozenset().union(*[d.N_tilde(T) for T in C]) if C else frozenset())
    n_f = ntf | {rho}
    l_f = d.L(S) - (frozenset().union(*[d.L(T) for T in C]) if C else frozenset())
    k_s = d.K(S)
    k_f = k_s - (frozenset().union(*[d.K(T) for T in C]) if C else frozenset())
    kbar = frozenset().union(*[d.K(T) | d.K_down(T) for T in C]) if C else frozenset()
    k_ring = k_s - kbar
    kdown_children = frozenset().union(*[d.K_down(T) for T in C]) if C else frozenset()
    k_partial = k_s & kdown_children
    pairs_f = [e for e in d.pairs if e[0] in l_f and e[1] in l_f]
    LS = d.L(S)
    pairs_partial = []
    for a, b in d.pairs:
        if a not in LS or b not in LS:
            continue
        ta = _member_of(a, C)
        tb = _member_of(b, C)
        one_out = (a in l_f) != (b in l_f)
        crossing = ta is not None and tb is not None and ta is not tb
        if one_out or crossing:
            pairs_partial.append((a, b))
    return dict(C=C, N_F=n_f, L_F=l_f, K_F=k_f, K_ring=k_ring,
                K_partial=k_partial, K_down=d.K_down(S), pairs_F=pairs_f,
                pairs_partial=pairs_partial)


def _as_member_fields(old, top):
    """The old fields under the names of the one-body model."""
    new = dict(old, C=frozenset(old["C"]), pairs_F=tuple(old["pairs_F"]),
               pairs_partial=tuple(old["pairs_partial"]))
    if top:
        new.update(K_F=old["K_F"] | old["K_down"], K_ring=old["K_F"],
                   K_partial=old["K_down"], K_down=frozenset())
    return new


class TestTwoBranchOracle:
    @pytest.mark.parametrize("name", DIAGRAMS)
    def test_every_field_matches(self, name):
        d = diagram(name)
        cases = 0
        for F in d.enumerate_forests():
            for S in [None, *F]:
                got = dataclasses.asdict(derived_edge_sets(d, F, S))
                want = _as_member_fields(_oracle_edge_sets(d, F, S), S is None)
                assert got == want, (sorted(map(sorted, F)), S)
                cases += 1
        assert cases > len(d.enumerate_forests())


class TestMemo:
    def test_forests_are_computed_once(self):
        d = build_diagram(TAU4, 1, P54)
        assert d.enumerate_forests() is d.enumerate_forests()
        assert d.divergent_subtrees() is d.divergent_subtrees()
        assert d.cut_sites() is d.cut_sites()
        F = d.enumerate_forests()[-1]
        assert derived_edge_sets(d, F) is derived_edge_sets(d, set(F))

    def test_diagram_is_frozen(self):
        d = build_diagram(dipole(), 1, P54)
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.n_copies = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.nodes = []

    def test_memo_is_empty_after_build(self):
        assert build_diagram(TAU6, 1, P54)._memo == {}
        assert single_copy_diagram(dipole(), P54)._memo == {}

    @pytest.mark.parametrize("table", ["_forest_edges", "_harvest_edges"])
    def test_every_form_of_a_forest_shares_one_entry(self, table):
        d = build_diagram(TAU4, 1, P54)
        F = max(d.enumerate_forests(), key=len)
        build = getattr(ms, table)
        first = build(d, set(F))
        size = len(d._memo)
        assert build(d, F) is first and build(d, tuple(F)) is first
        assert len(d._memo) == size

    def test_only_the_decorator_touches_the_memo(self):
        # every other reader or writer would have to know the key format
        touching = set()
        for path in sorted(PACKAGE.glob("*.py")):
            for stmt in ast.parse(path.read_text()).body:
                # a method counts as itself, a statement of the module too
                for top in stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]:
                    if any(isinstance(node, ast.Attribute) and node.attr == "_memo"
                           for node in ast.walk(top)):
                        name = getattr(top, "name", type(top).__name__)
                        touching.add(f"{path.stem}.{name}")
        assert touching == {"moment_diagrams._memoized"}

    def test_projection_reuses_the_edge_table(self, monkeypatch):
        d = build_diagram(TAU4, 1, P54)
        F = max(d.enumerate_forests(), key=len)
        runs = []

        def spy(*args):
            runs.append(args)
            return derived_edge_sets(*args)

        monkeypatch.setattr(ms, "derived_edge_sets", spy)
        images = {ms.safe_projection(d, F, ms.ScaleAssignment.constant(d, c))
                  for c in range(4)}
        assert images == {F}
        assert len(runs) == len(F) > 1


class TestMomentTerms:
    def test_single_copy_dipole_has_three_terms(self):
        d = single_copy_diagram(dipole(), P54)
        assert len(moment_terms(d)) == 3

    def test_pair_diagram_has_nine_terms(self):
        d = build_diagram(dipole(), 1, P54)
        assert len(moment_terms(d)) == 9

    def test_term_count_is_multiplicative_in_copies(self):
        d = build_diagram(dipole(), 2, P54)
        assert len(moment_terms(d)) == 81

    def test_multilinearity(self):
        for p in (1, 2):
            d = build_diagram(dipole(), p, P54)
            rep = multilinearity_audit(d, moment_terms(d))
            assert rep.ok, rep.failures

    @pytest.mark.parametrize("name", DIAGRAMS)
    def test_uncut_terms_stand_for_every_cut(self, name):
        # the audit checks one uncut term per forest: every cut of the
        # forest must carry the same interactions, and the count must agree
        d = diagram(name)
        uncut, n_terms = uncut_terms(d)
        assert [t.forest for t in uncut] == list(d.enumerate_forests())
        assert all(t.cut == frozenset() for t in uncut)
        interactions = {t.forest: [f for f in t.inventory
                                   if f.kind == "interaction"] for t in uncut}
        terms = moment_terms(d)
        assert n_terms == len(terms)
        assert len({t.cut for t in terms}) > 1
        for term in terms:
            assert [f for f in term.inventory if f.kind == "interaction"] \
                == interactions[term.forest], term.as_dict()

    def test_term_export_schema(self):
        d = build_diagram(dipole(), 1, P54)
        for term in moment_terms(d):
            out = term.as_dict()
            assert set(out) == {"forest", "cut", "inventory", "y_sites"}
            assert all(f["kind"] in
                       {"ker", "rker", "interaction", "poly", "test"}
                       for f in out["inventory"])
