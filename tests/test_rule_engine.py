"""Catalog enumeration against an independent brute-force oracle."""

from fractions import Fraction
from itertools import product

import pytest

from sinegordon.tree_core import (DecoratedTree, ModelParams, XI_MINUS,
                                  canonical_key, deco_weight, dipole,
                                  integrate, opp, s_homogeneity)
from sinegordon.rule_engine import (AuditReport, enumerate_negative_trees,
                                    enumerate_trees, structural_audit,
                                    opp_closure_ok)


# the params ``sgbench renorm cancel`` builds for beta^2/pi = 5, 6 and 13/2
NEGATIVE_PARAMS = [ModelParams(Fraction(5), Fraction(43, 32)),
                   ModelParams(Fraction(6), Fraction(25, 16)),
                   ModelParams(Fraction(13, 2), Fraction(107, 64))]


def brute_force_negative_neutral(beta_bar: Fraction, max_nodes: int = 4):
    """Oracle: enumerate every undecorated charge-labeled rooted tree with
    at most ``max_nodes`` nodes by direct shape recursion and keep the
    neutral ones with 2*(n-1) - beta_bar*n < 0.

    Deliberately independent of the catalog machinery: no homogeneity
    objects, no admissibility rule, just raw counting.
    """
    shapes: dict[int, list[DecoratedTree]] = {0: []}

    def all_trees(n: int) -> list[DecoratedTree]:
        if n in shapes:
            return shapes[n]
        out = []
        for label in "+-":
            for split in compositions(n - 1):
                for kids in product(*(all_trees(k) for k in split)):
                    out.append(DecoratedTree(label, (0, 0, 0), kids))
        # canonical equality collapses child orderings
        shapes[n] = list({t.key: t for t in out}.values())
        return shapes[n]

    def compositions(total: int):
        if total == 0:
            yield ()
            return
        for first in range(1, total + 1):
            for rest in compositions(total - first):
                yield (first,) + rest

    found = set()
    for n in range(1, max_nodes + 1):
        for t in all_trees(n):
            hom = 2 * (n - 1) - beta_bar * n
            charge = sum(1 if lab == "+" else -1
                         for lab in (node.label for node in t.iter_nodes()))
            if hom < 0 and charge == 0:
                found.add(t.key)
    return found


class TestCatalog:
    def test_dipole_window_has_exactly_two_orientations(self):
        cat = enumerate_trees(ModelParams.from_beta_bar(Fraction(6, 5)))
        expect = {canonical_key(dipole("-")), canonical_key(dipole("+"))}
        assert set(cat.negative_neutral) == expect
        assert set(cat.negative_neutral) == \
            brute_force_negative_neutral(Fraction(6, 5))

    def test_weak_coupling_has_no_neutral_divergence(self):
        cat = enumerate_trees(ModelParams.from_beta_bar(Fraction(1, 2)))
        assert not cat.negative_neutral
        assert not brute_force_negative_neutral(Fraction(1, 2))
        # the only divergent symbols are the bare noises themselves
        assert all(cat.all[k].n_nodes == 1 for k in cat.negative)

    def test_oracle_agreement_across_couplings(self):
        for bb in [Fraction(11, 10), Fraction(5, 4), Fraction(29, 20)]:
            cat = enumerate_trees(ModelParams.from_beta_bar(bb))
            undecorated = {k for k, t in cat.negative_neutral.items()
                           if t.total_deco_weight == 0}
            assert undecorated == brute_force_negative_neutral(bb), bb

    def test_classify_is_consistent(self):
        """Each catalog's divergent and neutral-divergent trees are exactly
        those of negative |tau|_s, recomputed per tree, and of charge 0.
        At beta_bar 3/2, 69 catalog trees have |tau|_s = 0 exactly."""
        cats = [enumerate_trees(ModelParams.from_beta_bar(bb))
                for bb in (Fraction(11, 10), Fraction(5, 4), Fraction(29, 20),
                           Fraction(3, 2))]
        cats += [enumerate_negative_trees(p) for p in NEGATIVE_PARAMS]
        for cat in cats:
            bb = cat.params.beta_bar
            neg = {k for k, t in cat.all.items()
                   if s_homogeneity(t).at(bb) < 0}
            assert set(cat.negative) == neg, bb
            assert set(cat.negative_neutral) == \
                {k for k in neg if cat.all[k].charge == 0}, bb

    def test_structural_audit_and_opp_closure(self):
        cat = enumerate_trees(ModelParams.from_beta_bar(Fraction(5, 4)))
        rep = structural_audit(cat)
        assert rep.ok, rep.violations
        assert opp_closure_ok(cat)

    def test_opp_closure_on_catalog_keys(self):
        cat = enumerate_trees(ModelParams.from_beta_bar(Fraction(6, 5)))
        for key, tau in cat.all.items():
            assert canonical_key(opp(tau)) in cat.all


class TestCutoff:
    """The cutoff mu is the enumerator's own argument, refused outside
    (beta_bar, 2) and defaulting to the midpoint of that window."""

    @pytest.mark.parametrize("mu", [Fraction(5, 4), Fraction(3, 2),
                                    Fraction(2)])
    def test_cutoff_outside_window_refused(self, mu):
        params = ModelParams(Fraction(5), Fraction(3, 2))
        with pytest.raises(ValueError, match=rf"^mu = {mu} not in \(beta_bar, 2\)$"):
            enumerate_trees(params, mu)

    def test_default_cutoff_lies_in_window(self):
        params = ModelParams.from_beta_bar(Fraction(5, 4))
        mid = (params.beta_bar + 2) / 2
        cat = enumerate_trees(params)
        assert set(cat.all) == set(enumerate_trees(params, mid).all)
        top = max(s_homogeneity(t).at(params.beta_bar) for t in cat.all.values())
        # trees above beta_bar enter, so beta_bar < top < default cutoff < 2
        assert params.beta_bar < top < mid < 2
        assert set(cat.all) < set(enumerate_trees(params, (mid + 2) / 2).all)


def reference_fixpoint(params: ModelParams, mu: Fraction
                       ) -> dict[str, DecoratedTree]:
    """Oracle: the catalog below ``mu`` by rounds of node construction over
    everything found so far, until a round finds nothing new.

    Every branch of a catalog tree is a catalog tree, so the rounds close
    on the catalog.  Each round rebuilds the trees of the earlier ones and
    drops them at the ``key not in found`` check.
    """
    bb = params.beta_bar
    decos = [k for k in product(range(2), range(3), range(3))
             if deco_weight(k) <= 2]
    roots = [(label, deco,
              Fraction(deco_weight(deco)) - (bb if label != "0" else 0))
             for label in ("+", "-", "0") for deco in decos]
    found = {}
    hom = {}

    def add(t, into):
        into[t.key] = t
        hom[t.key] = s_homogeneity(t).at(bb)

    frontier = []
    for label, deco, root_cost in roots:
        if root_cost < mu:
            t = DecoratedTree(label, deco)
            add(t, found)
            frontier.append(t)
    while frontier:
        cand = sorted(found.values(), key=lambda t: (hom[t.key], t.key))
        costs = [2 + hom[t.key] for t in cand]
        new = {}

        def extend(idx, budget, chosen, root_label, root_deco):
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

        for label, deco, root_cost in roots:
            extend(0, mu - root_cost, [], label, deco)
        found.update(new)
        frontier = list(new.values())
    return found


class TestReferenceFixpoint:
    """The recursion on the cutoff lists the same trees as the rounds.  At
    beta_bar 5/4 and cutoff 7/4, and at beta_bar 3/2 and cutoff 0, trees
    sit exactly at the cutoff, and neither may list them."""

    @pytest.mark.parametrize("mu", [None, Fraction(7, 4)])
    def test_full_catalog(self, mu):
        params = ModelParams.from_beta_bar(Fraction(5, 4))
        assert set(enumerate_trees(params, mu).all) == \
            set(reference_fixpoint(params, mu or (params.beta_bar + 2) / 2))

    @pytest.mark.parametrize("params", [
        *NEGATIVE_PARAMS, ModelParams(Fraction(5), Fraction(3, 2))],
        ids=["5", "6", "13/2", "5 at beta_bar 3/2"])
    def test_negative_catalog(self, params):
        assert set(enumerate_negative_trees(params).all) == \
            set(reference_fixpoint(params, Fraction(0)))


def test_enumerator_builds_each_tree_about_once(monkeypatch):
    """At beta^2/pi = 13/2 and the CLI's beta_bar 107/64, the enumerator
    keeps 1,298 trees and constructs at most 1.5 times as many: a tree is
    rebuilt only for each deeper cutoff that it also lies below."""
    built = []
    init = DecoratedTree.__post_init__

    def counted(tree):
        built.append(None)
        init(tree)

    monkeypatch.setattr(DecoratedTree, "__post_init__", counted)
    cat = enumerate_negative_trees(NEGATIVE_PARAMS[2])
    assert len(cat.all) == 1298
    assert len(built) <= 1.5 * len(cat.all)


# --- the per-node structural audit, kept as an oracle for the stored counts --


def _oracle_structural_audit(cat):
    """The structural audit as it was first written: a walk over every node
    of each divergent tree, and a ``Homogeneity`` per catalog tree."""
    bb = cat.params.beta_bar
    violations = []
    checked = 0
    for key, tau in (cat.negative | cat.negative_neutral).items():
        checked += 1
        if any(node.label == "0" for node in tau.iter_nodes()):
            violations.append({"key": key, "reason": "0-labeled node in divergent tree"})
            continue
        decos = [node.deco for node in tau.iter_nodes() if deco_weight(node.deco) > 0]
        if decos and (len(decos) > 1 or decos[0] not in ((0, 1, 0), (0, 0, 1))):
            violations.append({"key": key, "reason": "decoration not a single unit space index"})
    for key, tau in cat.all.items():
        checked += 1
        if tau.n_nodes == 1 and tau.label != "0" and tau.deco == (0, 0, 0):
            continue
        if s_homogeneity(tau).at(bb) <= -bb:
            violations.append({"key": key, "reason": "homogeneity at or below -beta_bar"})
    return AuditReport(not violations, checked, violations)


class TestStructuralAuditOracle:
    @pytest.mark.parametrize("params", [
        ModelParams.from_beta_bar(Fraction(5, 4)),
        ModelParams.from_beta_bar(Fraction(7, 5)), ModelParams.make(5)],
        ids=["bb 5/4", "bb 7/5", "5"])
    def test_full_catalogs(self, params):
        cat = enumerate_trees(params)
        assert structural_audit(cat) == _oracle_structural_audit(cat)

    @pytest.mark.parametrize("params", NEGATIVE_PARAMS, ids=["5", "6", "13/2"])
    def test_negative_catalogs(self, params):
        cat = enumerate_negative_trees(params)
        assert structural_audit(cat) == _oracle_structural_audit(cat)

    def test_broken_trees(self):
        # a 0-node (the tree of the cancellation ledger's broken-premise
        # test), two unit decorations, and single decorations of weight 2
        cat = enumerate_trees(ModelParams.from_beta_bar(Fraction(6, 5)))
        bad = [DecoratedTree("+", (0, 0, 0), (integrate(XI_MINUS),)),
               DecoratedTree("+", (0, 1, 0), (DecoratedTree("-", (0, 0, 1)),)),
               DecoratedTree("+", (0, 2, 0), (XI_MINUS,)),
               DecoratedTree("+", (0, 1, 1), (XI_MINUS,)),
               DecoratedTree("+", (1, 0, 0), (XI_MINUS,))]
        for tau in bad + [opp(t) for t in bad]:
            for subset in (cat.all, cat.negative, cat.negative_neutral):
                subset[tau.key] = tau
        rep = structural_audit(cat)
        assert rep == _oracle_structural_audit(cat)
        assert [v["key"] for v in rep.violations] == \
            [t.key for t in bad + [opp(t) for t in bad]]
