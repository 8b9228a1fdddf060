"""Catalog enumeration against an independent brute-force oracle."""

from fractions import Fraction
from itertools import product

import pytest

from sinegordon.tree_core import (DecoratedTree, ModelParams, canonical_key,
                                  dipole, opp, s_homogeneity)
from sinegordon import rule_engine
from sinegordon.rule_engine import (enumerate_negative_trees, enumerate_trees,
                                    classify_trees, structural_audit,
                                    opp_closure_ok)


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
        cat = enumerate_trees(ModelParams.from_beta_bar(Fraction(5, 4)))
        neg, neg_neut = classify_trees(cat)
        assert set(neg_neut) <= set(neg) <= set(cat.all)
        assert all(cat.all[k].charge == 0 for k in neg_neut)

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


def test_fixpoint_evaluates_each_homogeneity_once(monkeypatch):
    """At beta^2/pi = 13/2 and the CLI's default beta_bar 107/64 (1,298
    negative trees over several rounds), the fixpoint evaluates |tau|_s at
    most once per tree it finds, before the catalog is classified."""
    calls, at_classify = [], []

    def counted(tau):
        calls.append(tau.key)
        return s_homogeneity(tau)

    def classify(cat):
        at_classify.append(len(calls))
        return classify_trees(cat)

    monkeypatch.setattr(rule_engine, "s_homogeneity", counted)
    monkeypatch.setattr(rule_engine, "classify_trees", classify)
    cat = enumerate_negative_trees(ModelParams(Fraction(13, 2),
                                               Fraction(107, 64)))
    assert len(cat.all) == 1298
    assert at_classify == [len(set(calls[: at_classify[0]]))]
    assert at_classify[0] <= len(cat.all)
