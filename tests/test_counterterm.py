"""Exact cancellation of the renormalization coefficients."""

from fractions import Fraction

import pytest

from sinegordon.tree_core import (DecoratedTree, ModelParams, XI_PLUS,
                                  XI_MINUS, dipole, opp,
                                  tree_product, integrate)
from sinegordon.rule_engine import enumerate_negative_trees, enumerate_trees
from sinegordon.counterterm import UpsilonValue, upsilon, cancellation_report


class TestUpsilon:
    def test_dipole_value(self):
        # the negative-root orientation evaluates to i*beta/4
        assert upsilon(dipole("-")) == UpsilonValue(Fraction(1, 4), 1, 1)
        assert upsilon(dipole("+")) == UpsilonValue(Fraction(-1, 4), 1, 1)

    def test_flip_pair_cancels(self):
        tau = dipole("-")
        total = upsilon(tau) + upsilon(opp(tau))
        assert total.is_zero

    def test_rejects_charged_trees(self):
        with pytest.raises(ValueError):
            upsilon(tree_product(XI_PLUS, integrate(XI_PLUS)))

    def test_rejects_decorated_and_materials(self):
        deco = DecoratedTree("-", (0, 1, 0), (integrate(XI_PLUS),))
        with pytest.raises(ValueError):
            upsilon(deco)
        with pytest.raises(ValueError):
            upsilon(DecoratedTree("0", (0, 0, 0)))

    def test_addition_requires_matching_degree(self):
        with pytest.raises(ValueError):
            UpsilonValue(Fraction(1), 1, 1) + UpsilonValue(Fraction(1), 3, 1)


class TestCancellationLedger:
    @pytest.mark.parametrize("bb", [Fraction(6, 5), Fraction(5, 4),
                                    Fraction(13, 10), Fraction(7, 5),
                                    Fraction(29, 20)])
    def test_everything_cancels(self, bb):
        cat = enumerate_trees(ModelParams.from_beta_bar(bb))
        ledger = cancellation_report(cat)
        assert ledger.ok
        assert ledger.verdict == "counterterm vanishes"
        # each neutral tree is paired with its flip or parity-killed
        assert 2 * len(ledger.pairs) + len(ledger.parity_killed) == \
            len(cat.negative_neutral)

    def test_dipole_pair_recorded(self):
        cat = enumerate_trees(ModelParams.from_beta_bar(Fraction(6, 5)))
        ledger = cancellation_report(cat)
        assert len(ledger.pairs) == 1
        pair = ledger.pairs[0]
        assert {pair["key"], pair["key_opp"]} == {
            "(-;0,0,0;(+;0,0,0;))", "(+;0,0,0;(-;0,0,0;))"}
        assert pair["sym_factor"] == 1

    def test_broken_premise_is_a_failure(self):
        # a neutral tree with a 0-node cannot diverge; slip one and its flip
        # into the divergent sets by hand
        cat = enumerate_trees(ModelParams.from_beta_bar(Fraction(6, 5)))
        clean = cancellation_report(cat)
        bad = DecoratedTree("+", (0, 0, 0), (integrate(XI_MINUS),))
        for tau in (bad, opp(bad)):
            for subset in (cat.all, cat.negative, cat.negative_neutral):
                subset[tau.key] = tau
        ledger = cancellation_report(cat)
        assert not ledger.ok
        assert ledger.verdict == "cancellation FAILED"
        assert ledger.failures == [
            {"key": k, "reason": "0-labeled node in divergent tree"}
            for k in (bad.key, opp(bad).key)]
        assert ledger.pairs == clean.pairs

    def test_unclosed_catalog_is_a_failure(self):
        cat = enumerate_trees(ModelParams.from_beta_bar(Fraction(6, 5)))
        lone = dipole("+").key
        for subset in (cat.all, cat.negative, cat.negative_neutral):
            del subset[lone]
        ledger = cancellation_report(cat)
        assert ledger.failures == [
            {"reason": "catalog not closed under charge flip"},
            {"key": dipole("-").key, "reason": "charge-flip partner missing"}]


def cli_params(beta_sq: Fraction) -> ModelParams:
    """The params ``sgbench renorm cancel`` builds for ``beta_sq`` (pi units)."""
    return ModelParams.make(beta_sq)


class TestNegativeCatalog:
    """The catalog below cutoff 0 against the full catalog, and beyond its
    reach."""

    @pytest.mark.parametrize("beta_sq", [Fraction(1, 2), Fraction(2),
                                         Fraction(4), Fraction(5),
                                         Fraction(11, 2)])
    def test_matches_full_catalog(self, beta_sq):
        params = cli_params(beta_sq)
        full = enumerate_trees(params)
        neg = enumerate_negative_trees(params)
        assert set(neg.all) == set(full.negative)
        assert cancellation_report(neg).export() == \
            cancellation_report(full).export()

    @pytest.mark.parametrize("beta_sq, n_neg, n_neutral, n_pairs, n_parity", [
        (Fraction(6), 92, 28, 10, 8),
        (Fraction(13, 2), 1298, 296, 144, 8),
    ])
    def test_counts_beyond_the_full_catalog(self, beta_sq, n_neg, n_neutral,
                                            n_pairs, n_parity):
        neg = enumerate_negative_trees(cli_params(beta_sq))
        ledger = cancellation_report(neg)
        assert ledger.failures == []
        assert (len(neg.all), len(neg.negative_neutral), len(ledger.pairs),
                len(ledger.parity_killed)) == (n_neg, n_neutral, n_pairs,
                                               n_parity)
        assert 2 * len(ledger.pairs) + len(ledger.parity_killed) == \
            n_neutral
        # the dipole and the four-noise chain, signs fixed by the orientations
        upsilons = {e["key"]: (e["upsilon"]["c"], e["upsilon_opp"]["c"])
                    for e in ledger.pairs}
        assert upsilons["(+;0,0,0;(-;0,0,0;))"] == ("-1/4", "1/4")
        assert upsilons["(+;0,0,0;(+;0,0,0;(-;0,0,0;(-;0,0,0;))))"] == \
            ("1/16", "-1/16")
