"""Exact-arithmetic tree bookkeeping: keys, homogeneities, symmetry."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sinegordon.tree_core import (
    DecoratedTree, Homogeneity, ModelParams, SupercriticalError,
    XI_PLUS, XI_MINUS, canonical_key, dipole, integrate, noise,
    opp, parse_key, s_homogeneity, sg_homogeneity, symmetry_factor,
    tree_product,
)


def trees(max_depth=3):
    label = st.sampled_from(["+", "-", "0"])
    deco = st.tuples(st.integers(0, 1), st.integers(0, 2), st.integers(0, 2))
    return st.recursive(
        st.builds(DecoratedTree, label, deco),
        lambda kids: st.builds(DecoratedTree, label, deco,
                               st.tuples(kids) | st.tuples(kids, kids)),
        max_leaves=6,
    )


class TestCanonicalForm:
    def test_dipole_key(self):
        assert canonical_key(dipole()) == "(-;0,0,0;(+;0,0,0;))"

    def test_isomorphic_orderings_agree(self):
        a = DecoratedTree("0", (0, 0, 0), (XI_PLUS, XI_MINUS))
        b = DecoratedTree("0", (0, 0, 0), (XI_MINUS, XI_PLUS))
        assert a == b and canonical_key(a) == canonical_key(b)

    def test_opposite_orientations_differ(self):
        assert canonical_key(dipole("-")) != canonical_key(dipole("+"))

    @given(trees())
    def test_parse_roundtrip(self, tau):
        assert parse_key(canonical_key(tau)) == tau

    def test_parse_rejects_garbage(self):
        for bad in ["", "(-;0,0,0;", "(x;0,0,0;)", "(-;0,0,0;)junk"]:
            with pytest.raises(ValueError):
                parse_key(bad)


class TestEagerFields:
    """The key and counts a tree is built with, against a recount."""

    @given(trees())
    def test_fields_match_a_recount_over_the_nodes(self, tau):
        nodes = list(tau.iter_nodes())
        labels = [n.label for n in nodes]
        assert parse_key(tau.key) == tau and parse_key(tau.key).key == tau.key
        assert tau.n_nodes == len(nodes)
        assert tau.n_noises == len(nodes) - labels.count("0")
        assert tau.charge == labels.count("+") - labels.count("-")
        assert tau.total_deco_weight == sum(
            2 * n.deco[0] + n.deco[1] + n.deco[2] for n in nodes)
        assert opp(opp(tau)) == tau
        # a stored flip takes no part in equality or hashing
        twin = DecoratedTree(tau.label, tau.deco, tau.children)
        assert twin == tau and hash(twin) == hash(tau)

    def test_a_tree_has_no_instance_dict(self):
        assert not hasattr(dipole(), "__dict__")


class TestHomogeneity:
    def test_noise_homogeneity(self):
        h = s_homogeneity(noise("+"))
        assert (h.const, h.bcoeff) == (0, -1)

    def test_dipole_homogeneity(self):
        h = s_homogeneity(dipole())
        assert (h.const, h.bcoeff) == (2, -2)
        assert h.at(Fraction(5, 4)) == Fraction(-1, 2)

    def test_charge_correction_only_for_charged_trees(self):
        assert sg_homogeneity(dipole()) == s_homogeneity(dipole())
        charged = tree_product(noise("+"), integrate(noise("+")))
        diff = sg_homogeneity(charged) - s_homogeneity(charged)
        assert (diff.const, diff.bcoeff) == (0, 4)

    def test_decoration_weight_is_parabolic(self):
        h = s_homogeneity(DecoratedTree("0", (1, 0, 0)))
        assert h.const == 2 and h.bcoeff == 0
        assert s_homogeneity(DecoratedTree("0", (0, 1, 1))).const == 2

    @given(trees())
    def test_opp_preserves_homogeneity_and_charge_flip(self, tau):
        assert s_homogeneity(opp(tau)) == s_homogeneity(tau)
        assert opp(tau).charge == -tau.charge
        assert opp(opp(tau)) == tau

    def test_exact_linear_arithmetic(self):
        h = Homogeneity.of(3, -2) + Homogeneity.of(Fraction(1, 3), 1)
        assert h.at(Fraction(6, 5)) == Fraction(10, 3) - Fraction(6, 5)


class TestSymmetryFactor:
    def test_repeated_children(self):
        twin = DecoratedTree("0", (0, 0, 0), (XI_PLUS, XI_PLUS))
        assert symmetry_factor(twin) == 2
        mixed = DecoratedTree("0", (0, 0, 0), (XI_PLUS, XI_MINUS))
        assert symmetry_factor(mixed) == 1

    def test_nested(self):
        branch = integrate(noise("+"))
        tau = DecoratedTree("0", (0, 0, 0), (branch, branch, branch))
        assert symmetry_factor(tau) == 6


class TestModelParams:
    def test_supercritical_rejected(self):
        with pytest.raises(SupercriticalError):
            ModelParams.make(Fraction(9))
        with pytest.raises(SupercriticalError):
            ModelParams.make(Fraction(8))

    @pytest.mark.parametrize("beta_sq", [Fraction(0), Fraction(-1)])
    def test_nonpositive_coupling_is_not_supercritical(self, beta_sq):
        with pytest.raises(ValueError, match="must be positive") as info:
            ModelParams(beta_sq, Fraction(1))
        assert not isinstance(info.value, SupercriticalError)
        with pytest.raises(ValueError, match="must be positive") as info:
            ModelParams.make(beta_sq)
        assert not isinstance(info.value, SupercriticalError)

    def test_interval_constraints(self):
        # the cutoff's window (beta_bar, 2) is the enumerator's: see
        # test_rule_engine.TestCutoff
        with pytest.raises(ValueError):
            ModelParams(Fraction(5), Fraction(1))  # bb <= b'
        with pytest.raises(ValueError):
            ModelParams(Fraction(5), Fraction(2))  # bb >= 2

    def test_from_beta_bar(self):
        p = ModelParams.from_beta_bar(Fraction(5, 4))
        assert p.beta_bar == Fraction(5, 4)
        assert p.beta_prime < p.beta_bar < 2

    @pytest.mark.parametrize("beta_bar", [Fraction(0), Fraction(-1),
                                          Fraction(2), Fraction(5)])
    def test_from_beta_bar_refuses_outside_0_2(self, beta_bar):
        # the message names beta_bar, not the beta^2 derived from it
        with pytest.raises(ValueError) as info:
            ModelParams.from_beta_bar(beta_bar)
        assert str(info.value) == f"beta_bar = {beta_bar} not in (0, 2)"
        assert not isinstance(info.value, SupercriticalError)
