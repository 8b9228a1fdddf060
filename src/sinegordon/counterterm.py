"""Counterterm coefficients and the exact cancellation certificate.

Each undecorated neutral divergent tree carries an exact coefficient of the
form c * beta^k * i^m.  Coefficients of charge-flipped partners cancel
exactly, and decorated divergent trees contribute nothing by a parity
argument; together these certify that the renormalized equation carries no
counterterm.  The certificate needs only the divergent trees, which
:func:`~sinegordon.rule_engine.enumerate_negative_trees` lists without the
rest of the catalog, and it checks its own premises on whatever catalog it
is given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .rule_engine import TreeCatalog, opp_closure_ok, structural_audit
from .tree_core import CHARGE, DecoratedTree, deco_weight, opp, symmetry_factor


@dataclass(frozen=True)
class UpsilonValue:
    """Exact scalar c * beta^k * i^m with rational c and m in {0, 1}."""

    c: Fraction
    k: int
    m: int

    def __post_init__(self):
        if self.m not in (0, 1):
            raise ValueError("i-exponent must be reduced to 0 or 1")

    def __add__(self, other: "UpsilonValue") -> "UpsilonValue":
        if self.c == 0:
            return other
        if other.c == 0:
            return UpsilonValue(Fraction(0), self.k, self.m)
        if (self.k, self.m) != (other.k, other.m):
            raise ValueError("cannot add values of different symbolic degree")
        return UpsilonValue(self.c + other.c, self.k, self.m)

    @property
    def is_zero(self) -> bool:
        return self.c == 0

    def as_dict(self) -> dict:
        return {"c": str(self.c), "k": self.k, "m": self.m}


def upsilon(tau: DecoratedTree) -> UpsilonValue:
    """Coefficient attached to an undecorated neutral divergent tree.

    The value is (i*beta)^{-1} times a product over the nodes of
    beta * q(u)^{d(u)} / 2, with d(u) the number of branches at u.
    """
    if tau.charge != 0:
        raise ValueError("coefficient defined only for neutral trees")
    if tau.total_deco_weight > 0:
        raise ValueError("coefficient defined only for undecorated trees")
    if tau.n_noises != tau.n_nodes:
        raise ValueError("coefficient defined only for all-noise trees")
    n_nodes = tau.n_nodes
    if (n_nodes - 1) % 2 == 0:
        # a neutral all-noise tree has evenly many nodes
        raise ValueError("neutral all-noise tree must have an even node count")
    sign = 1
    for node in tau.iter_nodes():
        sign *= CHARGE[node.label] ** len(node.children)
    # (i*beta)^{-1} = -i/beta folds into c the extra factor i^2 = -1
    c = Fraction(sign, 2**n_nodes)
    return UpsilonValue(-c, n_nodes - 1, 1)


@dataclass
class CancellationLedger:
    """Pairing of divergent trees with their charge-flipped partners."""

    pairs: list[dict] = field(default_factory=list)
    parity_killed: list[dict] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        return "counterterm vanishes" if not self.failures else "cancellation FAILED"

    @property
    def ok(self) -> bool:
        return not self.failures

    def export(self) -> dict:
        return {
            "verdict": self.verdict,
            "pairs": self.pairs,
            "parity_killed": self.parity_killed,
            "failures": self.failures,
        }


def cancellation_report(cat: TreeCatalog) -> CancellationLedger:
    """Certify, tree by tree, that all counterterm contributions vanish.

    Undecorated neutral divergent trees are matched with their charge
    flips and their coefficients must sum to zero exactly (the shared
    scalar weight of a flip pair is identical in distribution, so exact
    coefficient cancellation kills the pair).  Decorated neutral divergent
    trees are parity-killed: their scalar weight vanishes because the
    integrand is odd in the single spatial direction singled out by the
    unit decoration.

    Both arguments rest on premises checked here first: the catalog and its
    divergent subsets are closed under charge flip (:func:`opp_closure_ok`),
    and every divergent tree is all-noise with at most one unit decoration
    (:func:`structural_audit`).  Each broken premise is a failure, and a
    tree that breaks one is not paired.
    """
    ledger = CancellationLedger()
    audit = structural_audit(cat)
    ledger.failures.extend(audit.violations)
    if not opp_closure_ok(cat):
        ledger.failures.append({"reason": "catalog not closed under charge flip"})
    seen = {v["key"] for v in audit.violations}
    for key in sorted(cat.negative_neutral):
        if key in seen:
            continue
        tau = cat.negative_neutral[key]
        if tau.total_deco_weight:
            # the structural audit left exactly one unit decoration
            deco = next(n.deco for n in tau.iter_nodes() if deco_weight(n.deco) > 0)
            ledger.parity_killed.append({"key": key, "deco": list(deco)})
            continue
        tau_opp = opp(tau)
        key_opp = tau_opp.key
        if key_opp not in cat.negative_neutral:
            ledger.failures.append({"key": key, "reason": "charge-flip partner missing"})
            continue
        u = upsilon(tau)
        u_opp = upsilon(tau_opp)
        total = u + u_opp
        entry = {
            "key": key,
            "key_opp": key_opp,
            "upsilon": u.as_dict(),
            "upsilon_opp": u_opp.as_dict(),
            "sym_factor": symmetry_factor(tau),
        }
        if not total.is_zero:
            ledger.failures.append({**entry, "reason": "pair sum nonzero"})
        else:
            ledger.pairs.append(entry)
        seen.add(key_opp)
    return ledger
