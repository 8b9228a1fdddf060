"""Decorated rooted trees with exact-rational homogeneity bookkeeping.

Trees carry a charge label in {+, 0, -} and a polynomial decoration in N^3
at every node.  All homogeneity arithmetic is done exactly as linear
expressions a + b*beta_bar with rational coefficients, so that sign and
threshold comparisons never touch floating point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

LABELS = ("+", "0", "-")
#: charge of a node with each label, and the label of its charge flip
CHARGE = {"+": 1, "0": 0, "-": -1}
FLIP = {"+": "-", "0": "0", "-": "+"}

#: parabolic scaling of one time and two space directions
SCALING = (2, 1, 1)
SCALING_DIM = sum(SCALING)


def deco_weight(k: tuple[int, int, int]) -> int:
    """Scaled size 2*k0 + k1 + k2 of a decoration multi-index."""
    return 2 * k[0] + k[1] + k[2]


@dataclass(frozen=True)
class Homogeneity:
    """Exact value a + b*beta_bar with rational a, b."""

    const: Fraction
    bcoeff: Fraction

    def __add__(self, other: "Homogeneity") -> "Homogeneity":
        return Homogeneity(self.const + other.const, self.bcoeff + other.bcoeff)

    def __sub__(self, other: "Homogeneity") -> "Homogeneity":
        return Homogeneity(self.const - other.const, self.bcoeff - other.bcoeff)

    def at(self, beta_bar: Fraction) -> Fraction:
        """Evaluate at a rational beta_bar; the result is an exact rational."""
        return self.const + self.bcoeff * Fraction(beta_bar)

    @staticmethod
    def of(const, bcoeff=0) -> "Homogeneity":
        return Homogeneity(Fraction(const), Fraction(bcoeff))


@dataclass(frozen=True)
class ModelParams:
    """Exact model parameters.

    ``beta_sq`` is the squared coupling in units of pi (so a coupling of
    5*pi is stored as the rational 5).  ``beta_prime`` is beta^2/(4*pi), and
    ``beta_bar`` an exact rational in (beta_prime, 2) controlling all
    homogeneity bookkeeping.  The tree enumeration cutoff is not a model
    parameter: :func:`~sinegordon.rule_engine.enumerate_trees` takes it.
    """

    beta_sq: Fraction
    beta_bar: Fraction

    @property
    def beta_prime(self) -> Fraction:
        return self.beta_sq / 4

    def __post_init__(self):
        object.__setattr__(self, "beta_sq", Fraction(self.beta_sq))
        object.__setattr__(self, "beta_bar", Fraction(self.beta_bar))
        if not self.beta_sq > 0:
            raise ValueError(f"beta^2/pi = {self.beta_sq} must be positive")
        if not self.beta_sq < 8:
            raise SupercriticalError(
                f"beta^2/pi = {self.beta_sq} is not below the critical 8")
        if not (self.beta_prime < self.beta_bar < 2):
            raise ValueError(
                f"beta_bar = {self.beta_bar} not in (beta', 2) = "
                f"({self.beta_prime}, 2)"
            )

    @staticmethod
    def make(beta_sq, beta_bar=None) -> "ModelParams":
        """Build params, defaulting beta_bar to beta' + (2 - beta')/8.

        The default hugs the coupling from above, so that only genuinely
        divergent trees enter the catalog.
        """
        beta_sq = Fraction(beta_sq)   # __post_init__ refuses it outside (0, 8)
        if beta_bar is None:
            beta_bar = beta_sq / 4 + (2 - beta_sq / 4) / 8
        return ModelParams(beta_sq, Fraction(beta_bar))

    @staticmethod
    def from_beta_bar(beta_bar) -> "ModelParams":
        """Params specified directly by beta_bar (beta^2 chosen compatibly)."""
        beta_bar = Fraction(beta_bar)
        # any beta' < beta_bar works for combinatorics; take beta' = beta_bar/2
        # when that is positive, i.e. beta_sq = 2*beta_bar.
        return ModelParams.make(2 * beta_bar, beta_bar=beta_bar)


class SupercriticalError(ValueError):
    """Raised for couplings at or beyond beta^2 = 8*pi."""


@dataclass(frozen=True, slots=True)
class DecoratedTree:
    """Immutable decorated rooted tree.

    ``children`` are kept sorted by canonical key, so structural equality
    coincides with equality of isomorphism classes.  The key and the node,
    noise, charge and decoration counts are set once, at construction, from
    the children's; they take no part in comparisons.
    """

    label: str
    deco: tuple[int, int, int]
    children: tuple["DecoratedTree", ...] = ()
    key: str = field(init=False, compare=False)
    n_nodes: int = field(init=False, compare=False)
    n_noises: int = field(init=False, compare=False)
    charge: int = field(init=False, compare=False)
    total_deco_weight: int = field(init=False, compare=False)
    _flip: DecoratedTree | None = field(default=None, init=False, compare=False)

    def __post_init__(self):
        if self.label not in LABELS:
            raise ValueError(f"bad label {self.label!r}")
        if len(self.deco) != 3 or any(k < 0 for k in self.deco):
            raise ValueError(f"bad decoration {self.deco!r}")
        deco = tuple(int(k) for k in self.deco)
        kids = tuple(sorted(self.children, key=lambda t: t.key))
        inner = "".join(c.key for c in kids)
        for name, value in (
            ("deco", deco),
            ("children", kids),
            ("key", f"({self.label};{deco[0]},{deco[1]},{deco[2]};{inner})"),
            ("n_nodes", 1 + sum(c.n_nodes for c in kids)),
            ("n_noises", (self.label != "0") + sum(c.n_noises for c in kids)),
            ("charge", CHARGE[self.label] + sum(c.charge for c in kids)),
            ("total_deco_weight",
             deco_weight(deco) + sum(c.total_deco_weight for c in kids)),
        ):
            object.__setattr__(self, name, value)

    @property
    def n_edges(self) -> int:
        return self.n_nodes - 1

    def iter_nodes(self):
        """Yield all subtrees (as node stand-ins), root first."""
        yield self
        for c in self.children:
            yield from c.iter_nodes()

    def __repr__(self) -> str:
        return f"DecoratedTree({self.key!r})"


# --- elementary trees -------------------------------------------------------

XI_PLUS = DecoratedTree("+", (0, 0, 0))
XI_MINUS = DecoratedTree("-", (0, 0, 0))


def noise(sign: str) -> DecoratedTree:
    return XI_PLUS if sign == "+" else XI_MINUS


def dipole(root_sign: str = "-") -> DecoratedTree:
    """Two-noise tree: a ``root_sign`` noise times the kernel of the other."""
    other = "+" if root_sign == "-" else "-"
    return tree_product(noise(root_sign), integrate(noise(other)))


# --- grammar operations -----------------------------------------------------

def integrate(tau: DecoratedTree) -> DecoratedTree:
    """Graft ``tau`` below a fresh undecorated 0-labeled root."""
    return DecoratedTree("0", (0, 0, 0), (tau,))


def tree_product(t1: DecoratedTree, t2: DecoratedTree) -> DecoratedTree:
    """Merge two trees at their roots.

    At most one of the two root labels may be a charge; the merged root
    carries that charge and the sum of the root decorations.
    """
    if t1.label != "0" and t2.label != "0":
        raise ValueError(
            f"cannot merge roots with labels {t1.label!r} and {t2.label!r}"
        )
    label = t1.label if t1.label != "0" else t2.label
    deco = tuple(a + b for a, b in zip(t1.deco, t2.deco))
    return DecoratedTree(label, deco, t1.children + t2.children)


# --- homogeneity and charge -------------------------------------------------

def s_homogeneity(tau: DecoratedTree) -> Homogeneity:
    """Parabolic homogeneity 2|K| - beta_bar*|L| + total decoration weight."""
    return Homogeneity(
        Fraction(2 * tau.n_edges + tau.total_deco_weight), Fraction(-tau.n_noises)
    )


def sg_homogeneity(tau: DecoratedTree) -> Homogeneity:
    """Charge-corrected homogeneity |tau|_s + beta_bar * charge^2."""
    h = s_homogeneity(tau)
    return Homogeneity(h.const, h.bcoeff + tau.charge**2)


# --- canonical form, symmetry, conjugation ----------------------------------

def canonical_key(tau: DecoratedTree) -> str:
    return tau.key


_NODE_RE = re.compile(r"\((\+|-|0);(\d+),(\d+),(\d+);")


def parse_key(key: str) -> DecoratedTree:
    """Inverse of :func:`canonical_key`."""
    pos = 0

    def parse_node() -> DecoratedTree:
        nonlocal pos
        m = _NODE_RE.match(key, pos)
        if not m:
            raise ValueError(f"bad tree key at position {pos}: {key!r}")
        pos = m.end()
        children = []
        while pos < len(key) and key[pos] == "(":
            children.append(parse_node())
        if pos >= len(key) or key[pos] != ")":
            raise ValueError(f"unbalanced tree key at position {pos}: {key!r}")
        pos += 1
        return DecoratedTree(
            m.group(1), (int(m.group(2)), int(m.group(3)), int(m.group(4))), tuple(children)
        )

    tree = parse_node()
    if pos != len(key):
        raise ValueError(f"trailing characters in tree key: {key!r}")
    return tree


def symmetry_factor(tau: DecoratedTree) -> int:
    """Order of the automorphism group of the decorated rooted tree."""
    result = 1
    groups: dict[str, int] = {}
    for c in tau.children:
        groups[c.key] = groups.get(c.key, 0) + 1
        result *= symmetry_factor(c)
    for mult in groups.values():
        result *= factorial(mult)
    return result


def opp(tau: DecoratedTree) -> DecoratedTree:
    """Flip every + label to - and vice versa; 0 labels are unchanged.

    A tree stores its flip on first use, built from its children's flips,
    so the flips of a catalog whose trees share their subtrees cost one node
    per tree.
    """
    if tau._flip is None:
        flip = DecoratedTree(FLIP[tau.label], tau.deco,
                             tuple(opp(c) for c in tau.children))
        object.__setattr__(tau, "_flip", flip)
    return tau._flip
