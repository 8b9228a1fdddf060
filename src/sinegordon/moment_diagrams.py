"""Multi-copy diagrams, divergent subtrees, forests, cuts, and the
symbolic moment-term inventory.

A diagram consists of several disjoint labeled copies of a tree (half of
them charge-flipped) together with a distinguished base point 0.  Subtrees
are concrete node-id sets.  The moment-term generator produces, for every
(forest, cut) pair, the complete inventory of kernel, recentered-kernel,
interaction, polynomial and test-function factors together with the
nesting level of the recursion that owns each factor; the multilinearity
audit checks that every noise pair contributes exactly one interaction
factor per term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import ceil

from .tree_core import DecoratedTree, ModelParams, deco_weight, opp

BASE_POINT = 0


@dataclass
class MomentDiagram:
    """Disjoint labeled copies of a tree plus the base point 0."""

    params: ModelParams
    tau: DecoratedTree
    n_copies: int
    parent: dict[int, int | None]
    label: dict[int, str]
    deco: dict[int, tuple[int, int, int]]
    copy_of: dict[int, int]
    roots: list[int]
    children: dict[int, list[int]] = field(init=False)
    # basic node/edge sets, built once; kernel edges are named by their child
    nodes: list[int] = field(init=False, repr=False, compare=False)
    noises: list[int] = field(init=False, repr=False, compare=False)
    kernel_edges: list[int] = field(init=False, repr=False, compare=False)
    pairs: list[tuple[int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.children = {u: [] for u in self.parent}
        for u, par in self.parent.items():
            if par is not None:
                self.children[par].append(u)
        self.nodes = sorted(self.parent)
        self.noises = [u for u in self.nodes if self.label[u] != "0"]
        self.kernel_edges = [u for u in self.nodes if self.parent[u] is not None]
        self.pairs = list(combinations(self.noises, 2))

    def charge(self, node_set) -> int:
        return sum({"+": 1, "0": 0, "-": -1}[self.label[u]] for u in node_set)

    def pair_sign(self, pair: tuple[int, int]) -> int:
        a, b = pair
        qa = {"+": 1, "-": -1}[self.label[a]]
        qb = {"+": 1, "-": -1}[self.label[b]]
        return qa * qb

    def descendants(self, u: int) -> frozenset[int]:
        out = [u]
        stack = [u]
        while stack:
            v = stack.pop()
            for w in self.children[v]:
                out.append(w)
                stack.append(w)
        return frozenset(out)

    # --- subtree helpers -------------------------------------------------

    def subtree_root(self, S: frozenset[int]) -> int:
        roots = [u for u in S if self.parent[u] not in S]
        if len(roots) != 1:
            raise ValueError("node set is not a connected subtree")
        return roots[0]

    def K(self, S: frozenset[int]) -> frozenset[int]:
        """Kernel edges with both endpoints in S (edge = child id)."""
        return frozenset(u for u in S if self.parent[u] is not None and self.parent[u] in S)

    def K_down(self, S: frozenset[int]) -> frozenset[int]:
        """Edges entering S from outside: child outside, parent inside."""
        return frozenset(
            u for u in self.kernel_edges if u not in S and self.parent[u] in S
        )

    def K_bar_down(self, S: frozenset[int]) -> frozenset[int]:
        return self.K(S) | self.K_down(S)

    def L(self, S) -> frozenset[int]:
        return frozenset(u for u in S if self.label[u] != "0")

    def N_tilde(self, S: frozenset[int]) -> frozenset[int]:
        return S - {self.subtree_root(S)}

    def bare_s_hom(self, S) -> Fraction:
        """Homogeneity of S with decorations zeroed: 2|K(S)| - bb*|L(S)|."""
        return 2 * len(self.K(S)) - self.params.beta_bar * len(self.L(S))

    def bare_sg_hom(self, S) -> Fraction:
        q = self.charge(S)
        return self.bare_s_hom(S) + self.params.beta_bar * q * q

    # --- divergences ------------------------------------------------------

    def divergent_subtrees(self) -> list[frozenset[int]]:
        """All neutral connected subtrees with negative bare homogeneity."""
        out = []
        for root in self.nodes:
            for S in self._connected_sets_at(root):
                if self.charge(S) == 0 and self.bare_s_hom(S) < 0:
                    out.append(S)
        return sorted(out, key=lambda S: (len(S), sorted(S)))

    def _connected_sets_at(self, root: int):
        """Connected subtree node sets whose subtree root is ``root``."""
        kids = self.children[root]

        def expand(i: int, acc: frozenset[int]):
            if i == len(kids):
                yield acc
                return
            for rest in expand(i + 1, acc):
                yield rest
            for sub in self._connected_sets_at(kids[i]):
                for rest in expand(i + 1, acc | sub):
                    yield rest

        yield from expand(0, frozenset([root]))

    def enumerate_forests(self) -> list[frozenset[frozenset[int]]]:
        """All subsets of the divergent subtrees that are pairwise nested
        or disjoint."""
        div = self.divergent_subtrees()
        forests: list[frozenset[frozenset[int]]] = []

        def ok(S, chosen):
            for T in chosen:
                if not (S <= T or T <= S or not (S & T)):
                    return False
            return True

        def rec(i, chosen):
            if i == len(div):
                forests.append(frozenset(chosen))
                return
            rec(i + 1, chosen)
            if ok(div[i], chosen):
                chosen.append(div[i])
                rec(i + 1, chosen)
                chosen.pop()

        rec(0, [])
        return sorted(forests, key=lambda F: (len(F), sorted(map(sorted, F))))

    # --- positive renormalization data ------------------------------------

    def gamma(self, e: int) -> int:
        """Order bookkeeping exponent of the kernel edge ``e``.

        Ceiling of twice the number of kernel edges weakly above ``e``
        plus the sum over nodes weakly above the edge's child of
        (decoration weight - beta_bar).
        """
        desc = self.descendants(e)
        total = Fraction(2 * len(desc))
        for u in desc:
            total += deco_weight(self.deco[u]) - self.params.beta_bar
        return ceil(total)

    def cut_sites(self) -> list[int]:
        return [e for e in self.kernel_edges if self.gamma(e) > 0]


def _add_copy(diagram_state, tau: DecoratedTree, copy_idx: int):
    parent, label, deco, copy_of = diagram_state

    def rec(t: DecoratedTree, par: int | None) -> int:
        nid = len(parent) + 1
        parent[nid] = par
        label[nid] = t.label
        deco[nid] = t.deco
        copy_of[nid] = copy_idx
        for c in t.children:
            rec(c, nid)
        return nid

    return rec(tau, None)


def build_diagram(tau: DecoratedTree, p: int, params: ModelParams) -> MomentDiagram:
    """2p disjoint copies (p of ``tau``, p charge-flipped) plus base point."""
    if p < 1:
        raise ValueError("p must be positive")
    parent: dict[int, int | None] = {}
    state = (parent, {}, {}, {})
    roots = []
    for j in range(p):
        roots.append(_add_copy(state, tau, j + 1))
    flipped = opp(tau)
    for j in range(p):
        roots.append(_add_copy(state, flipped, p + j + 1))
    d = MomentDiagram(params, tau, 2 * p, *state, roots=roots)
    if d.charge(d.noises) != 0:
        raise AssertionError("copy construction must be globally neutral")
    return d


def single_copy_diagram(tau: DecoratedTree, params: ModelParams) -> MomentDiagram:
    """One labeled copy of ``tau`` plus base point (model-evaluation view)."""
    parent: dict[int, int | None] = {}
    state = (parent, {}, {}, {})
    root = _add_copy(state, tau, 1)
    return MomentDiagram(params, tau, 1, *state, roots=[root])


# --- derived edge sets -------------------------------------------------------


@dataclass
class EdgeSetBundle:
    """All forest-relative node/edge sets for a subtree or the diagram."""

    S: frozenset[int] | None          # None means the whole diagram
    C: list[frozenset[int]]           # relevant maximal forest members
    N_tilde_F: frozenset[int]
    N_F: frozenset[int]
    L_F: frozenset[int]
    K_F: frozenset[int]
    K_ring: frozenset[int]            # kernel edges not shadowed by children
    K_partial: frozenset[int]         # kernel edges entering children
    K_down: frozenset[int]
    pairs_F: list[tuple[int, int]]    # noise pairs fully outside children
    pairs_partial: list[tuple[int, int]]  # straddling pairs


def derived_edge_sets(d: MomentDiagram, F, S=None) -> EdgeSetBundle:
    F = list(F)
    if S is None:
        node_set = frozenset(d.nodes)
        C = _maximal(F)
        ntf = node_set - frozenset().union(*[d.N_tilde(T) for T in F]) if F else node_set
        n_f = ntf
        l_removed = frozenset().union(*[d.L(T) for T in F]) if F else frozenset()
        l_f = d.L(node_set) - l_removed
        kbar = frozenset().union(*[d.K_bar_down(T) for T in C]) if C else frozenset()
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
        return EdgeSetBundle(None, C, ntf, n_f, l_f, k_f, k_ring, k_partial,
                             k_down, pairs_f, pairs_partial)

    C = _maximal([T for T in F if T < S])
    rho = d.subtree_root(S)
    ntf = d.N_tilde(S) - (frozenset().union(*[d.N_tilde(T) for T in C]) if C else frozenset())
    n_f = ntf | {rho}
    l_f = d.L(S) - (frozenset().union(*[d.L(T) for T in C]) if C else frozenset())
    k_s = d.K(S)
    k_f = k_s - (frozenset().union(*[d.K(T) for T in C]) if C else frozenset())
    kbar = frozenset().union(*[d.K_bar_down(T) for T in C]) if C else frozenset()
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
    return EdgeSetBundle(S, C, ntf, n_f, l_f, k_f, k_ring, k_partial,
                         d.K_down(S), pairs_f, pairs_partial)


def _maximal(trees) -> list[frozenset[int]]:
    return [T for T in trees if not any(T < U for U in trees)]


def _member_of(node: int, trees):
    for T in trees:
        if node in T:
            return T
    return None


# --- moment terms ------------------------------------------------------------


@dataclass(frozen=True)
class Factor:
    kind: str                     # ker | rker | interaction | poly | test
    edge: tuple | int             # edge id, pair tuple, or node id
    level: int
    sign: int | None = None

    def as_dict(self) -> dict:
        out = {"kind": self.kind, "level": self.level}
        if isinstance(self.edge, tuple):
            out["edge"] = list(self.edge)
        else:
            out["edge"] = self.edge
        if self.sign is not None:
            out["sign"] = self.sign
        return out


@dataclass
class MomentTerm:
    forest: frozenset[frozenset[int]]
    cut: frozenset[int]
    inventory: list[Factor]
    y_sites: list[dict]

    def as_dict(self) -> dict:
        return {
            "forest": sorted(sorted(T) for T in self.forest),
            "cut": sorted(self.cut),
            "inventory": [f.as_dict() for f in self.inventory],
            "y_sites": self.y_sites,
        }


def moment_terms(d: MomentDiagram) -> list[MomentTerm]:
    """One symbolic term per (forest, cut) pair.

    The inventory mirrors the nested structure of the moment formula: the
    outermost level carries the interactions, kernels (recentered on cut
    edges), test functions and polynomial factors attached to uncontracted
    structure; each forest member contributes, at its nesting depth, its own
    interactions and unshadowed kernels plus a collapse-operator site, and
    hands the straddling interactions and entering kernels one level down.
    """
    forests = d.enumerate_forests()
    sites = set(d.cut_sites())
    bb = d.params.beta_bar
    terms: list[MomentTerm] = []
    for G in forests:
        forest_edges = frozenset().union(*[d.K(T) for T in G]) if G else frozenset()
        free_sites = sorted(sites - forest_edges)
        for r in range(len(free_sites) + 1):
            for cut in combinations(free_sites, r):
                cut = frozenset(cut)
                inv: list[Factor] = []
                y_sites: list[dict] = []
                top = derived_edge_sets(d, G, None)
                for pair in top.pairs_F:
                    inv.append(Factor("interaction", pair, 0, d.pair_sign(pair)))
                for e in sorted(top.K_F):
                    inv.append(Factor("rker" if e in cut else "ker", e, 0))
                for rho in d.roots:
                    inv.append(Factor("test", rho, 0))
                for u in sorted(top.N_F):
                    if deco_weight(d.deco[u]) > 0:
                        inv.append(Factor("poly", u, 0))
                # argument handed to the outermost collapse recursion
                for pair in top.pairs_partial:
                    inv.append(Factor("interaction", pair, 1, d.pair_sign(pair)))
                for e in sorted(top.K_down):
                    inv.append(Factor("rker" if e in cut else "ker", e, 1))
                maxG = top.C
                for u in sorted(frozenset().union(*[d.N_tilde(T) for T in maxG])
                                if maxG else frozenset()):
                    if deco_weight(d.deco[u]) > 0:
                        inv.append(Factor("poly", u, 1))

                def recurse(T: frozenset[int], depth: int):
                    b = derived_edge_sets(d, G, T)
                    for pair in b.pairs_F:
                        inv.append(Factor("interaction", pair, depth, d.pair_sign(pair)))
                    for e in sorted(b.K_ring):
                        inv.append(Factor("ker", e, depth))
                    hom = d.bare_s_hom(T)
                    orders = [0] + ([1] if -2 < hom < -1 else [])
                    y_sites.append({"subtree": sorted(T), "orders": orders, "level": depth})
                    for pair in b.pairs_partial:
                        inv.append(Factor("interaction", pair, depth + 1, d.pair_sign(pair)))
                    for e in sorted(b.K_partial):
                        inv.append(Factor("ker", e, depth + 1))
                    for T2 in b.C:
                        recurse(T2, depth + 1)

                for T in maxG:
                    recurse(T, 1)
                terms.append(MomentTerm(G, cut, inv, y_sites))
    return terms


@dataclass
class MultilinearityReport:
    ok: bool
    n_terms: int
    n_pairs: int
    failures: list[dict]


def multilinearity_audit(d: MomentDiagram, terms: list[MomentTerm]) -> MultilinearityReport:
    """Every noise pair must contribute exactly one interaction per term."""
    failures = []
    all_pairs = d.pairs
    for idx, term in enumerate(terms):
        counts = {pair: 0 for pair in all_pairs}
        for f in term.inventory:
            if f.kind == "interaction":
                counts[tuple(f.edge)] += 1
        for pair, cnt in counts.items():
            if cnt != 1:
                failures.append({
                    "term": idx,
                    "forest": sorted(sorted(T) for T in term.forest),
                    "cut": sorted(term.cut),
                    "pair": list(pair),
                    "count": cnt,
                })
    return MultilinearityReport(not failures, len(terms), len(all_pairs), failures)
