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

Checking one uncut term per forest is exact.  A term's cut only turns the
kernel factors of its cut edges from ``ker`` into ``rker``; the interaction
factors, their levels and signs come from the forest's edge sets alone.
So every cut of a forest counts each noise pair as its uncut term does, and
the CLI audit checks the uncut terms and counts the others.

A diagram is frozen, and nothing it determines depends on a scale
assignment.  So its divergent subtrees, forests, gamma exponents, cut
sites and each forest's free sites, and the edge sets of every (forest,
member) are computed on first use and kept in the diagram's memo.  One
edge-set model serves the members of a forest and the whole diagram
alike: the diagram is treated as the region that holds every node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import wraps
from itertools import combinations
from math import ceil

from .tree_core import CHARGE, DecoratedTree, ModelParams, deco_weight, opp

BASE_POINT = 0


def _memoized(method):
    """Keep each result of a diagram method, or of a function of a diagram,
    in the diagram's memo, keyed on the name and the arguments.  Collection
    arguments (a forest, a member) are frozen into sets, in the key and in
    the call, so every form of one set shares an entry; the result must not
    depend on their order.  Only this function reads or writes the memo."""
    @wraps(method)
    def cached(self, *args):
        try:
            return self._memo[(method.__name__, *args)]
        except (KeyError, TypeError):  # not built yet, or not frozen yet
            pass
        args = [frozenset(a) if isinstance(a, (set, tuple, list)) else a
                for a in args]
        key = (method.__name__, *args)
        if key not in self._memo:
            self._memo[key] = method(self, *args)
        return self._memo[key]
    return cached


@dataclass(frozen=True)
class MomentDiagram:
    """Disjoint labeled copies of a tree plus the base point 0."""

    params: ModelParams
    tau: DecoratedTree
    n_copies: int
    parent: dict[int, int | None]
    label: dict[int, str]
    deco: dict[int, tuple[int, int, int]]
    roots: list[int]
    children: dict[int, list[int]] = field(init=False)
    # basic node/edge sets, built once; kernel edges are named by their child
    nodes: list[int] = field(init=False, repr=False, compare=False)
    noises: list[int] = field(init=False, repr=False, compare=False)
    kernel_edges: list[int] = field(init=False, repr=False, compare=False)
    pairs: list[tuple[int, int]] = field(init=False, repr=False, compare=False)
    # scale-free data computed on first use (see the module docstring)
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        init = object.__setattr__  # the dataclass is frozen
        init(self, "children", {u: [] for u in self.parent})
        for u, par in self.parent.items():
            if par is not None:
                self.children[par].append(u)
        init(self, "nodes", sorted(self.parent))
        init(self, "noises", [u for u in self.nodes if self.label[u] != "0"])
        init(self, "kernel_edges",
             [u for u in self.nodes if self.parent[u] is not None])
        init(self, "pairs", list(combinations(self.noises, 2)))

    def charge(self, node_set) -> int:
        return sum(CHARGE[self.label[u]] for u in node_set)

    def pair_sign(self, pair: tuple[int, int]) -> int:
        a, b = pair
        return CHARGE[self.label[a]] * CHARGE[self.label[b]]

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

    @_memoized
    def divergent_subtrees(self) -> tuple[frozenset[int], ...]:
        """All neutral connected subtrees with negative bare homogeneity."""
        out = []
        for root in self.nodes:
            for S in self._connected_sets_at(root):
                if self.charge(S) == 0 and self.bare_s_hom(S) < 0:
                    out.append(S)
        return tuple(sorted(out, key=lambda S: (len(S), sorted(S))))

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

    @_memoized
    def enumerate_forests(self) -> tuple[frozenset[frozenset[int]], ...]:
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
        return tuple(sorted(forests, key=lambda F: (len(F), sorted(map(sorted, F)))))

    # --- positive renormalization data ------------------------------------

    @_memoized
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

    @_memoized
    def cut_sites(self) -> tuple[int, ...]:
        return tuple(e for e in self.kernel_edges if self.gamma(e) > 0)

    @_memoized
    def free_sites(self, F) -> frozenset[int]:
        """The cut sites outside every member of ``F``: those a term of the
        forest ``F`` may cut."""
        return frozenset(self.cut_sites()).difference(*map(self.K, F))


def _add_copy(diagram_state, tau: DecoratedTree):
    parent, label, deco = diagram_state

    def rec(t: DecoratedTree, par: int | None) -> int:
        nid = len(parent) + 1
        parent[nid] = par
        label[nid] = t.label
        deco[nid] = t.deco
        for c in t.children:
            rec(c, nid)
        return nid

    return rec(tau, None)


def build_diagram(tau: DecoratedTree, p: int, params: ModelParams) -> MomentDiagram:
    """2p disjoint copies (p of ``tau``, p charge-flipped) plus base point."""
    if p < 1:
        raise ValueError("p must be positive")
    parent: dict[int, int | None] = {}
    state = (parent, {}, {})
    roots = [_add_copy(state, t) for t in [tau] * p + [opp(tau)] * p]
    d = MomentDiagram(params, tau, 2 * p, *state, roots=roots)
    if d.charge(d.noises) != 0:
        raise AssertionError("copy construction must be globally neutral")
    return d


def single_copy_diagram(tau: DecoratedTree, params: ModelParams) -> MomentDiagram:
    """One labeled copy of ``tau`` plus base point (model-evaluation view)."""
    parent: dict[int, int | None] = {}
    state = (parent, {}, {})
    root = _add_copy(state, tau)
    return MomentDiagram(params, tau, 1, *state, roots=[root])


# --- derived edge sets -------------------------------------------------------


@dataclass(frozen=True)
class EdgeSetBundle:
    """Forest-relative node and edge sets of a region X, a forest member or
    the whole diagram.  C holds the maximal members inside X other than X
    itself, and the sets below are X's own, less those of C."""

    C: frozenset[frozenset[int]]
    N_F: frozenset[int]               # X's nodes, C's members cut to roots
    L_F: frozenset[int]               # noises outside C
    K_F: frozenset[int]               # kernel edges of X not within C
    K_ring: frozenset[int]            # kernel edges not shadowed by C
    K_partial: frozenset[int]         # kernel edges of X entering C
    K_down: frozenset[int]            # kernel edges entering X
    pairs_F: tuple[tuple[int, int], ...]        # noise pairs outside C
    pairs_partial: tuple[tuple[int, int], ...]  # pairs of X straddling C


@_memoized
def derived_edge_sets(d: MomentDiagram, F, S=None) -> EdgeSetBundle:
    """Edge sets of the member ``S`` of the forest ``F``, or of the whole
    diagram when ``S`` is None.  One set of formulas serves both; built
    once per (diagram, F, S)."""
    X = frozenset(d.nodes) if S is None else S
    C = frozenset(_maximal([T for T in F if T <= X and T != S]))

    def union(sets):
        return frozenset().union(*map(sets, C))

    K_X, K_down_C = d.K(X), union(d.K_down)
    K_F, L_F = K_X - union(d.K), d.L(X) - union(d.L)
    # the member of C holding each noise of X, None outside C
    owner = {u: T for T in C for u in d.L(T)} | dict.fromkeys(L_F)
    return EdgeSetBundle(
        C, X - union(d.N_tilde), L_F, K_F, K_F - K_down_C, K_X & K_down_C,
        d.K_down(X),
        tuple((a, b) for a, b in d.pairs if a in L_F and b in L_F),
        tuple((a, b) for a, b in d.pairs
              if a in owner and b in owner and owner[a] != owner[b]))


def _maximal(trees) -> list[frozenset[int]]:
    return [T for T in trees if not any(T < U for U in trees)]


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

    The inventory mirrors the nested structure of the moment formula.  The
    whole diagram is level 0 and each forest member the level of its nesting
    depth.  A level carries its own interactions and unshadowed kernels
    (recentered on cut edges, which lie outside every member), and hands the
    straddling interactions and entering kernels one level down.  Level 0
    also carries the test functions and the polynomial factors, and each
    member a collapse-operator site.
    """
    return [_term(d, G, frozenset(cut)) for G, free in _free_sites(d)
            for r in range(len(free) + 1) for cut in combinations(free, r)]


def _free_sites(d: MomentDiagram) -> list[tuple[frozenset, list[int]]]:
    """Each forest with its free cut sites, in order."""
    return [(G, sorted(d.free_sites(G))) for G in d.enumerate_forests()]


def uncut_terms(d: MomentDiagram) -> tuple[list[MomentTerm], int]:
    """The uncut term of each forest, and the number of terms of
    :func:`moment_terms`: every cut of a forest has the same interactions."""
    forests = _free_sites(d)
    return ([_term(d, G, frozenset()) for G, _ in forests],
            sum(2 ** len(free) for _, free in forests))


def _term(d: MomentDiagram, G, cut: frozenset[int]) -> MomentTerm:
    """The term of the forest ``G`` and the cut ``cut``; ``level`` visits
    the whole diagram (T None) and then each member T, nested."""
    inv: list[Factor] = []
    y_sites: list[dict] = []

    def poly(nodes, depth):
        for u in sorted(nodes):
            if deco_weight(d.deco[u]) > 0:
                inv.append(Factor("poly", u, depth))

    def level(b: EdgeSetBundle, depth: int, T=None):
        for pair in b.pairs_F:
            inv.append(Factor("interaction", pair, depth, d.pair_sign(pair)))
        for e in sorted(b.K_ring):
            inv.append(Factor("rker" if e in cut else "ker", e, depth))
        if T is None:
            inv.extend(Factor("test", rho, 0) for rho in d.roots)
            poly(b.N_F, 0)
        else:
            hom = d.bare_s_hom(T)
            orders = [0] + ([1] if -2 < hom < -1 else [])
            y_sites.append({"subtree": sorted(T), "orders": orders, "level": depth})
        for pair in b.pairs_partial:
            inv.append(Factor("interaction", pair, depth + 1, d.pair_sign(pair)))
        for e in sorted(b.K_partial):
            inv.append(Factor("rker" if e in cut else "ker", e, depth + 1))
        if T is None:  # the nodes contracted into members
            poly(frozenset(d.nodes) - b.N_F, 1)
        for T2 in G:  # in G's order, since b.C is a set
            if T2 in b.C:
                level(derived_edge_sets(d, G, T2), depth + 1, T2)

    level(derived_edge_sets(d, G), 0)
    return MomentTerm(G, cut, inv, y_sites)


@dataclass
class MultilinearityReport:
    ok: bool
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
    return MultilinearityReport(not failures, len(all_pairs), failures)
