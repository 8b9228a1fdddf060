"""Dyadic scale assignments, safe-forest projections, interval preimages,
cut harvesting, and the forest/cut partition identity.

Generalized edges come in three kinds: base edges joining the base point to
each node, kernel edges, and noise-pair edges.  A scale assignment gives
every generalized edge a nonnegative integer scale.  For a forest member,
its internal scale is the finest (minimum) scale among its own kernel and
pair edges not owned by nested members; its external scale is the coarsest
(maximum) scale among the edges that tie it to its surroundings, restricted
to the interior of the enclosing forest member.  A member is safe when the
internal scale does not exceed the external one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

from .moment_diagrams import MomentDiagram, derived_edge_sets

BASE = "base"
KER = "ker"
PAIR = "pair"


def generalized_edges(d: MomentDiagram) -> list[tuple]:
    """Base edges, kernel edges, and noise-pair edges of the diagram."""
    out = [(BASE, u) for u in d.nodes]
    out += [(KER, e) for e in d.kernel_edges]
    out += [(PAIR, a, b) for a, b in d.pairs]
    return out


@dataclass
class ScaleAssignment:
    n: dict[tuple, int]

    @staticmethod
    def random_assignment(d: MomentDiagram, n_cap: int, rng: random.Random
                          ) -> "ScaleAssignment":
        return ScaleAssignment({ge: rng.randint(0, n_cap) for ge in generalized_edges(d)})

    @staticmethod
    def constant(d: MomentDiagram, value: int) -> "ScaleAssignment":
        return ScaleAssignment({ge: value for ge in generalized_edges(d)})


# --- internal / external generalized-edge sets -------------------------------


def internal_edges(d: MomentDiagram, S: frozenset[int]) -> set[tuple]:
    """Kernel and pair edges with both endpoints in S."""
    out = {(KER, e) for e in d.K(S)}
    LS = d.L(S)
    out |= {(PAIR, a, b) for a, b in d.pairs if a in LS and b in LS}
    return out


def internal_edges_forest(d: MomentDiagram, F) -> set[tuple]:
    out: set[tuple] = set()
    for S in F:
        out |= internal_edges(d, S)
    return out


def internal_edges_relative(d: MomentDiagram, F, S: frozenset[int]) -> set[tuple]:
    """Internal edges of S not owned by nested forest members."""
    b = derived_edge_sets(d, F, S)
    return {(KER, e) for e in b.K_F} | {(PAIR, a, b_) for a, b_ in b.pairs_F}


def external_edges(d: MomentDiagram, S: frozenset[int]) -> set[tuple]:
    """Edges tying S to its surroundings: base edges of its nodes, entering
    kernel edges, and pair edges with exactly one end in S."""
    out = {(BASE, u) for u in S}
    out |= {(KER, e) for e in d.K_down(S)}
    LS = d.L(S)
    out |= {(PAIR, a, b) for a, b in d.pairs if (a in LS) != (b in LS)}
    return out


def enclosing_member(F, S: frozenset[int]) -> frozenset[int] | None:
    """Minimal forest member strictly containing S, or None for the diagram."""
    above = [T for T in F if S < T]
    if not above:
        return None
    return min(above, key=len)


def external_edges_relative(d: MomentDiagram, F, S: frozenset[int]) -> set[tuple]:
    A = enclosing_member(F, S)
    ext = external_edges(d, S)
    if A is None:
        return ext
    return ext & internal_edges(d, A)


def int_ext_scales(d: MomentDiagram, F, S: frozenset[int], n: ScaleAssignment
                   ) -> tuple[int | None, int | None]:
    ints = [n.n[ge] for ge in internal_edges_relative(d, F, S)]
    exts = [n.n[ge] for ge in external_edges_relative(d, F, S)]
    return (min(ints) if ints else None, max(exts) if exts else None)


def safe_projection(d: MomentDiagram, F, n: ScaleAssignment) -> frozenset[frozenset[int]]:
    """Members whose internal scale does not exceed their external scale."""
    kept = []
    for S in F:
        i, e = int_ext_scales(d, F, S, n)
        if i is None:
            i = float("inf")
        if e is None:
            e = float("-inf")
        if i <= e:
            kept.append(S)
    return frozenset(kept)


# --- interval preimages -------------------------------------------------------


@dataclass(frozen=True)
class ForestInterval:
    lower: frozenset[frozenset[int]]
    upper: frozenset[frozenset[int]]

    def __contains__(self, F) -> bool:
        return self.lower <= frozenset(F) <= self.upper

    def members(self, universe) -> list[frozenset[frozenset[int]]]:
        return [F for F in universe if F in self]


def preimage_interval(d: MomentDiagram, target, n: ScaleAssignment,
                      forests=None) -> ForestInterval | None:
    """Preimage of ``target`` under the safe projection over all forests.

    Returns the interval [lower, upper], or None when empty.  Raises if the
    preimage is not an interval.
    """
    if forests is None:
        forests = d.enumerate_forests()
    target = frozenset(target)
    pre = [frozenset(F) for F in forests if safe_projection(d, F, n) == target]
    if not pre:
        return None
    lower = frozenset.intersection(*pre)
    upper = frozenset.union(*pre)
    interval = ForestInterval(lower, upper)
    expected = {F for F in map(frozenset, forests) if F in interval}
    if expected != set(pre):
        raise AssertionError(
            f"safe-projection preimage of {sorted(map(sorted, target))} is not an interval"
        )
    return interval


# --- cut harvesting ------------------------------------------------------------


def bottleneck_scales(d: MomentDiagram, F, n: ScaleAssignment) -> dict:
    """Widest-path (max-bottleneck) scale between all vertex pairs.

    Edges internal to the forest are treated as infinitely fine links, so
    contracting a member can only raise connectivity.
    """
    INF = float("inf")
    verts = [0] + d.nodes
    idx = {v: i for i, v in enumerate(verts)}
    m = len(verts)
    W = [[-1] * m for _ in range(m)]
    for i in range(m):
        W[i][i] = INF
    internal = internal_edges_forest(d, F)

    def connect(u, v, w):
        i, j = idx[u], idx[v]
        if w > W[i][j]:
            W[i][j] = w
            W[j][i] = w

    for ge, val in n.n.items():
        w = INF if ge in internal else val
        if ge[0] == BASE:
            connect(0, ge[1], w)
        elif ge[0] == KER:
            connect(ge[1], d.parent[ge[1]], w)
        else:
            connect(ge[1], ge[2], w)
    for k in range(m):
        Wk = W[k]
        for i in range(m):
            wik = W[i][k]
            if wik == -1:
                continue
            Wi = W[i]
            for j in range(m):
                cand = wik if wik < Wk[j] else Wk[j]
                if cand > Wi[j]:
                    Wi[j] = cand
    return {(u, v): W[idx[u]][idx[v]] for u in verts for v in verts}


def harvest_cuts(d: MomentDiagram, F, n: ScaleAssignment) -> frozenset[int]:
    """Cut sites where the base point is coarser-connected to the edge's
    parent than the edge's own bottleneck connection."""
    B = bottleneck_scales(d, F, n)
    out = []
    for e in d.cut_sites():
        ep = d.parent[e]
        if B[(0, ep)] > B[(ep, e)]:
            out.append(e)
    return frozenset(out)


# --- the partition identity -----------------------------------------------------


@dataclass
class PartitionReport:
    ok: bool
    n_pairs: int
    n_cells: int
    interval_checks: int
    compatibility_checks: int
    failures: list[dict] = field(default_factory=list)


def _forests_avoiding(forests, cut: frozenset[int], d: MomentDiagram):
    out = []
    for F in forests:
        K_F = frozenset().union(*[d.K(T) for T in F]) if F else frozenset()
        if not (K_F & cut):
            out.append(frozenset(F))
    return out


def organize_and_check(d: MomentDiagram, n: ScaleAssignment) -> PartitionReport:
    """Verify that the (interval-of-forests, interval-of-cuts) cells exactly
    partition all (forest, cut) pairs, and that harvested cuts are
    compatible with cell membership."""
    forests = [frozenset(F) for F in d.enumerate_forests()]
    sites = frozenset(d.cut_sites())
    all_pairs = set()
    for F in forests:
        K_F = frozenset().union(*[d.K(T) for T in F]) if F else frozenset()
        for r in range(len(sites - K_F) + 1):
            for cut in combinations(sorted(sites - K_F), r):
                all_pairs.add((F, frozenset(cut)))

    failures: list[dict] = []
    interval_checks = 0
    compat_checks = 0

    # collect all cells (M, G)
    cells = []  # (frozenset-of-forests M, lower, upper, frozenset-of-cuts G)
    seen_M: dict[frozenset, tuple] = {}
    for cut in [frozenset(c) for r in range(len(sites) + 1)
                for c in combinations(sorted(sites), r)]:
        avail = _forests_avoiding(forests, cut, d)
        images = {safe_projection(d, F, n) for F in avail}
        for img in images:
            try:
                interval = preimage_interval(d, img, n, avail)
            except AssertionError as exc:
                failures.append({"kind": "interval", "cut": sorted(cut), "err": str(exc)})
                continue
            interval_checks += 1
            if interval is None:
                continue
            M = frozenset(F for F in avail if F in interval)
            if frozenset(img) != interval.lower:
                failures.append({
                    "kind": "min", "cut": sorted(cut),
                    "detail": "projection image is not the interval minimum",
                })
            key = M
            if key not in seen_M:
                seen_M[key] = (interval.lower, interval.upper)
    # admissible cut collections per cell
    coverage: dict[tuple, int] = {pair: 0 for pair in all_pairs}
    n_cells = 0
    for M, (lower, upper) in seen_M.items():
        K_b = frozenset().union(*[d.K(T) for T in upper]) if upper else frozenset()
        harv = harvest_cuts(d, upper, n) - K_b
        cut_universe = sorted(sites - K_b)
        admissible = set()
        for r in range(len(cut_universe) + 1):
            for cut in combinations(cut_universe, r):
                cut = frozenset(cut)
                avail = _forests_avoiding(forests, cut, d)
                pre = frozenset(F for F in avail if safe_projection(d, F, n) == lower)
                if pre == M:
                    admissible.add(cut)
        # compatibility: harvested non-forest edges toggle freely
        for cut in admissible | {c ^ frozenset([e]) for c in admissible for e in harv}:
            for e in harv:
                lo, hi = cut - {e}, cut | {e}
                compat_checks += 1
                if (lo in admissible) != (hi in admissible):
                    failures.append({
                        "kind": "compatibility", "edge": e, "cut": sorted(cut),
                    })
        # the harvested intervals must tile the admissible collections
        base_universe = sorted(sites - K_b - harv)
        for r in range(len(base_universe) + 1):
            for seed in combinations(base_universe, r):
                seed = frozenset(seed)
                block = [seed | frozenset(x)
                         for k in range(len(harv) + 1)
                         for x in combinations(sorted(harv), k)]
                inside = [c in admissible for c in block]
                if any(inside) and not all(inside):
                    failures.append({
                        "kind": "block", "seed": sorted(seed),
                        "detail": "harvest interval straddles the admissible set",
                    })
                    continue
                if all(inside):
                    n_cells += 1
                    for cut in block:
                        for F in M:
                            coverage[(F, cut)] += 1

    for pair, cnt in coverage.items():
        if cnt != 1:
            F, cut = pair
            failures.append({
                "kind": "coverage",
                "forest": sorted(sorted(T) for T in F),
                "cut": sorted(cut),
                "count": cnt,
            })
    return PartitionReport(not failures, len(all_pairs), n_cells,
                           interval_checks, compat_checks, failures)


def scale_floor_ok(d: MomentDiagram, n: ScaleAssignment, lam_floor: int) -> bool:
    """Base edges at the copy roots must sit at or above the test-function
    scale floor."""
    return all(n.n[(BASE, rho)] >= lam_floor for rho in d.roots)
