"""Dyadic scale assignments, safe-forest projections, interval preimages,
cut harvesting, and the forest/cut partition identity.

Generalized edges come in three kinds: base edges joining the base point to
each node, kernel edges, and noise-pair edges.  A scale assignment gives
every generalized edge a nonnegative integer scale.  For a forest member,
its internal scale is the finest (minimum) scale among its own kernel and
pair edges not owned by nested members; its external scale is the coarsest
(maximum) scale among the edges that tie it to its surroundings, restricted
to the interior of the enclosing forest member.  A member is safe when the
internal scale does not exceed the external one.  Which edges are internal
or external depends only on the diagram and the forest, so each forest's
edge table is built once, from the one edge-set model of
``derived_edge_sets``, and kept in the diagram's memo.  Its rows hold edge
indices, positions in the diagram's one memoized edge order; a projection
is then a min/max over a list of scales.

The partition identity splits the (forest, cut) pairs into cells.  A cut
collection is available to the forests that leave all its sites free
(``MomentDiagram.free_sites``); those forests group by their safe
projection, and each group is a forest interval M whose minimum is the
projection.  The cut belongs to M's admissible collections, which the
harvested cuts of M's maximum then tile into intervals of cuts.

Everything the audit reads that does not depend on the scale assignment is
built on first use and kept in the diagram's memo.  Per diagram, that is
the edge order, the partition frame (the forests, the set of all (forest,
cut) pairs, and each cut collection with the forests it is available to)
and the subsets of each set of cut sites the tiling reads.  Per forest, it
is the edge table above, its free sites, and the harvest's table: the
contraction, which labels the base point and each node by the member that
contains it, the edges between labels by index, and the vertex pairs each
cut site is decided on.

An assignment is immutable.  For the one diagram it was last used with, it
keeps its scales as a vector in the edge order, read once from its mapping,
and the safe projection of each forest it was asked about.  A trial pays
for reading that vector, one projection per forest, the grouping and
interval checks, one harvest per cell (a sort of the edges between labels
by scale and the merging until every decisive pair is joined) and the
tiling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from types import MappingProxyType
from typing import Mapping

from .moment_diagrams import MomentDiagram, _memoized, derived_edge_sets

BASE = "base"
KER = "ker"
PAIR = "pair"
INF = float("inf")


def generalized_edges(d: MomentDiagram) -> list[tuple]:
    """Base edges, kernel edges, and noise-pair edges of the diagram."""
    out = [(BASE, u) for u in d.nodes]
    out += [(KER, e) for e in d.kernel_edges]
    out += [(PAIR, a, b) for a, b in d.pairs]
    return out


@_memoized
def _edge_index(d: MomentDiagram) -> dict[tuple, int]:
    """Each generalized edge's position in ``generalized_edges`` order."""
    return {ge: i for i, ge in enumerate(generalized_edges(d))}


@dataclass(frozen=True)
class ScaleAssignment:
    """A scale per generalized edge, read-only.  It keeps, for the one
    diagram it was last used with, its scales as a vector in
    ``_edge_index`` order and each forest's safe projection."""

    n: Mapping[tuple, int]
    _last: list = field(default_factory=list, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", MappingProxyType(dict(self.n)))

    @staticmethod
    def random_assignment(d: MomentDiagram, n_cap: int, rng: random.Random
                          ) -> "ScaleAssignment":
        return ScaleAssignment({ge: rng.randint(0, n_cap) for ge in generalized_edges(d)})

    @staticmethod
    def constant(d: MomentDiagram, value: int) -> "ScaleAssignment":
        return ScaleAssignment({ge: value for ge in generalized_edges(d)})

    def _on(self, d: MomentDiagram) -> tuple[list[int], dict]:
        """The scale vector of ``d`` and the projection memo, both rebuilt
        when ``d`` is not the diagram this assignment was last used with."""
        last = self._last
        if not last or last[0] is not d:
            last[:] = d, list(map(self.n.__getitem__, _edge_index(d))), {}
        return last[1], last[2]


# --- the scale-free edge table of a forest ------------------------------------


@_memoized
def _forest_edges(d: MomentDiagram, F) -> list[tuple]:
    """(S, internal, external) per member S of ``F``, as edge indices: the
    external edges are the base edges of S's nodes, the kernel edges
    entering S and the pair edges with one end in S, within the smallest
    enclosing member."""

    def interior(S):
        LS = d.L(S)
        return ({(KER, e) for e in d.K(S)}
                | {(PAIR, a, b) for a, b in d.pairs if a in LS and b in LS})

    index = _edge_index(d)
    rows = []
    for S in F:
        own = derived_edge_sets(d, F, S)
        LS = d.L(S)
        external = ({(BASE, u) for u in S} | {(KER, e) for e in own.K_down}
                    | {(PAIR, a, b) for a, b in d.pairs if (a in LS) != (b in LS)})
        above = [T for T in F if S < T]
        if above:
            external &= interior(min(above, key=len))
        internal = [(KER, e) for e in own.K_F] + [(PAIR, *ab) for ab in own.pairs_F]
        rows.append((S, [index[ge] for ge in internal],
                     [index[ge] for ge in external]))
    return rows


def safe_projection(d: MomentDiagram, F, n: ScaleAssignment) -> frozenset[frozenset[int]]:
    """Members whose internal scale does not exceed their external scale,
    computed once per forest and kept on ``n``."""
    scales, memo = n._on(d)
    try:
        out = memo.get(F)
    except TypeError:  # not frozen yet
        out = None
    if out is None:
        F = frozenset(F)
        out = memo[F] = frozenset([
            S for S, internal, external in _forest_edges(d, F)
            if min([scales[i] for i in internal], default=INF)
            <= max([scales[i] for i in external], default=-INF)])
    return out


# --- interval preimages -------------------------------------------------------


@dataclass(frozen=True)
class ForestInterval:
    lower: frozenset[frozenset[int]]
    upper: frozenset[frozenset[int]]

    def __contains__(self, F) -> bool:
        return self.lower <= frozenset(F) <= self.upper

    def members(self, universe) -> list[frozenset[frozenset[int]]]:
        return [F for F in universe if F in self]


def _bounds(target, pre, universe) -> tuple[frozenset, frozenset]:
    """The meet and join of the forests ``pre``, which are every entry of
    ``universe`` that projects to ``target``; raises unless no other entry
    of ``universe`` lies between them."""
    lower, upper = frozenset.intersection(*pre), frozenset.union(*pre)
    if len([F for F in universe if lower <= F <= upper]) != len(pre):
        raise AssertionError(
            f"safe-projection preimage of {sorted(map(sorted, target))} is not an interval"
        )
    return lower, upper


def preimage_interval(d: MomentDiagram, target, n: ScaleAssignment,
                      forests=None) -> ForestInterval | None:
    """Preimage of ``target`` under the safe projection over all forests.

    Returns the interval [lower, upper], or None when empty.  Raises if the
    preimage is not an interval.
    """
    if forests is None:
        forests = d.enumerate_forests()
    forests = [frozenset(F) for F in forests]
    target = frozenset(target)
    pre = [F for F in forests if safe_projection(d, F, n) == target]
    return ForestInterval(*_bounds(target, pre, forests)) if pre else None


# --- cut harvesting ------------------------------------------------------------


@_memoized
def _harvest_edges(d: MomentDiagram, F) -> tuple:
    """The scale-free part of a harvest of ``F``, with the base point and
    the nodes numbered 0, 1, ... in that order: each vertex's component
    label once each member of ``F`` is contracted (members that overlap
    merge into one), the generalized edges between components as
    (index, u, v), each cut site e with its pairs (0, p) and (p, e), p its
    parent, the pairs the contraction leaves apart, and the others, joined
    at scale infinity."""
    pos = {v: k for k, v in enumerate([0, *d.nodes])}
    label = list(pos.values())
    for S in F:
        merged = {label[pos[u]] for u in S}
        label = [min(merged) if x in merged else x for x in label]
    rest = []
    for ge, i in _edge_index(d).items():
        kind, a = ge[:2]
        u, v = (0, a) if kind == BASE else (a, d.parent[a]) if kind == KER else ge[1:]
        if label[pos[u]] != label[pos[v]]:
            rest.append((i, pos[u], pos[v]))
    cuts = [(e, (0, pos[d.parent[e]]), (pos[d.parent[e]], pos[e]))
            for e in d.cut_sites()]
    pairs = list(dict.fromkeys(q for _, *qs in cuts for q in qs))
    apart = [(u, v) for u, v in pairs if label[u] != label[v]]
    joined = {(u, v): INF for u, v in pairs if label[u] == label[v]}
    return label, rest, cuts, apart, joined


def harvest_cuts(d: MomentDiagram, F, n: ScaleAssignment) -> frozenset[int]:
    """Cut sites e whose parent p is joined to the base point at a larger
    scale than p is joined to e.

    Two vertices are joined at their merge scale: adding the generalized
    edges from the largest scale down, the scale of the edge that first
    puts them in one component.  That is their bottleneck, the largest s
    such that the edges of scale >= s connect them.  Edges internal to
    ``F`` come first, at scale infinity, so contracting a member can only
    raise a merge scale; the forest's table holds each member contracted.
    Only the pairs (0, p) and (p, e) are followed, and the merging stops
    once all of them are joined.
    """
    label, rest, cuts, apart, joined = _harvest_edges(d, F)
    scales, _ = n._on(d)
    joined = dict(joined)
    for s, u, v in sorted([(scales[i], u, v) for i, u, v in rest], reverse=True):
        lu, lv = label[u], label[v]
        if lu == lv:
            continue
        label = [lu if x == lv else x for x in label]
        left = []
        for q in apart:
            if label[q[0]] == label[q[1]]:
                joined[q] = s
            else:
                left.append(q)
        if not left:
            break
        apart = left
    return frozenset(e for e, up, down in cuts if joined[up] > joined[down])


# --- the partition identity -----------------------------------------------------


@dataclass
class PartitionReport:
    ok: bool
    n_pairs: int
    n_cells: int
    interval_checks: int
    compatibility_checks: int
    failures: list[dict] = field(default_factory=list)


@_memoized
def _subsets(d: MomentDiagram, sites) -> tuple[frozenset, ...]:
    """All subsets of the cut sites ``sites`` of ``d``, by size and then
    lexicographically."""
    items = sorted(sites)
    return tuple(frozenset(c) for r in range(len(items) + 1)
                 for c in combinations(items, r))


@_memoized
def _partition_frame(d: MomentDiagram) -> tuple:
    """The scale-free frame of the partition audit: the forests, the set of
    all (forest, cut) pairs, and each cut collection with the forests that
    leave all of its sites free."""
    forests = d.enumerate_forests()
    # a set, not a list: its order is the order of the coverage failures
    all_pairs = {(F, cut) for F in forests for cut in _subsets(d, d.free_sites(F))}
    cuts = [(cut, [F for F in forests if cut <= d.free_sites(F)])
            for cut in _subsets(d, d.cut_sites())]
    return forests, all_pairs, cuts


def organize_and_check(d: MomentDiagram, n: ScaleAssignment) -> PartitionReport:
    """Verify that the (interval-of-forests, interval-of-cuts) cells exactly
    partition all (forest, cut) pairs, and that harvested cuts are
    compatible with cell membership.

    One pass over the cut collections builds the cells.  For each cut, the
    forests that leave its sites free are grouped by safe projection; each
    group must be an interval M, and the cut is admissible for M when the
    group's projection is M's minimum.  That is the definition of
    admissibility: the forests that leave the cut free and project to M's
    minimum are exactly M.  The cut needs no separate restriction to the
    free sites of M's maximum, because every forest of M leaves the cut
    free, so their union does too.
    """
    forests, all_pairs, cuts = _partition_frame(d)
    proj = {F: safe_projection(d, F, n) for F in forests}

    failures: list[dict] = []
    interval_checks = 0
    compat_checks = 0

    # forest interval M -> (its maximum, its admissible cut collections)
    cells: dict[frozenset, tuple[frozenset, set]] = {}
    for cut, avail in cuts:
        for img in {proj[F] for F in avail}:
            pre = [F for F in avail if proj[F] == img]
            try:
                lower, upper = _bounds(img, pre, avail)
            except AssertionError as exc:
                failures.append({"kind": "interval", "cut": sorted(cut), "err": str(exc)})
                continue
            interval_checks += 1
            admissible = cells.setdefault(frozenset(pre), (upper, set()))[1]
            if img == lower:
                admissible.add(cut)
            else:
                failures.append({
                    "kind": "min", "cut": sorted(cut),
                    "detail": "projection image is not the interval minimum",
                })
    coverage: dict[tuple, int] = dict.fromkeys(all_pairs, 0)
    n_cells = 0
    for M, (upper, admissible) in cells.items():
        free = d.free_sites(upper)
        harv = harvest_cuts(d, upper, n) & free
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
        flips = _subsets(d, harv)
        for seed in _subsets(d, free - harv):
            block = [seed | x for x in flips]
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
