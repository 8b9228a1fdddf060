"""Safe projections, interval preimages, and the partition identity."""

import dataclasses
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from sinegordon import multiscale as ms
from sinegordon.tree_core import (DecoratedTree, ModelParams, XI_MINUS, XI_PLUS,
                                   dipole, parse_key)
from sinegordon.moment_diagrams import build_diagram, derived_edge_sets
from sinegordon.multiscale import (ScaleAssignment, safe_projection,
                                   preimage_interval, harvest_cuts,
                                   organize_and_check, generalized_edges)

P54 = ModelParams.from_beta_bar(Fraction(5, 4))
D2 = build_diagram(dipole(), 1, P54)


def assignment_from(values: list[int]) -> ScaleAssignment:
    edges = generalized_edges(D2)
    return ScaleAssignment(dict(zip(edges, values)))


class TestSafeProjection:
    def test_projection_is_subset_and_idempotent_on_image(self):
        rng = random.Random(0)
        for _ in range(200):
            n = ScaleAssignment.random_assignment(D2, 4, rng)
            for F in D2.enumerate_forests():
                img = safe_projection(D2, F, n)
                assert img <= frozenset(F)
                assert safe_projection(D2, img, n) == img

    def test_constant_assignment_keeps_everything(self):
        n = ScaleAssignment.constant(D2, 2)
        F = frozenset(D2.divergent_subtrees())
        assert safe_projection(D2, F, n) == F


class TestIntervalPreimage:
    def test_preimages_partition_the_forest_lattice(self):
        rng = random.Random(1)
        forests = D2.enumerate_forests()
        for _ in range(100):
            n = ScaleAssignment.random_assignment(D2, 4, rng)
            images = {safe_projection(D2, F, n) for F in forests}
            covered = 0
            for img in images:
                interval = preimage_interval(D2, img, n, forests)
                assert interval is not None
                assert interval.lower == img
                covered += len(interval.members(forests))
            assert covered == len(forests)

    @given(st.lists(st.integers(0, 4), min_size=len(generalized_edges(D2)),
                    max_size=len(generalized_edges(D2))))
    @settings(max_examples=200, deadline=None)
    def test_interval_property_hypothesis(self, values):
        n = assignment_from(values)
        for F in D2.enumerate_forests():
            img = safe_projection(D2, F, n)
            interval = preimage_interval(D2, img, n)
            assert interval is not None and F in interval


class TestPartitionIdentity:
    def test_random_assignments(self):
        rng = random.Random(2)
        for _ in range(150):
            n = ScaleAssignment.random_assignment(D2, 4, rng)
            rep = organize_and_check(D2, n)
            assert rep.ok, rep.failures
            assert rep.n_pairs == 9

    def test_scale_free_frame_is_built_once(self, monkeypatch):
        # which kernel edges lie inside a forest depends on no scale: once
        # the diagram's first-use tables exist, an audit asks for none
        d = build_diagram(dipole(), 1, P54)
        calls = []
        K = type(d).K
        monkeypatch.setattr(type(d), "K",
                            lambda self, S: calls.append(S) or K(self, S))
        rng = random.Random(4)
        trials = [ScaleAssignment.random_assignment(d, 4, rng)
                  for _ in range(20)]
        first = [organize_and_check(d, n) for n in trials]
        built = len(calls)
        assert built > 0
        assert [organize_and_check(d, n) for n in trials] == first
        assert len(calls) == built

    def test_harvest_cuts_subset_of_cut_sites(self):
        rng = random.Random(3)
        sites = set(D2.cut_sites())
        for _ in range(100):
            n = ScaleAssignment.random_assignment(D2, 4, rng)
            for F in D2.enumerate_forests():
                assert set(harvest_cuts(D2, F, n)) <= sites


# --- the two-pass audit, kept as an oracle for the one-pass rewrite ----------
#
# Projections are recomputed per (cut, image) and the admissible cuts of each
# cell are rebuilt in a second pass, exactly as the audit was first written.
# ``ms.safe_projection`` and ``ms.harvest_cuts`` are looked up on the module
# so that a patched projection reaches the oracle and the audit alike.  The
# oracle projection builds its edge sets with the two helpers below, the
# form they had before the library folded them into one memoized table.


def internal_edges(d, S):
    """Kernel and pair edges with both endpoints in S."""
    out = {(ms.KER, e) for e in d.K(S)}
    LS = d.L(S)
    out |= {(ms.PAIR, a, b) for a, b in d.pairs if a in LS and b in LS}
    return out


def external_edges(d, S):
    """Edges tying S to its surroundings: base edges of its nodes, entering
    kernel edges, and pair edges with exactly one end in S."""
    out = {(ms.BASE, u) for u in S}
    out |= {(ms.KER, e) for e in d.K_down(S)}
    LS = d.L(S)
    out |= {(ms.PAIR, a, b) for a, b in d.pairs if (a in LS) != (b in LS)}
    return out


def _oracle_safe_projection(d, F, n):
    """Members with internal scale <= external scale, edge sets built apart."""
    kept = []
    for S in F:
        b = derived_edge_sets(d, F, S)
        ints = [n.n[(ms.KER, e)] for e in b.K_F]
        ints += [n.n[(ms.PAIR, a, c)] for a, c in b.pairs_F]
        ext = external_edges(d, S)
        above = [T for T in F if S < T]
        if above:
            ext = ext & internal_edges(d, min(above, key=len))
        exts = [n.n[ge] for ge in ext]
        i = min(ints) if ints else float("inf")
        e = max(exts) if exts else float("-inf")
        if i <= e:
            kept.append(S)
    return frozenset(kept)


def _forests_avoiding(forests, cut, d):
    out = []
    for F in forests:
        K_F = frozenset().union(*[d.K(T) for T in F]) if F else frozenset()
        if not (K_F & cut):
            out.append(frozenset(F))
    return out


def _oracle_preimage_interval(d, target, n, forests):
    target = frozenset(target)
    pre = [frozenset(F) for F in forests if ms.safe_projection(d, F, n) == target]
    if not pre:
        return None
    interval = ms.ForestInterval(frozenset.intersection(*pre), frozenset.union(*pre))
    expected = {F for F in map(frozenset, forests) if F in interval}
    if expected != set(pre):
        raise AssertionError(
            f"safe-projection preimage of {sorted(map(sorted, target))} is not an interval"
        )
    return interval


def _oracle_organize_and_check(d, n):
    forests = [frozenset(F) for F in d.enumerate_forests()]
    sites = frozenset(d.cut_sites())
    all_pairs = set()
    for F in forests:
        K_F = frozenset().union(*[d.K(T) for T in F]) if F else frozenset()
        for r in range(len(sites - K_F) + 1):
            for cut in combinations(sorted(sites - K_F), r):
                all_pairs.add((F, frozenset(cut)))

    failures = []
    interval_checks = 0
    compat_checks = 0
    seen_M = {}
    for cut in [frozenset(c) for r in range(len(sites) + 1)
                for c in combinations(sorted(sites), r)]:
        avail = _forests_avoiding(forests, cut, d)
        images = {ms.safe_projection(d, F, n) for F in avail}
        for img in images:
            try:
                interval = _oracle_preimage_interval(d, img, n, avail)
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
            if M not in seen_M:
                seen_M[M] = (interval.lower, interval.upper)
    coverage = {pair: 0 for pair in all_pairs}
    n_cells = 0
    for M, (lower, upper) in seen_M.items():
        K_b = frozenset().union(*[d.K(T) for T in upper]) if upper else frozenset()
        harv = ms.harvest_cuts(d, upper, n) - K_b
        cut_universe = sorted(sites - K_b)
        admissible = set()
        for r in range(len(cut_universe) + 1):
            for cut in combinations(cut_universe, r):
                cut = frozenset(cut)
                avail = _forests_avoiding(forests, cut, d)
                pre = frozenset(F for F in avail if ms.safe_projection(d, F, n) == lower)
                if pre == M:
                    admissible.add(cut)
        for cut in admissible | {c ^ frozenset([e]) for c in admissible for e in harv}:
            for e in harv:
                lo, hi = cut - {e}, cut | {e}
                compat_checks += 1
                if (lo in admissible) != (hi in admissible):
                    failures.append({
                        "kind": "compatibility", "edge": e, "cut": sorted(cut),
                    })
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
    return ms.PartitionReport(not failures, len(all_pairs), n_cells,
                              interval_checks, compat_checks, failures)


TAU4 = DecoratedTree("-", (0, 0, 0), (XI_PLUS, XI_PLUS, XI_MINUS))
ORACLE_DIAGRAMS = {
    "dipole_5_4": D2,
    "dipole_7_5": build_diagram(dipole(), 1, ModelParams.from_beta_bar(Fraction(7, 5))),
    "tau4_5_4": build_diagram(TAU4, 1, P54),
    # 16 forests and 4 cut sites: cuts leave different sets of forests
    "dipole_p2_5_4": build_diagram(dipole(), 2, P54),
}
# assignments per cap; the p = 2 oracle is the slow one
ORACLE_TRIALS = {"dipole_p2_5_4": 4}


class TestTwoPassOracle:
    @pytest.mark.parametrize("cap", [1, 2, 4])
    @pytest.mark.parametrize("name", sorted(ORACLE_DIAGRAMS))
    def test_reports_and_projections_match(self, name, cap):
        d = ORACLE_DIAGRAMS[name]
        forests = d.enumerate_forests()
        rng = random.Random(cap)
        for _ in range(ORACLE_TRIALS.get(name, 12)):
            n = ScaleAssignment.random_assignment(d, cap, rng)
            for F in forests:
                assert safe_projection(d, F, n) == _oracle_safe_projection(d, F, n)
            assert organize_and_check(d, n) == _oracle_organize_and_check(d, n)

    @pytest.mark.parametrize("kind", ["interval", "min"])
    def test_broken_projection_fails_the_audit(self, kind, monkeypatch):
        # "interval": every forest but the largest projects to the empty
        # forest.  Their union is the largest forest, so that preimage is not
        # an interval whenever the cut leaves all of them available.
        # "min": every forest projects to the largest, which is never the
        # minimum of the interval it is the image of.
        largest = max(D2.enumerate_forests(), key=len)
        if kind == "interval":
            broken = lambda d, F, n: largest if F == largest else frozenset()
        else:
            broken = lambda d, F, n: largest
        monkeypatch.setattr(ms, "safe_projection", broken)
        rng = random.Random(5)
        for _ in range(10):
            n = ScaleAssignment.random_assignment(D2, 4, rng)
            rep = organize_and_check(D2, n)
            assert rep.ok is False
            assert any(f["kind"] == kind for f in rep.failures)
            assert rep == _oracle_organize_and_check(D2, n)


# --- the all-pairs widest-path table, kept as an oracle for the harvest ------


def _oracle_bottlenecks(d, F, n):
    """Widest-path (max-bottleneck) scale between all vertex pairs, by
    Floyd-Warshall.  Edges internal to a member of ``F`` are infinitely
    wide links; -1 marks a pair with no path."""
    INF = float("inf")
    verts = [0] + d.nodes
    idx = {v: i for i, v in enumerate(verts)}
    m = len(verts)
    W = [[INF if i == j else -1 for j in range(m)] for i in range(m)]
    interior = set().union(*(internal_edges(d, S) for S in F))
    for ge, val in n.n.items():
        if ge[0] == ms.BASE:
            u, v = 0, ge[1]
        elif ge[0] == ms.KER:
            u, v = ge[1], d.parent[ge[1]]
        else:
            u, v = ge[1], ge[2]
        i, j = idx[u], idx[v]
        W[i][j] = W[j][i] = max(W[i][j], INF if ge in interior else val)
    for k in range(m):
        for i in range(m):
            for j in range(m):
                W[i][j] = max(W[i][j], min(W[i][k], W[k][j]))
    return {(u, v): W[idx[u]][idx[v]] for u in verts for v in verts}


def _oracle_harvest_cuts(d, F, n):
    B = _oracle_bottlenecks(d, F, n)
    return frozenset(e for e in d.cut_sites()
                     if B[0, d.parent[e]] > B[d.parent[e], e])


# A chain of four nodes: 64 of its 100 forests nest a member in one with
# another root, where a contraction that split the enclosing member at the
# nested one would change the harvest.  In TAU4 nested members share a root.
CHAIN = parse_key("(-;0,0,0;(+;0,0,0;(-;0,0,0;(+;0,0,0;))))")
HARVEST_DIAGRAMS = dict(ORACLE_DIAGRAMS, chain_8_5=build_diagram(
    CHAIN, 1, ModelParams.from_beta_bar(Fraction(8, 5))))
# assignments per cap; the chain's oracle is the slow one
HARVEST_TRIALS = {"chain_8_5": 8}


class TestHarvestOracle:
    # 64 assignments x 33 forests x 5 caps = 10,560 (assignment, forest)
    # pairs on the oracle diagrams, and 8 x 100 x 5 = 4,000 on the chain;
    # cap 0 ties every scale, where > and >= part ways
    @pytest.mark.parametrize("cap", [0, 1, 2, 4, 7])
    @pytest.mark.parametrize("name", sorted(HARVEST_DIAGRAMS))
    def test_harvest_matches_widest_paths(self, name, cap):
        d = HARVEST_DIAGRAMS[name]
        forests = d.enumerate_forests()
        rng = random.Random(cap)
        for _ in range(HARVEST_TRIALS.get(name, 64)):
            n = ScaleAssignment.random_assignment(d, cap, rng)
            for F in forests:
                assert harvest_cuts(d, F, n) == _oracle_harvest_cuts(d, F, n), (F, n.n)


# --- the dict-keyed projection and harvest, kept as references --------------
#
# Before the edge-index tables, a projection and a harvest read each scale
# from the assignment's mapping by its generalized-edge key.  These are
# those bodies, with their two tables built per call.


def _dict_forest_edges(d, F):
    def interior(S):
        LS = d.L(S)
        return ({(ms.KER, e) for e in d.K(S)}
                | {(ms.PAIR, a, b) for a, b in d.pairs if a in LS and b in LS})

    rows = []
    for S in F:
        own = derived_edge_sets(d, F, S)
        LS = d.L(S)
        external = ({(ms.BASE, u) for u in S} | {(ms.KER, e) for e in own.K_down}
                    | {(ms.PAIR, a, b) for a, b in d.pairs if (a in LS) != (b in LS)})
        above = [T for T in F if S < T]
        if above:
            external &= interior(min(above, key=len))
        internal = [(ms.KER, e) for e in own.K_F] + [(ms.PAIR, *ab) for ab in own.pairs_F]
        rows.append((S, internal, list(external)))
    return rows, frozenset().union(*map(interior, F))


def _dict_safe_projection(d, F, n):
    scale = n.n.__getitem__
    members, _ = _dict_forest_edges(d, F)
    return frozenset(
        S for S, internal, external in members
        if min(map(scale, internal), default=float("inf"))
        <= max(map(scale, external), default=float("-inf")))


def _dict_harvest_edges(d, F):
    _, interior = _dict_forest_edges(d, F)
    inner, rest = [], []
    for ge in generalized_edges(d):
        kind, a = ge[:2]
        u, v = (0, a) if kind == ms.BASE else (a, d.parent[a]) if kind == ms.KER else ge[1:]
        if ge in interior:
            inner.append((u, v, float("inf")))
        else:
            rest.append((ge, u, v))
    return inner, rest


def _dict_harvest_cuts(d, F, n):
    inner, rest = _dict_harvest_edges(d, F)
    scale = n.n.__getitem__
    outer = sorted(((u, v, scale(ge)) for ge, u, v in rest),
                   key=itemgetter(2), reverse=True)
    comp = {v: [v] for v in [0, *d.nodes]}
    joined = {}
    for u, v, s in inner + outer:
        A, B = comp[u], comp[v]
        if A is B:
            continue
        for a in A:
            for b in B:
                joined[a, b] = joined[b, a] = s
        A += B
        comp.update(dict.fromkeys(B, A))
    return frozenset(e for e in d.cut_sites()
                     if joined[0, d.parent[e]] > joined[d.parent[e], e])


D_P2 = ORACLE_DIAGRAMS["dipole_p2_5_4"]
D_TAU4 = ORACLE_DIAGRAMS["tau4_5_4"]
# 350 assignments x 2 caps x 3 diagrams = 2,100 assignments
REFERENCE_TRIALS = 350


class TestDictReference:
    @pytest.mark.parametrize("cap", [4, 12])
    @pytest.mark.parametrize("name", ["dipole_5_4", "dipole_p2_5_4", "tau4_5_4"])
    def test_tables_match_the_dict_bodies(self, name, cap):
        d = ORACLE_DIAGRAMS[name]
        forests = list(d.enumerate_forests())
        rng = random.Random(cap)
        for _ in range(REFERENCE_TRIALS):
            n = ScaleAssignment.random_assignment(d, cap, rng)
            want = {F: (_dict_safe_projection(d, F, n), _dict_harvest_cuts(d, F, n))
                    for F in forests}
            # the second order reads every projection from the memo
            for order in (forests, forests[::-1]):
                for F in order:
                    got = safe_projection(d, F, n), harvest_cuts(d, F, n)
                    assert got == want[F], (F, dict(n.n))


class TestNonForestJoin:
    def test_overlapping_members_merge_as_their_interior_edges_did(self):
        # a group's join is a forest unless the audit fails.  TAU4's members
        # {1, 2} and {1, 3} overlap at the root without nesting, and the
        # dict bodies, which merge the interior edges one by one, are the
        # reference for such a join
        J = frozenset([frozenset({1, 2}), frozenset({1, 3})])
        assert J not in D_TAU4.enumerate_forests()
        verts = [0, *D_TAU4.nodes]
        label = ms._harvest_edges(D_TAU4, J)[0]
        parts = {frozenset(v for v, x in zip(verts, label) if x == y) for y in label}
        assert parts == {frozenset({1, 2, 3})} | {
            frozenset([v]) for v in verts if v not in {1, 2, 3}}
        rng = random.Random(7)
        for _ in range(100):
            n = ScaleAssignment.random_assignment(D_TAU4, 4, rng)
            assert harvest_cuts(D_TAU4, J, n) == _dict_harvest_cuts(D_TAU4, J, n)


class TestAssignmentMemo:
    def test_assignment_is_read_only(self):
        edge = generalized_edges(D2)[0]
        values = dict.fromkeys(generalized_edges(D2), 1)
        n = ScaleAssignment(values)
        with pytest.raises(TypeError):
            n.n[edge] = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            n.n = {}
        values[edge] = 3  # the caller's dict is copied
        assert n.n[edge] == 1
        assert n == ScaleAssignment.constant(D2, 1)

    def test_one_assignment_serves_two_diagrams(self):
        # TAU4 has every generalized edge of the two-pair dipole, and the
        # kernel edges 3 and 7 more, in another order.  {{1, 2}} is a forest
        # of both; in TAU4 the kernel edge 3 enters {1, 2} as well
        assert set(generalized_edges(D_P2)) < set(generalized_edges(D_TAU4))
        F = frozenset({frozenset({1, 2})})
        values = dict.fromkeys(generalized_edges(D_TAU4), 0)
        values.update({(ms.KER, 2): 2, (ms.PAIR, 1, 2): 2, (ms.KER, 3): 3})
        n = ScaleAssignment(values)
        for d, img in [(D_P2, frozenset()), (D_TAU4, F)] * 2:
            assert safe_projection(d, F, n) == img
            assert harvest_cuts(d, F, n) == _dict_harvest_cuts(d, F, n)
        assert _dict_safe_projection(D_P2, F, n) == frozenset()
        assert _dict_safe_projection(D_TAU4, F, n) == F

    def test_each_projection_is_computed_once(self, monkeypatch):
        # organize_and_check, then criterion 05's images and preimages:
        # the projection of each forest is computed from its table once
        forests = D2.enumerate_forests()
        rng = random.Random(6)
        organize_and_check(D2, ScaleAssignment.random_assignment(D2, 4, rng))
        built = []
        table = ms._forest_edges
        monkeypatch.setattr(ms, "_forest_edges",
                            lambda d, F: built.append(frozenset(F)) or table(d, F))
        for _ in range(20):
            n = ScaleAssignment.random_assignment(D2, 4, rng)
            built.clear()
            organize_and_check(D2, n)
            images = {safe_projection(D2, F, n) for F in forests}
            for img in images:
                preimage_interval(D2, img, n, forests)
            assert Counter(built) == Counter(forests)
