"""Total homogeneities, cluster weights, the subdivergence, sign,
identity and order audits, and summability probes.

A coalescence tree, or hierarchy, organizes a set of integration variables
by the dyadic scale at which they cluster together.  A total homogeneity is
a formal linear combination of cluster markers; on a hierarchy each
coefficient lands on the smallest cluster containing its marker.  The
weight nested inside a cluster is the sum of the coefficients whose marker
lies in the cluster, whatever the hierarchy, and the non-root clusters of
all hierarchies are exactly the vertex subsets of size 2 to n - 1.  So the
cluster audits and the order read vertex subsets, and the summability
probes recurse over subsets and their set partitions, never hierarchies.
The library enumerates hierarchies only as children maps
(``all_coalescence_trees``), for the oracle tests of those recursions.

The weight the sign audits check on a node set is an integer count (kernel
edges, decorations, cut exponents, integration volume) plus one coupling
term: beta_bar (q^2 - N) for N noises of net charge q, or beta_bar N for
the noises left outside the macroscopic cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product

from .moment_diagrams import (BASE_POINT, EdgeSetBundle, MomentDiagram,
                              derived_edge_sets)
from .tree_core import SCALING_DIM, deco_weight

#: hard cap on exhaustive coalescence-tree enumeration
MAX_EXHAUSTIVE_VERTICES = 8

#: hard cap on the passes over all 2^n vertex subsets (audits, probes)
MAX_CLUSTER_VERTICES = 17


# --- hierarchies and vertex subsets --------------------------------------------


def _set_partitions(seq: list):
    """All partitions of ``seq`` into nonempty blocks."""
    if len(seq) == 1:
        yield [[seq[0]]]
        return
    first, rest = seq[0], seq[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def _children_maps(vs: frozenset, memo: dict) -> list[tuple]:
    """All cluster hierarchies on ``vs``; each is a tuple of
    (cluster, children) pairs rooted at ``vs``.  ``memo`` holds the
    hierarchies of the sub-blocks already expanded."""
    if vs in memo:
        return memo[vs]
    out = []
    for blocks in _set_partitions(sorted(vs)):
        if len(blocks) < 2:
            continue
        options = []
        for b in blocks:
            if len(b) == 1:
                options.append([()])
            else:
                options.append(_children_maps(frozenset(b), memo))
        for combo in product(*options):
            entry = [(vs, tuple(frozenset(b) for b in blocks))]
            for sub in combo:
                entry.extend(sub)
            out.append(tuple(entry))
    memo[vs] = out
    return out


def all_coalescence_trees(vertices) -> list[tuple]:
    """Exhaustive enumeration of cluster hierarchies on a small vertex set.

    Each hierarchy is its children map: a tuple of (cluster, children)
    pairs, one per cluster of at least two vertices, the vertex set first.
    The children of a cluster are frozensets, at least two, that partition
    it; a singleton child is a leaf, and every other child is a cluster of
    the same map.
    """
    vs = frozenset(vertices)
    if len(vs) < 2:
        raise ValueError("need at least two vertices")
    if len(vs) > MAX_EXHAUSTIVE_VERTICES:
        raise ValueError(
            f"refusing exhaustive enumeration beyond {MAX_EXHAUSTIVE_VERTICES} vertices"
        )
    return _children_maps(vs, {})


def _subset_vertices(vertices) -> list:
    """The sorted vertices of a pass over all their subsets."""
    vs = sorted(frozenset(vertices))
    if len(vs) < 2:
        raise ValueError("need at least two vertices")
    if len(vs) > MAX_CLUSTER_VERTICES:
        raise ValueError(
            f"refusing cluster audits beyond {MAX_CLUSTER_VERTICES} vertices"
        )
    return vs


def _clusters(vertices) -> list[frozenset]:
    """The vertex subsets ``a`` with 2 <= |a| < n, by size and then by sorted
    members: exactly the non-root clusters of the hierarchies on the set."""
    vs = _subset_vertices(vertices)
    return [frozenset(c) for k in range(2, len(vs)) for c in combinations(vs, k)]


def _components(vertices, links) -> list[frozenset]:
    """Connected components of ``vertices`` joined by the (u, v) pairs
    ``links``, in the order of their first vertex in ``vertices``."""
    par = {v: v for v in vertices}

    def find(x):
        while par[x] != x:
            par[x] = par[par[x]]
            x = par[x]
        return x

    for u, v in links:
        ru, rv = find(u), find(v)
        if ru != rv:
            par[ru] = rv
    groups: dict = {}
    for v in vertices:
        groups.setdefault(find(v), []).append(v)
    return [frozenset(g) for g in groups.values()]


# --- total homogeneities --------------------------------------------------------


@dataclass(frozen=True)
class TotalHomogeneity:
    """Formal combination of cluster markers with exact coefficients.

    Each term is (coefficient, marker): on a hierarchy the coefficient lands
    on the smallest cluster containing the marker.
    """

    terms: tuple  # of (Fraction, frozenset)

    def nested(self, a: frozenset, vertices: frozenset) -> Fraction:
        """Weight of the cluster ``a`` and everything nested in it, on any
        hierarchy that has ``a`` as a cluster: the sum of the coefficients
        whose marker lies in ``a``."""
        total = Fraction(0)
        for coeff, marker in self.terms:
            if not marker <= vertices:
                raise ValueError(f"marker {sorted(marker)} not within the vertex set")
            if marker <= a:
                total += coeff
        return total


@dataclass
class HomogeneitySetup:
    """A total homogeneity together with its vertex set and bookkeeping."""

    sigma: TotalHomogeneity
    vertices: frozenset
    qhat: dict            # diagram node (or base point) -> quotient vertex
    pinned: frozenset     # vertices that stay at macroscopic separation


def _contracted(d: MomentDiagram, b: EdgeSetBundle, s_cut=frozenset()):
    """The quotient map that contracts each member of ``b.C`` to its root,
    and on it the contracted-member, kernel-edge and noise-pair terms of the
    edge sets ``b``, leaving out the kernel edges in ``s_cut``."""
    qhat = {BASE_POINT: BASE_POINT} | {u: u for u in d.nodes}
    for T in b.C:
        qhat |= dict.fromkeys(T, d.subtree_root(T))
    bb = d.params.beta_bar
    terms = [(-d.bare_s_hom(T), frozenset([qhat[d.subtree_root(T)]])) for T in b.C]
    terms += [(Fraction(2), frozenset([qhat[d.parent[e]], qhat[e]]))
              for e in sorted(b.K_F - s_cut)]
    terms += [(Fraction(-2 * d.pair_sign((u, v))) * bb, frozenset([qhat[u], qhat[v]]))
              for u, v in b.pairs_F + b.pairs_partial]
    return qhat, terms


def _charge_term(d: MomentDiagram, nodes) -> Fraction:
    """beta_bar (q^2 - N) for the N noises, of net charge q, among ``nodes``."""
    q = d.charge(nodes)
    return d.params.beta_bar * (q * q - len(d.L(nodes)))


def sg_total_homogeneity(d: MomentDiagram, forest, s_cut=(), d_cut=()
                         ) -> HomogeneitySetup:
    """Total homogeneity of the full moment integrand for one
    (forest, cut) configuration.

    Contracted forest members become single vertices; the combination
    collects the decoration, contracted-member, kernel-edge, noise-pair and
    recentered-edge groups.  ``s_cut`` are cut edges entering a contracted
    member, ``d_cut`` the remaining cut edges.  An ``s_cut`` edge inside a
    member is refused: only the forest's free sites are cut, and every
    kernel edge is a cut site, as gamma(e) >= |desc(e)| (2 - beta_bar) > 0.
    """
    top = derived_edge_sets(d, forest)
    s_cut, d_cut = frozenset(s_cut), frozenset(d_cut)
    if inside := s_cut - d.free_sites(forest):
        raise ValueError(f"s_cut edges {sorted(inside)} are not kernel edges "
                         f"outside the forest's members")
    qhat, terms = _contracted(d, top, s_cut)
    for u in d.nodes:
        w = deco_weight(d.deco[u])
        if w:
            terms.append((Fraction(-w), frozenset([qhat[u], BASE_POINT])))
    for e in sorted(d_cut):
        g = d.gamma(e)
        terms.append((Fraction(g), frozenset([qhat[d.parent[e]], qhat[e]])))
        terms.append((Fraction(-g), frozenset([BASE_POINT, qhat[d.parent[e]]])))
    for e in sorted(s_cut):
        g = d.gamma(e)
        terms.append((Fraction(g - 1), frozenset([e, BASE_POINT])))
        terms.append((Fraction(-(g - 1)), frozenset([BASE_POINT, qhat[d.parent[e]]])))
        terms.append((Fraction(2), frozenset([e, BASE_POINT])))
    pinned = frozenset([BASE_POINT]) | frozenset(qhat[r] for r in d.roots)
    return HomogeneitySetup(TotalHomogeneity(tuple(terms)),
                            frozenset([BASE_POINT]) | top.N_F, qhat, pinned)


def collapse_order(d: MomentDiagram, S, in_d_cut: bool = False) -> int:
    """Number of collapse-operator subtractions bought by the member ``S``."""
    from math import floor

    return floor(-d.bare_sg_hom(S)) + (1 if in_d_cut else 0)


def inner_total_homogeneity(d: MomentDiagram, S, forest, in_d_cut: bool = False
                            ) -> HomogeneitySetup:
    """Total homogeneity of the integrand localized to one forest member.

    Vertices are the nodes of ``S`` with nested members contracted to their
    roots; the root of ``S`` is the pinned vertex.
    """
    b = derived_edge_sets(d, forest, S)
    qhat, terms = _contracted(d, b)
    vertices = frozenset(qhat[u] for u in S)
    terms.append((Fraction(-collapse_order(d, S, in_d_cut)), vertices))
    return HomogeneitySetup(TotalHomogeneity(tuple(terms)), vertices, qhat,
                            frozenset([d.subtree_root(S)]))


def reexpanded(setup: HomogeneitySetup, cluster: frozenset) -> frozenset:
    """The preimage of the cluster under the quotient map: every
    contracted-member root is replaced by the member's full node set."""
    return frozenset(u for u, x in setup.qhat.items() if x in cluster)


# --- cluster-sum evaluators ------------------------------------------------------


def inner_sigma_tilde(d: MomentDiagram, S, M) -> Fraction:
    """Cluster-sum weight of a node set inside one member: kernel gain minus
    decoration weight, integration volume and the charge term."""
    K_in = sum(1 for e in d.K(S) if e in M and d.parent[e] in M)
    return (2 * K_in - sum(deco_weight(d.deco[u]) for u in M)
            - (len(M) - 1) * SCALING_DIM - _charge_term(d, M))


def big_graph_sigma_tilde(d: MomentDiagram, s_cut, d_cut, M) -> Fraction:
    """Cluster-sum weight of a node set of the full diagram (the set may
    contain the base point)."""
    s_cut, d_cut, M = frozenset(s_cut), frozenset(d_cut), frozenset(M)
    nodes = M - {BASE_POINT}
    val = (2 * sum(1 for e in d.kernel_edges
                   if e not in s_cut and e in M and d.parent[e] in M)
           - (len(M) - 1) * SCALING_DIM)
    if BASE_POINT in M:
        val -= sum(deco_weight(d.deco[u]) for u in nodes)
        val -= sum(d.gamma(e) for e in d_cut if e not in M and d.parent[e] in M)
        val += sum(2 + (0 if d.parent[e] in M else d.gamma(e) - 1)
                   for e in s_cut if e in M)
    return val - _charge_term(d, nodes)


def large_scale_sigma_tilde(d: MomentDiagram, s_cut, d_cut, M) -> Fraction:
    """Decay weight of a node set left outside the macroscopic cluster."""
    s_cut, d_cut, M = frozenset(s_cut), frozenset(d_cut), frozenset(M)
    val = 2 * sum(1 for e in d.kernel_edges
                  if e not in s_cut and (e in M or d.parent[e] in M))
    val += sum(d.gamma(e) for e in d_cut if e in M and d.parent[e] not in M)
    for e in s_cut:
        if e in M:
            val += 2
        elif d.parent[e] in M:
            val -= d.gamma(e) - 1
    val -= sum(deco_weight(d.deco[u]) for u in M) + len(M) * SCALING_DIM
    return val + d.params.beta_bar * len(d.L(M))


# --- audits ----------------------------------------------------------------------


@dataclass
class ClusterAuditReport:
    ok: bool
    context: str
    checked: int
    violations: list = field(default_factory=list)
    min_margin: Fraction | None = None
    argmin: list | None = None

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "context": self.context,
            "checked": self.checked,
            "violations": self.violations,
            "min_margin": None if self.min_margin is None else str(self.min_margin),
            "argmin": self.argmin,
        }


def _uncontracted_divergent(d: MomentDiagram, forest) -> frozenset:
    """Divergent subtrees not contracted by the forest.

    A cluster consisting of exactly the nodes of such a subtree corresponds
    to scale assignments outside the configuration's scale set (the subtree
    would have been contracted there), so audits skip it.
    """
    forest = set(forest)
    return frozenset(T for T in d.divergent_subtrees() if T not in forest)


def divergent_cluster_exclusions(d: MomentDiagram, forest, qhat) -> frozenset:
    """Quotient images of divergent subtrees not contracted by the forest."""
    return frozenset(frozenset(qhat[u] for u in T)
                     for T in _uncontracted_divergent(d, forest))


def _tally(report: ClusterAuditReport, M, margin: Fraction, violation):
    """Count one checked set and keep the least margin; a margin that is not
    positive fails the audit and records ``violation()``, which is built
    only then."""
    report.checked += 1
    if report.min_margin is None or margin < report.min_margin:
        report.min_margin = margin
        report.argmin = sorted(M)
    if margin <= 0:
        report.ok = False
        report.violations.append(violation())


def subdivergence_audit(sigma: TotalHomogeneity, vertices, excluded=()
                        ) -> ClusterAuditReport:
    """Check that no cluster of vertices accumulates enough weight to beat
    its integration volume.

    For every proper cluster of at least two vertices, other than the
    ``excluded`` ones, the weights of the cluster and everything nested in
    it must sum to strictly less than (size - 1) times the scaling
    dimension.
    """
    vertices = frozenset(vertices)
    excluded = frozenset(frozenset(m) for m in excluded)
    report = ClusterAuditReport(True, "subdivergence", 0)
    for a in _clusters(vertices):
        total = sigma.nested(a, vertices)  # before the filter: it checks markers
        if a not in excluded:
            bound = (len(a) - 1) * SCALING_DIM
            _tally(report, a, bound - total, lambda: {
                "cluster": sorted(a), "total": str(total), "bound": bound})
    return report


def order_audit(sigma: TotalHomogeneity, vertices) -> tuple[bool, Fraction]:
    """Order: the nested weight of the vertex set, the same on every
    hierarchy, minus (n - 1) times the scaling dimension.  The verdict only
    checks that the markers lie in the vertex set (``nested`` raises)."""
    vs = frozenset(vertices)
    return True, sigma.nested(vs, vs) - (len(vs) - 1) * SCALING_DIM


def _sign_audit(context: str, setup: HomogeneitySetup, d: MomentDiagram,
                forest, value) -> ClusterAuditReport:
    """Every re-expanded cluster, other than an uncontracted divergent
    subtree, must have a strictly negative ``value``."""
    excluded = _uncontracted_divergent(d, forest)
    report = ClusterAuditReport(True, context, 0)
    for a in sorted(_clusters(setup.vertices), key=sorted):
        M = reexpanded(setup, a)
        if M not in excluded:
            val = value(M)
            _tally(report, M, -val, lambda: {"set": sorted(M), "value": str(val)})
    return report


def sign_audit_inner(d: MomentDiagram, S, forest) -> ClusterAuditReport:
    return _sign_audit("inner", inner_total_homogeneity(d, S, forest), d,
                       forest, lambda M: inner_sigma_tilde(d, S, M))


def sign_audit_big_graph(d: MomentDiagram, forest, s_cut=(), d_cut=()
                         ) -> ClusterAuditReport:
    return _sign_audit("big-graph", sg_total_homogeneity(d, forest, s_cut, d_cut),
                       d, forest,
                       lambda M: big_graph_sigma_tilde(d, s_cut, d_cut, M))


def _k_components(d: MomentDiagram, M: frozenset) -> list[frozenset]:
    M = frozenset(M) - {BASE_POINT}
    return _components(M, ((e, d.parent[e]) for e in d.kernel_edges
                           if e in M and d.parent[e] in M))


def sign_audit_large_scale(d: MomentDiagram, forest, s_cut=(), d_cut=()
                           ) -> ClusterAuditReport:
    """Everything left outside the cluster of the pinned vertices must carry
    strictly positive decay."""
    setup = sg_total_homogeneity(d, forest, s_cut, d_cut)
    all_nodes = frozenset([BASE_POINT]) | frozenset(d.nodes)
    fam = {comp for a in _clusters(setup.vertices) if setup.pinned <= a
           for comp in _k_components(d, all_nodes - reexpanded(setup, a))}
    report = ClusterAuditReport(True, "large-scale", 0)
    for M in sorted(fam, key=sorted):
        val = large_scale_sigma_tilde(d, s_cut, d_cut, M)
        _tally(report, M, val, lambda: {"set": sorted(M), "value": str(val)})
    return report


def identity_audit(d: MomentDiagram, S, forest) -> ClusterAuditReport:
    """The nested cluster-weight sum must equal the re-expanded set weight,
    exactly, for every proper cluster of at least two vertices."""
    setup = inner_total_homogeneity(d, S, forest)
    report = ClusterAuditReport(True, "identity", 0)
    for a in _clusters(setup.vertices):
        lhs = setup.sigma.nested(a, setup.vertices) - (len(a) - 1) * SCALING_DIM
        rhs = inner_sigma_tilde(d, S, reexpanded(setup, a))
        report.checked += 1
        if lhs != rhs:
            report.ok = False
            report.violations.append(
                {"cluster": sorted(a), "lhs": str(lhs), "rhs": str(rhs)}
            )
    return report


# --- summability probes -----------------------------------------------------------


@dataclass
class SummabilityReport:
    alpha: Fraction
    values: dict          # (r, cap) -> raw sum
    normalized: dict      # (r, cap) -> raw * 2^(-alpha*r)
    spread: float         # (max - min) / max over the final-cap column
    converged: bool

    def as_dict(self) -> dict:
        return {
            "alpha": str(self.alpha),
            "values": {f"r={r},cap={c}": v for (r, c), v in self.values.items()},
            "normalized": {f"r={r},cap={c}": v
                           for (r, c), v in self.normalized.items()},
            "spread": self.spread,
            "converged": self.converged,
        }


def _root_sums(nested: list, cap: int) -> list[float]:
    """Entry l: the scale sum over the hierarchies on the full vertex set
    with root label l and all labels at most ``cap``.

    With N = ``nested`` (by subset bitmask) and d the scaling dimension,
    S[m] sums, from l = cap down, the hierarchies on m with root label
    above l.  A block b gives f(b) = 2^(-d*l) if it is a singleton, else
    2^(-(N(b) + d)*l) * S[b].  P[m] sums prod f over the partitions of m,
    q over those into two or more blocks; m at root label l gives
    2^((N(m) + d)*l) * q.
    """
    full = len(nested) - 1
    S = [0.0] * (full + 1)
    out = [0.0] * (cap + 1)
    for l in range(cap, -1, -1):
        f = [2.0 ** (-(SCALING_DIM + nested[m]) * l) * S[m] if m & (m - 1)
             else 2.0 ** (-SCALING_DIM * l) for m in range(full + 1)]
        P = [1.0] + [0.0] * full
        for m in range(1, full + 1):
            low, rest, q = m & -m, m & (m - 1), 0.0
            sub = rest
            while sub:  # the blocks low | sub, other than m itself
                sub = (sub - 1) & rest
                q += f[low | sub] * P[rest ^ sub]
            P[m] = q + f[m]
            out[l] = 2.0 ** ((nested[m] + SCALING_DIM) * l) * q
            S[m] += out[l]  # out[l] ends on m = full
    return out


def summability_probe(sigma: TotalHomogeneity, vertices, alpha: Fraction,
                      r_values, caps, tol: float = 0.05) -> SummabilityReport:
    """Numerically verify the geometric decay of the scale sums over all
    hierarchies with strictly increasing labels up to the cap.

    For negative order the sums keep the labelings whose coarsest scale
    exceeds r, for positive order those whose coarsest scale is at most r.
    Each raw sum, rescaled by 2^(-alpha*r), must be stable in r and in the
    cap.  Fewer than two distinct r values or caps, a negative r, or for
    negative order a cap not above every r is refused: a sum would be
    empty or a value compared only with itself.
    """
    vs = _subset_vertices(vertices)
    r_values, caps = list(r_values), list(caps)
    if len(set(r_values)) < 2 or len(set(caps)) < 2 or min(r_values) < 0:
        raise ValueError("need two distinct r values and caps, every r >= 0")
    if alpha < 0 and min(caps) <= max(r_values):
        raise ValueError("for negative order every cap must exceed every r")
    nested = [float(sigma.nested(frozenset(v for i, v in enumerate(vs)
                                            if m >> i & 1), frozenset(vs)))
              for m in range(1 << len(vs))]
    roots = {cap: _root_sums(nested, cap) for cap in caps}
    values = {(r, cap): sum(roots[cap][r + 1:] if alpha < 0
                            else roots[cap][:min(r, cap) + 1])
              for r in r_values for cap in caps}
    normalized = {(r, cap): v * 2.0 ** (-float(alpha) * r)
                  for (r, cap), v in values.items()}
    final = [normalized[(r, max(caps))] for r in r_values] + \
        [normalized[(min(r_values), c)] for c in caps]
    spread = (max(final) - min(final)) / max(final)
    return SummabilityReport(Fraction(alpha), values, normalized, spread,
                             spread <= tol)
