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

The sign audits build no total homogeneity.  The big-graph and inner
audits check a weight on the node set each cluster re-expands to, so they
read only the region's vertices and the forest's contraction, both
memoized by the diagram.  The weight is an integer count (kernel edges,
decorations, cut exponents, integration volume) plus one coupling term:
beta_bar (q^2 - N) for N noises of net charge q, or beta_bar N for the
noises left outside the macroscopic cluster.  The large-scale audit passes
over no subsets, so it caps no vertex count: what a cluster of the pinned
vertices leaves out splits into connected node sets, so it checks the
diagram's connected node sets that the forest's contraction keeps whole
and that hold no pinned vertex.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import floor

from .moment_diagrams import (BASE_POINT, EdgeSetBundle, MomentDiagram,
                              derived_edge_sets)
from .tree_core import SCALING_DIM, deco_weight

#: hard cap on exhaustive coalescence-tree enumeration
MAX_EXHAUSTIVE_VERTICES = 8

#: hard cap on the passes over all 2^n vertex subsets (audits, probes)
MAX_CLUSTER_VERTICES = 17

#: largest relative spread of the rescaled scale sums that counts as stable
SUMMABILITY_SPREAD = 0.05


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
    """A total homogeneity together with its vertex set."""

    sigma: TotalHomogeneity
    vertices: frozenset


def _quotient(d: MomentDiagram, forest, S=None) -> tuple[frozenset, tuple]:
    """The vertices of the member ``S``, or of the whole diagram and the
    base point, once the forest's members within it are contracted to
    their roots, and the contraction map onto them."""
    b = derived_edge_sets(d, forest, S)
    return (b.N_F if S is not None else b.N_F | {BASE_POINT},
            d.contraction(b.C))


def _contracted(d: MomentDiagram, b: EdgeSetBundle, qhat, s_cut=frozenset()):
    """The contracted-member, kernel-edge and noise-pair terms of the edge
    sets ``b`` on the quotient ``qhat`` (each member of ``b.C`` at its
    root, its smallest node), less the kernel edges in ``s_cut``."""
    bb = d.params.beta_bar
    terms = [(-d.bare_s_hom(T), frozenset([min(T)])) for T in b.C]
    terms += [(Fraction(2), frozenset([qhat[d.parent[e]], qhat[e]]))
              for e in sorted(b.K_F - s_cut)]
    terms += [(Fraction(-2 * d.pair_sign((u, v))) * bb, frozenset([qhat[u], qhat[v]]))
              for u, v in b.pairs_F + b.pairs_partial]
    return terms


def _refuse_member_cuts(d: MomentDiagram, forest, s_cut):
    """Refuse the ``s_cut`` edges inside a member of the forest."""
    if inside := frozenset(s_cut) - d.free_sites(forest):
        raise ValueError(f"s_cut edges {sorted(inside)} are not kernel edges "
                         f"outside the forest's members")


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
    _refuse_member_cuts(d, forest, s_cut)
    s_cut, d_cut = frozenset(s_cut), frozenset(d_cut)
    vertices, qhat = _quotient(d, forest)
    terms = _contracted(d, derived_edge_sets(d, forest), qhat, s_cut)
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
    return HomogeneitySetup(TotalHomogeneity(tuple(terms)), vertices)


def collapse_order(d: MomentDiagram, S) -> int:
    """Number of collapse-operator subtractions bought by the member ``S``."""
    return floor(-d.bare_sg_hom(S))


def inner_total_homogeneity(d: MomentDiagram, S, forest) -> HomogeneitySetup:
    """Total homogeneity of the integrand localized to the forest member
    ``S``, on the nodes of ``S`` with nested members contracted."""
    vertices, qhat = _quotient(d, forest, S)
    terms = _contracted(d, derived_edge_sets(d, forest, S), qhat)
    terms.append((Fraction(-collapse_order(d, S)), vertices))
    return HomogeneitySetup(TotalHomogeneity(tuple(terms)), vertices)


def reexpanded(qhat: tuple, cluster) -> frozenset:
    """The preimage of the cluster under the quotient map ``qhat``: every
    contracted-member root is replaced by the member's full node set."""
    return frozenset(u for u, x in enumerate(qhat) if x in cluster)


# --- cluster-sum evaluators ------------------------------------------------------


def inner_sigma_tilde(d: MomentDiagram, S, M) -> Fraction:
    """Cluster-sum weight of a node set inside one member: kernel gain minus
    decoration weight, integration volume and the charge term."""
    return (2 * len(d.K(S & M)) - sum(deco_weight(d.deco[u]) for u in M)
            - (len(M) - 1) * SCALING_DIM - _charge_term(d, M))


def big_graph_sigma_tilde(d: MomentDiagram, s_cut, d_cut, M) -> Fraction:
    """Cluster-sum weight of a node set of the full diagram (the set may
    contain the base point)."""
    s_cut, d_cut, M = frozenset(s_cut), frozenset(d_cut), frozenset(M)
    nodes = M - {BASE_POINT}
    val = 2 * len(d.K(nodes) - s_cut) - (len(M) - 1) * SCALING_DIM
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
        out = asdict(self)
        out["min_margin"] = None if self.min_margin is None else str(self.min_margin)
        return out


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


def _sign_audit(context: str, d: MomentDiagram, forest, S, value
                ) -> ClusterAuditReport:
    """Every re-expanded cluster of the region ``S`` (see ``_quotient``),
    other than an uncontracted divergent subtree, must have a strictly
    negative ``value``."""
    vertices, qhat = _quotient(d, forest, S)
    excluded = _uncontracted_divergent(d, forest)
    report = ClusterAuditReport(True, context, 0)
    for a in sorted(_clusters(vertices), key=sorted):
        M = reexpanded(qhat, a)
        if M not in excluded:
            val = value(M)
            _tally(report, M, -val, lambda: {"set": sorted(M), "value": str(val)})
    return report


def sign_audit_inner(d: MomentDiagram, S, forest) -> ClusterAuditReport:
    return _sign_audit("inner", d, forest, S,
                       lambda M: inner_sigma_tilde(d, S, M))


def sign_audit_big_graph(d: MomentDiagram, forest, s_cut=(), d_cut=()
                         ) -> ClusterAuditReport:
    _refuse_member_cuts(d, forest, s_cut)
    return _sign_audit("big-graph", d, forest, None,
                       lambda M: big_graph_sigma_tilde(d, s_cut, d_cut, M))


def sign_audit_large_scale(d: MomentDiagram, forest, s_cut=(), d_cut=()
                           ) -> ClusterAuditReport:
    """Everything left outside the cluster of the pinned vertices (the base
    point and the copy roots) must carry strictly positive decay.

    The sets checked are the kernel components of what each cluster holding
    the pinned vertices leaves out.  They are exactly the connected node
    sets that hold no pinned vertex and that the forest's contraction keeps
    whole, for such a set is all that the cluster of the quotient vertices
    outside its image leaves out.
    """
    _refuse_member_cuts(d, forest, s_cut)
    _, qhat = _quotient(d, forest)
    pinned = {BASE_POINT} | {qhat[r] for r in d.roots}
    fam = [M for M in d.connected_sets()
           if pinned.isdisjoint(image := {qhat[u] for u in M})
           and reexpanded(qhat, image) == M]
    report = ClusterAuditReport(True, "large-scale", 0)
    for M in sorted(fam, key=sorted):
        val = large_scale_sigma_tilde(d, s_cut, d_cut, M)
        _tally(report, M, val, lambda: {"set": sorted(M), "value": str(val)})
    return report


def identity_audit(d: MomentDiagram, S, forest) -> ClusterAuditReport:
    """The nested cluster-weight sum must equal the re-expanded set weight,
    exactly, for every proper cluster of at least two vertices."""
    vertices, qhat = _quotient(d, forest, S)
    sigma = inner_total_homogeneity(d, S, forest).sigma
    report = ClusterAuditReport(True, "identity", 0)
    for a in _clusters(vertices):
        lhs = sigma.nested(a, vertices) - (len(a) - 1) * SCALING_DIM
        rhs = inner_sigma_tilde(d, S, reexpanded(qhat, a))
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
                      r_values, caps) -> SummabilityReport:
    """Numerically verify the geometric decay of the scale sums over all
    hierarchies with strictly increasing labels up to the cap.

    For negative order the sums keep the labelings whose coarsest scale
    exceeds r, for positive order those whose coarsest scale is at most r.
    Each raw sum, rescaled by 2^(-alpha*r), must be stable in r and in the
    cap, to a relative spread of at most ``SUMMABILITY_SPREAD``.  Fewer
    than two distinct r values or caps, a negative r, or for negative order
    a cap not above every r is refused: a sum would be empty or a value
    compared only with itself.
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
                             spread <= SUMMABILITY_SPREAD)
