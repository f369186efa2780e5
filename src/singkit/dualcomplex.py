"""Combinatorics of simple normal crossing exceptional divisors.

A configuration records the surface components of a 2-dimensional SNC
divisor, the double curves along which they meet, and the triple points.
From that we build the dual complex (vertex per component, edge per
double curve, triangle per triple point) and compute the topological and
deformation-theoretic numbers that only depend on this combinatorial
shell: second Betti number of the divisor, the link invariant
ell = b2(E) - r, the dimensions h0(T1), h1(T1), dim T2, and a lower
bound for the second cohomology of the resolved complement.

The classifier sorts configurations into three shapes of crepant
exceptional divisor:

  TYPE_II     a chain of elliptic ruled surfaces capped by a rational
              one, elliptic double curves, an anticanonical boundary
              curve D0 marked on the far end;
  TYPE_III_1  a segment (or point) of rational surfaces with rational
              double curves and marked boundary chains C_i;
  TYPE_III_2  a triangulated 2-disk of rational surfaces whose boundary
              cycle carries the marked chains.

Clauses that are visible in the combinatorial data are decided and can
FAIL; sheaf-level clauses (nefness, smoothness of individual curves,
line-bundle identities, intersection numbers) are recorded as ASSUMED:
every report lists the same ones, each shape's table in `_ASSUMED`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations

from .errors import ConfigError

# Work bound of `restriction_rank_b2`'s matching count, charged before it
# runs as curves * (components + curves): each curve's breadth-first search
# visits every component and every curve at most once.  Chosen by
# measurement (Python 3.11.7, 2-core VM): the dearest shape per unit is a
# chain of k components of b2 1 with one more curve at its head and m
# parallel curves at its tail, which every search walks in full: about
# 40 ns per unit, so k = m = 816 (4.0 * 10^6 units) took 0.15-0.16 s and
# k = m = 1000 (6 * 10^6) 0.23-0.27 s.  Random and parallel shapes cost
# 0.3-23 ns per unit, and a large b2 costs nothing.
RANK_WORK_LIMIT = 4_000_000


class Kind(str, Enum):
    RATIONAL = "rational"
    ELLIPTIC_RULED = "elliptic_ruled"
    OTHER = "other"


_DEFAULT_H01 = {Kind.RATIONAL: 0, Kind.ELLIPTIC_RULED: 1}


@dataclass(frozen=True)
class SurfaceComponent:
    id: str
    kind: Kind
    b2: int | None = None
    h01: int | None = None
    anticanonical: frozenset = frozenset()  # curve ids with K = -(their sum)

    def resolved_h01(self):
        if self.h01 is not None:
            return self.h01
        return _DEFAULT_H01.get(self.kind)


@dataclass(frozen=True)
class DoubleCurve:
    id: str
    between: tuple  # pair of distinct component ids, order irrelevant
    genus: int

    @property
    def pair(self):
        return frozenset(self.between)


@dataclass(frozen=True)
class TriplePoint:
    id: str
    components: frozenset  # three distinct component ids


@dataclass(frozen=True)
class MarkedData:
    d0_curve: str | None = None
    c_curves: dict = field(default_factory=dict)  # component id -> tuple of chains
    pa_d: int | None = None  # declared arithmetic genus of the double locus


class DivisorConfiguration:
    """Validated SNC divisor combinatorics.

    The incidence is built once, with the validation: `pair_curves` maps
    a frozenset pair of component ids to its curve ids, `curves_at` a
    component id to the ids of the curves on it, and `adjacent` a
    component id to the set of its neighbors' ids."""

    def __init__(self, components, double_curves=(), triple_points=(), marked=None):
        comps = tuple(components)
        if not comps:
            raise ConfigError("at least one component required")
        ids = [c.id for c in comps]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate component ids")
        for c in comps:
            forced = _DEFAULT_H01.get(c.kind)
            if c.h01 is not None and forced is not None and c.h01 != forced:
                raise ConfigError(
                    f"component {c.id}: kind {c.kind.value} forces h01 = {forced}, got {c.h01}"
                )
        self.components = comps
        self.by_id = {c.id: c for c in comps}

        curves = tuple(double_curves)
        cids = [d.id for d in curves]
        if len(set(cids)) != len(cids):
            raise ConfigError("duplicate double curve ids")
        self.pair_curves = {}
        self.curves_at = {c.id: [] for c in comps}
        self.adjacent = {c.id: set() for c in comps}
        for d in curves:
            a, b = d.between
            if a == b:
                raise ConfigError(f"double curve {d.id} must join two distinct components")
            for end in d.between:
                if end not in self.by_id:
                    raise ConfigError(f"double curve {d.id} references unknown component {end!r}")
            if d.genus not in (0, 1):
                raise ConfigError(f"double curve {d.id} genus must be 0 or 1")
            if d.genus == 1:
                for end in d.between:
                    if self.by_id[end].kind is Kind.OTHER:
                        raise ConfigError(
                            f"genus-1 double curve {d.id} touches component {end!r} "
                            "of kind 'other'"
                        )
            self.pair_curves.setdefault(d.pair, []).append(d.id)
            self.curves_at[a].append(d.id)
            self.curves_at[b].append(d.id)
            self.adjacent[a].add(b)
            self.adjacent[b].add(a)
        self.double_curves = curves
        self.curve_by_id = {d.id: d for d in curves}

        triples = tuple(triple_points)
        tids = [t.id for t in triples]
        if len(set(tids)) != len(tids):
            raise ConfigError("duplicate triple point ids")
        for t in triples:
            if len(t.components) != 3:
                raise ConfigError(f"triple point {t.id} needs three distinct components")
            trio = sorted(t.components)
            for x in trio:
                if x not in self.by_id:
                    raise ConfigError(f"triple point {t.id} references unknown component {x!r}")
            for x, y in combinations(trio, 2):
                if frozenset((x, y)) not in self.pair_curves:
                    raise ConfigError(
                        f"triple point {t.id}: components {x!r}, {y!r} share no double curve"
                    )
        self.triple_points = triples

        self.marked = marked or MarkedData()
        if self.marked.d0_curve is not None and self.marked.c_curves:
            raise ConfigError(
                "ambiguous marked data: both a D0 curve and C chains are marked"
            )
        for comp_id in self.marked.c_curves:
            if comp_id not in self.by_id:
                raise ConfigError(f"marked C chains on unknown component {comp_id!r}")

        if not _is_connected(self.adjacent):
            raise ConfigError("configuration is disconnected")


def _is_connected(adj):
    """Whether the graph given as vertex -> neighbors is connected."""
    start = next(iter(adj))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for m in adj[x]:
                if m not in seen:
                    seen.add(m)
                    nxt.append(m)
        frontier = nxt
    return len(seen) == len(adj)


# -- dual complex ---------------------------------------------------------------

@dataclass(frozen=True)
class DualComplex:
    vertices: tuple
    edges: tuple          # (curve id, (comp a, comp b))
    cells: tuple          # (triple id, (edge id, edge id, edge id))
    connected: bool
    euler_characteristic: int
    h1_rank: int
    boundary_edges: tuple  # curve ids lying in exactly one 2-cell
    nonmanifold_edges: tuple  # curve ids lying in three or more 2-cells


def build_dual_complex(config: DivisorConfiguration) -> DualComplex:
    """Vertex per component, edge per double curve, triangle per triple
    point.  When parallel curves join the same pair of components, a
    triangle through that pair attaches to the lexicographically first
    curve id; first homology is computed mod 2 against that choice."""
    vertices = tuple(c.id for c in config.components)
    edges = tuple((d.id, d.between) for d in config.double_curves)
    cells = tuple(
        (t.id, tuple(min(config.pair_curves[frozenset(pair)])
                     for pair in combinations(sorted(t.components), 2)))
        for t in config.triple_points
    )

    v, e, f = len(vertices), len(edges), len(cells)
    chi = v - e + f

    edge_index = {d.id: i for i, d in enumerate(config.double_curves)}
    by_bit = {}  # mod-2 row reduction over edge bitmasks, keyed by top bit
    rank = 0
    for _, es in cells:
        row = 0
        for eid in es:
            row ^= 1 << edge_index[eid]
        while row:
            top = row.bit_length() - 1
            b = by_bit.get(top)
            if b is None:
                by_bit[top] = row
                rank += 1
                break
            row ^= b
    cycles = e - v + 1  # configuration is connected by construction
    h1 = cycles - rank

    use_count = Counter(eid for _, es in cells for eid in es)
    boundary = tuple(sorted(eid for eid, k in use_count.items() if k == 1))
    nonmanifold = tuple(sorted(eid for eid, k in use_count.items() if k > 2))

    return DualComplex(
        vertices=vertices,
        edges=edges,
        cells=cells,
        connected=True,
        euler_characteristic=chi,
        h1_rank=h1,
        boundary_edges=boundary,
        nonmanifold_edges=nonmanifold,
    )


# -- numerical invariants ---------------------------------------------------------

@dataclass
class InvariantReport:
    r: int
    n_double: int
    b2e: int | None = None
    ell: int | None = None
    h0_t1: int | None = None
    h1_t1: int | None = None
    dim_t2: int | None = None
    warnings: tuple = ()


def _require_b2(config):
    missing = [c.id for c in config.components if c.b2 is None]
    if missing:
        raise ConfigError(f"components missing b2: {missing}")


def link_invariant(config: DivisorConfiguration) -> InvariantReport:
    """b2(E) = sum b2(E_i) - #double curves, ell = b2(E) - r.

    ell is the rank of the part of H^2 of the link not forced by the
    component count; a negative value means the declared b2 data cannot
    come from an actual divisor, and is reported with a warning rather
    than an error.
    """
    _require_b2(config)
    r = len(config.components)
    n_double = len(config.double_curves)
    b2e = sum(c.b2 for c in config.components) - n_double
    ell = b2e - r
    warnings = ()
    if ell < 0:
        warnings = (
            f"ell = {ell} is negative: declared b2 data is not realizable",
        )
    return InvariantReport(
        r=r, n_double=n_double, b2e=b2e, ell=ell, warnings=warnings
    )


def restriction_rank_b2(config: DivisorConfiguration) -> int:
    """Independent recomputation of b2(E) as sum b2(E_i) minus the generic
    rank of the restriction matrix, which has one row per double curve,
    free entries on the two incident components' b2 blocks and zeros
    elsewhere.  That rank is the largest number of double curves that can
    each take a class of its own on one of their two components (Edmonds,
    1967), found with one breadth-first augmenting path per curve, so
    b2(E) is the number of classes left free.  The count is charged
    against RANK_WORK_LIMIT before it runs; past it, ConfigError."""
    _require_b2(config)
    curves = len(config.double_curves)
    comps = len(config.components)
    if curves * (comps + curves) > RANK_WORK_LIMIT:
        raise ConfigError(f"b2 rank cross-check too costly: {curves} double curves x "
                          f"({comps} components + {curves} curves) "
                          f"(over {RANK_WORK_LIMIT} units)")
    ends = [d.between for d in config.double_curves]
    free = {c.id: c.b2 for c in config.components}  # classes not yet taken
    taking = {c.id: set() for c in config.components}  # curves holding one
    for i, pair in enumerate(ends):
        # a curve holding a class of a component reached can move to its
        # other end: search breadth-first for a component with a free class
        # (the loop also visits the components it appends)
        came_from = {end: (i, None) for end in pair}
        queue = list(pair)
        for c in queue:
            if free[c]:
                break
            for j in taking[c]:
                a, b = ends[j]
                other = b if a == c else a
                if other not in came_from:
                    came_from[other] = (j, c)
                    queue.append(other)
        else:
            continue
        free[c] -= 1
        while c is not None:  # each curve on the path moves one step on
            j, prev = came_from[c]
            taking[c].add(j)
            if prev is not None:
                taking[prev].remove(j)
            c = prev
    return sum(free.values())


def deformation_dims(config: DivisorConfiguration) -> InvariantReport:
    """First-order deformation dimensions of a threefold read off the
    components: h0(T1) is the sum of the h01 values (1 per elliptic ruled
    component) and h1(T1) = dim T2 = r - 1.
    """
    h01 = [c.resolved_h01() for c in config.components]
    if None in h01:
        other = config.components[h01.index(None)]
        raise ConfigError(f"component {other.id} of kind 'other' needs h01")
    r = len(config.components)
    return InvariantReport(r=r, n_double=len(config.double_curves),
                           h0_t1=sum(h01), h1_t1=r - 1, dim_t2=r - 1)


# -- classification -----------------------------------------------------------------

class Verdict(str, Enum):
    TYPE_II = "TYPE_II"
    TYPE_III_1 = "TYPE_III_1"
    TYPE_III_2 = "TYPE_III_2"
    UNCLASSIFIED = "UNCLASSIFIED"


@dataclass(frozen=True)
class ClassificationResult:
    verdict: Verdict
    failed_clauses: tuple   # (type name, clause, reason)
    assumed_clauses: tuple  # (type name, clause, note)
    notes: tuple = ()


# The sheaf-level clauses of each shape, which no configuration decides:
# (clause, note), in report order.
_ASSUMED = {
    Verdict.TYPE_II: (
        ("i", "-K nef and big on the rational end is declared, not computed"),
        ("iii", "smoothness of the double curves is declared, not computed"),
        ("iv", "D0 smooth elliptic and disjoint from the next double curve"),
        ("v", "normal bundle condition O_E(E) = omega_E is declared"),
    ),
    Verdict.TYPE_III_1: (
        ("iii", "chains consist of smooth rational curves meeting transversally"),
        ("iv", "normal bundle condition O_E(E) = omega_E is declared"),
    ),
    Verdict.TYPE_III_2: (
        ("ii", "marked chains meet only the neighboring boundary components"),
        ("iii", "boundary cycles C_i + D_i are anticanonical cycles of rational curves"),
        ("v", "normal bundle condition O_E(E) = omega_E is declared"),
    ),
}


def _simple_path_order(config):
    """Order components along a path, or return None with a reason.

    Requires: at most one curve per adjacent pair, no cycles, degrees
    at most 2.  A single component counts as a path of length 0.
    """
    comps = [c.id for c in config.components]
    if len(comps) == 1:
        return comps, None
    for pair, ids in config.pair_curves.items():
        if len(ids) > 1:
            a, b = sorted(pair)
            return None, f"components {a!r}, {b!r} meet in more than one curve"
    deg = {c: len(config.adjacent[c]) for c in comps}
    ends = [c for c in comps if deg[c] == 1]
    if any(deg[c] > 2 for c in comps):
        bad = next(c for c in comps if deg[c] > 2)
        return None, f"component {bad!r} meets more than two others"
    if len(config.double_curves) != len(comps) - 1 or len(ends) != 2:
        return None, "adjacency graph is not a line segment"
    order = [ends[0]]
    prev = None
    while len(order) < len(comps):
        nxt = [m for m in config.adjacent[order[-1]] if m != prev]
        prev = order[-1]
        order.append(nxt[0])
    return order, None


def _cycle_defects(adj):
    """How the graph given as vertex -> neighbors falls short of a single
    cycle: the sorted vertices whose degree is not 2 and, when there are
    none, whether it splits into several cycles."""
    bad = sorted(v for v, ms in adj.items() if len(ms) != 2)
    return bad, not bad and not _is_connected(adj)


# Each rule below gives the (clause, reason) pairs it fails; classify
# prefixes them with the shape's name.

def _kind_failures(config, clause, cids, kind):
    bad = [c for c in cids if config.by_id[c].kind is not kind]
    return [(clause, f"components {bad} must be {kind.value.replace('_', ' ')}")] if bad else []


def _genus_failures(config, clause, genus):
    bad = [d.id for d in config.double_curves if d.genus != genus]
    return [(clause, f"double curves {bad} must have genus {genus}")] if bad else []


def _boundary_failures(config, clause, cids, chains):
    """The anticanonical-boundary rule that every shape checks: the
    boundary of each component in `cids` is the double curves on it plus
    the curves of its marked chains (`chains`: component id -> chains)."""
    failed = []
    for cid in cids:
        expect = set(config.curves_at[cid]).union(*chains.get(cid, ()))
        got = set(config.by_id[cid].anticanonical)
        if got != expect:
            failed.append((clause, f"component {cid!r} anticanonical boundary "
                                   f"{sorted(got)} != {sorted(expect)}"))
    return failed


def _eval_type_ii(config, order, why):
    failed = []
    oriented = None  # chain listed E_1 .. E_r with E_r the rational end
    if order is None:
        failed.append(("ii", f"dual complex is not a point or segment: {why}"))
    elif len(order) == 1:
        kind = config.by_id[order[0]].kind
        if kind is Kind.RATIONAL:
            oriented = order
        else:
            failed.append(("i", f"single component must be rational, is {kind.value}"))
    else:
        rational_ends = [c for c in (order[0], order[-1])
                         if config.by_id[c].kind is Kind.RATIONAL]
        if len(rational_ends) != 1:
            failed.append(
                ("i", "exactly one end of the chain must be the rational component "
                      f"(rational ends: {sorted(rational_ends)})")
            )
        else:
            cand = order if rational_ends[0] == order[-1] else order[::-1]
            bad_kind = _kind_failures(config, "i", cand[:-1], Kind.ELLIPTIC_RULED)
            failed += bad_kind
            if not bad_kind:
                oriented = cand

    failed += _genus_failures(config, "iii", 1)

    d0 = config.marked.d0_curve
    if d0 is None:
        failed.append(("iv", "no D0 boundary curve is marked"))
    elif oriented is not None:
        holders = [c.id for c in config.components if d0 in c.anticanonical]
        if len(holders) > 1:
            raise ConfigError(f"ambiguous marked data: two candidate D0 locations {holders}")
        # D0 is the only marked curve; it lies on E_1, the far end of the chain
        failed += _boundary_failures(config, "iv", oriented, {oriented[0]: ((d0,),)})
    return failed


def _eval_type_iii1(config, order, why):
    failed = _kind_failures(config, "i", config.by_id, Kind.RATIONAL)
    if order is None:
        failed.append(("ii", f"dual complex is not a point or segment: {why}"))
    failed += _genus_failures(config, "iii", 0)

    cc = config.marked.c_curves
    if not cc:
        failed.append(("iii", "no C chains are marked"))
    elif order is not None:
        # no chain lies off the segment: order lists every component, and
        # DivisorConfiguration rejects chains on unknown components
        if len(order) == 1:
            if not cc[order[0]]:
                failed.append(("iii", f"component {order[0]!r} needs a marked cycle C"))
        else:
            for i, cid in enumerate(order):
                have = len(cc.get(cid, ()))
                want = 1 if i in (0, len(order) - 1) else 2  # one chain on each end, two inside
                if have != want:
                    failed.append(
                        ("iii", f"component {cid!r} needs {want} marked chain(s), has {have}")
                    )
        if not any(clause == "iii" for clause, _ in failed):
            failed += _boundary_failures(config, "iii", order, cc)
    return failed


def _eval_type_iii2(config):
    """The failed clauses of TYPE_III_2 and its notes."""
    failed = _kind_failures(config, "i", config.by_id, Kind.RATIONAL)
    notes = []
    cc = config.marked.c_curves
    boundary = sorted(cc)
    if len(boundary) < 2:
        failed.append(("ii", "needs at least two boundary components with marked chains, "
                             f"has {len(boundary)}"))
    elif len(boundary) == 2:
        ids = config.pair_curves.get(frozenset(boundary), [])
        if len(ids) < 2:
            failed.append(
                ("ii", "two boundary components must meet in at least two curves "
                       f"to close the boundary cycle; they meet in {len(ids)}")
            )
        else:
            notes.append(
                f"boundary cycle of length 2 realized by parallel double curves {sorted(ids)[:2]}"
            )
    else:
        bad, split = _cycle_defects({b: config.adjacent[b] & cc.keys() for b in boundary})
        if bad:
            failed.append(("ii", f"boundary components {bad} do not meet exactly two other "
                                 "boundary components"))
        elif split:
            failed.append(("ii", "boundary components split into several cycles"))

    failed += _genus_failures(config, "iii", 0)
    failed += _boundary_failures(config, "iii", sorted(config.by_id), cc)

    dc = build_dual_complex(config)
    if dc.nonmanifold_edges:
        failed.append(
            ("iv", f"curves {list(dc.nonmanifold_edges)} lie on three or more triangles")
        )
    if dc.euler_characteristic != 1:
        failed.append(
            ("iv", f"Euler characteristic is {dc.euler_characteristic}, a disk needs 1")
        )
    if dc.h1_rank != 0:
        failed.append(("iv", f"first homology rank is {dc.h1_rank}, a disk needs 0"))
    bcycle = _boundary_cycle_vertices(config, dc)
    if bcycle is None:
        failed.append(("iv", "free edges of the complex do not form a single cycle"))
    elif boundary and bcycle != set(boundary):
        failed.append(("iv", f"boundary cycle {sorted(bcycle)} != marked components {boundary}"))
    for cid in config.by_id:
        if cid not in cc:
            why = _interior_link_failure(config, cid)
            if why:
                failed.append(("iv", f"interior component {cid!r}: {why}"))
    return failed, notes


def _boundary_cycle_vertices(config, dc):
    """Vertex set of the free-edge cycle, or None if those edges do not
    form one closed walk (every endpoint of degree exactly 2)."""
    if not dc.boundary_edges:
        return None
    adj = {}
    for eid in dc.boundary_edges:
        a, b = config.curve_by_id[eid].between
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    bad, split = _cycle_defects(adj)
    return None if bad or split else set(adj)


def _interior_link_failure(config, cid):
    """Why the link of the interior component cid is not one cycle, or None."""
    neighbors = config.adjacent[cid]
    if len(neighbors) < 3:
        return f"only {len(neighbors)} neighbors, an interior vertex needs >= 3"
    link = {m: set() for m in neighbors}
    for t in config.triple_points:
        if cid in t.components:
            a, b = t.components - {cid}
            link[a].add(b)
            link[b].add(a)
    bad, split = _cycle_defects(link)
    if bad:
        return f"link vertices {bad} do not have exactly two link edges"
    return "link splits into several cycles" if split else None


def classify(config: DivisorConfiguration) -> ClassificationResult:
    """Decide which of the three crepant-divisor shapes the configuration
    matches.  Exactly one type with no failed decidable clause gives the
    verdict; otherwise UNCLASSIFIED with every failure reported."""
    order, why = _simple_path_order(config)
    evals = {
        Verdict.TYPE_II: _eval_type_ii(config, order, why),
        Verdict.TYPE_III_1: _eval_type_iii1(config, order, why),
    }
    evals[Verdict.TYPE_III_2], notes = _eval_type_iii2(config)
    failed, assumed = [], []
    for verdict, shape_failed in evals.items():
        failed += [(verdict.value, clause, reason) for clause, reason in shape_failed]
        assumed += [(verdict.value, clause, note) for clause, note in _ASSUMED[verdict]]
    # at most one shape passes: D0 (TYPE_II) and C chains (TYPE_III) exclude each
    # other, and a segment (TYPE_III_1) has no boundary cycle or parallel pair (TYPE_III_2)
    passing = [verdict for verdict, shape_failed in evals.items() if not shape_failed]
    return ClassificationResult(
        verdict=passing[0] if passing else Verdict.UNCLASSIFIED,
        failed_clauses=tuple(failed),
        assumed_clauses=tuple(assumed),
        notes=tuple(notes),
    )


def h2_lower_bound(config: DivisorConfiguration, result: ClassificationResult | None = None) -> int:
    """Lower bound for dim H^2 of the resolved complement: r - 1 in the
    TYPE_II case, 0 for TYPE_III_1, and the declared arithmetic genus of
    the double locus for TYPE_III_2."""
    if result is None:
        result = classify(config)
    if result.verdict is Verdict.TYPE_II:
        return len(config.components) - 1
    if result.verdict is Verdict.TYPE_III_1:
        return 0
    if result.verdict is Verdict.TYPE_III_2:
        return config.marked.pa_d or 0
    raise ValueError("configuration is UNCLASSIFIED; no bound applies")


# -- semistable comparison ---------------------------------------------------------

@dataclass(frozen=True)
class SimpleElliptic:
    m: int  # multiplicity; smoothable needs m <= 9


@dataclass(frozen=True)
class Cusp:
    m: int
    s: int  # number of exceptional components in the cusp resolution cycle


@dataclass(frozen=True)
class EllCheck:
    ok: bool
    expected: int
    actual: int
    bound_ok: bool
    description: str


def semistable_ell_check(config: DivisorConfiguration, model) -> EllCheck:
    """Compare the configuration's ell against the semistable-smoothing
    prediction: ell = 9 - m for a simple elliptic singularity of
    multiplicity m, ell = 9 - m + s for a cusp."""
    rep = link_invariant(config)
    if isinstance(model, SimpleElliptic):
        expected = 9 - model.m
        bound_ok = model.m <= 9
        desc = f"simple elliptic, m = {model.m}"
    elif isinstance(model, Cusp):
        expected = 9 - model.m + model.s
        bound_ok = model.m <= 9 + model.s
        desc = f"cusp, m = {model.m}, s = {model.s}"
    else:
        raise TypeError("model must be SimpleElliptic or Cusp")
    return EllCheck(
        ok=(rep.ell == expected),
        expected=expected,
        actual=rep.ell,
        bound_ok=bound_ok,
        description=desc,
    )


# -- JSON and DOT interchange -------------------------------------------------------

_COMPONENT_KEYS = {"id", "kind", "b2", "h01", "anticanonical_boundary"}
_CURVE_KEYS = {"id", "between", "genus"}
_TRIPLE_KEYS = {"id", "components"}
_MARKED_KEYS = {"d0_curve", "c_curves", "pa_d"}


def _ident(x, what):
    if isinstance(x, str) and x:
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return str(x)
    raise ConfigError(f"{what} id must be a nonempty string or integer, got {x!r}")


def _uint(v, what):
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise ConfigError(f"{what} must be a nonnegative integer, got {v!r}")
    return v


def _objects(d, key, what):
    """d[key] (empty when absent), checked to be a list of JSON objects."""
    items = d.get(key, ())
    if not isinstance(items, (list, tuple)):
        raise ConfigError(f"{key} must be a list")
    for x in items:
        if not isinstance(x, dict):
            raise ConfigError(f"each {what} must be an object")
    return items


def _known_keys(d, allowed, what):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")


def config_from_dict(d: dict) -> DivisorConfiguration:
    if not isinstance(d, dict):
        raise ConfigError("configuration must be a JSON object")
    _known_keys(d, {"components", "double_curves", "triple_points", "marked"}, "configuration")
    if "components" not in d:
        raise ConfigError("configuration needs 'components'")

    comps = []
    for c in _objects(d, "components", "component"):
        _known_keys(c, _COMPONENT_KEYS, "component")
        try:
            kind = Kind(c.get("kind", "rational"))
        except ValueError:
            raise ConfigError(f"unknown component kind {c.get('kind')!r}") from None
        anti = c.get("anticanonical_boundary", ())
        if not isinstance(anti, (list, tuple)):
            raise ConfigError(f"anticanonical_boundary must be a list of curve ids, got {anti!r}")
        comps.append(
            SurfaceComponent(
                id=_ident(c.get("id"), "component"),
                kind=kind,
                b2=_uint(c["b2"], "b2") if "b2" in c else None,
                h01=_uint(c["h01"], "h01") if "h01" in c else None,
                anticanonical=frozenset(_ident(x, "anticanonical curve") for x in anti),
            )
        )

    curves = []
    for x in _objects(d, "double_curves", "double curve"):
        _known_keys(x, _CURVE_KEYS, "double curve")
        between = x.get("between")
        if not isinstance(between, (list, tuple)) or len(between) != 2:
            raise ConfigError(f"double curve {x.get('id')!r} needs between: [a, b]")
        curves.append(
            DoubleCurve(
                id=_ident(x.get("id"), "double curve"),
                between=tuple(_ident(e, "component") for e in between),
                genus=_uint(x.get("genus", 0), "genus"),
            )
        )

    triples = []
    for i, x in enumerate(_objects(d, "triple_points", "triple point")):
        _known_keys(x, _TRIPLE_KEYS, "triple point")
        members = x.get("components")
        if not isinstance(members, (list, tuple)) or len(members) != 3:
            raise ConfigError("each triple point needs components: [a, b, c]")
        triples.append(
            TriplePoint(
                id=_ident(x.get("id", f"T{i}"), "triple point"),
                components=frozenset(_ident(e, "component") for e in members),
            )
        )

    marked = MarkedData()
    if "marked" in d:
        m = d["marked"]
        if not isinstance(m, dict):
            raise ConfigError("marked must be an object")
        _known_keys(m, _MARKED_KEYS, "marked")
        d0 = m.get("d0_curve")
        if isinstance(d0, (list, tuple)):
            if len(d0) > 1:
                raise ConfigError(f"ambiguous marked data: two candidate D0 curves {list(d0)}")
            d0 = d0[0] if d0 else None
        cc = {}
        c_curves = m.get("c_curves") or {}
        if not isinstance(c_curves, dict):
            raise ConfigError("c_curves must be an object mapping component ids to chains")
        for comp_id, chains in c_curves.items():
            if not isinstance(chains, (list, tuple)):
                raise ConfigError("c_curves values must be lists of chains")
            norm = []
            for chain in chains:
                if isinstance(chain, str):
                    norm.append((chain,))
                elif isinstance(chain, (list, tuple)) and chain:
                    norm.append(tuple(_ident(e, "chain curve") for e in chain))
                else:
                    raise ConfigError("each chain must be a curve id or nonempty list of them")
            cc[_ident(comp_id, "component")] = tuple(norm)
        marked = MarkedData(
            d0_curve=_ident(d0, "D0 curve") if d0 is not None else None,
            c_curves=cc,
            pa_d=_uint(m["pa_d"], "pa_d") if "pa_d" in m else None,
        )

    return DivisorConfiguration(comps, curves, triples, marked)


def config_to_dot(config: DivisorConfiguration) -> str:
    """Deterministic DOT rendering: one node per component (label
    id|kind|b2), one edge per double curve (label id:genus), sorted by id."""
    lines = ["graph dual_complex {"]
    for c in sorted(config.components, key=lambda c: c.id):
        b2 = "?" if c.b2 is None else str(c.b2)
        lines.append(f'  "{c.id}" [label="{c.id}|{c.kind.value}|b2={b2}"];')
    for d in sorted(config.double_curves, key=lambda d: d.id):
        a, b = d.between
        lines.append(f'  "{a}" -- "{b}" [label="{d.id}:g{d.genus}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
