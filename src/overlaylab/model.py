"""Domain types for overlay topologies, traffic classes, routes and utilities.

Rates are real Mbps throughout; there is no packet-level accounting here.
All types are plain values and all functions are pure, so everything in this
module is safe to share across threads.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

INF = math.inf

SITE = "site"
ROUTER = "router"


class ModelError(ValueError):
    """Raised when a domain invariant is violated."""


@dataclass(frozen=True)
class Link:
    """A directed underlay link with a capacity in Mbps."""

    id: str
    src: str
    dst: str
    capacity_mbps: float

    def __post_init__(self):
        if self.src == self.dst:
            raise ModelError(f"link {self.id!r}: self-loop {self.src!r}")
        if not (self.capacity_mbps > 0):
            raise ModelError(
                f"link {self.id!r}: capacity must be > 0, got {self.capacity_mbps}"
            )


def link_id(src: str, dst: str) -> str:
    return f"{src}->{dst}"


@dataclass
class Topology:
    """Directed links between nodes; nodes are tagged ``site`` or ``router``.

    A second instance of the same type holds the planner's *estimate* of the
    network when estimate and truth differ.
    """

    name: str
    nodes: dict[str, str]  # node id -> SITE | ROUTER
    links: list[Link] = field(default_factory=list)

    def __post_init__(self):
        seen: set[tuple[str, str]] = set()
        for kind in self.nodes.values():
            if kind not in (SITE, ROUTER):
                raise ModelError(f"unknown node kind {kind!r}")
        for ln in self.links:
            if ln.src not in self.nodes or ln.dst not in self.nodes:
                raise ModelError(f"link {ln.id!r} references unknown node")
            pair = (ln.src, ln.dst)
            if pair in seen:
                raise ModelError(f"duplicate directed link {pair}")
            seen.add(pair)
        self._by_id = {ln.id: ln for ln in self.links}
        if len(self._by_id) != len(self.links):
            raise ModelError("duplicate link id")

    # -- lookups -----------------------------------------------------------

    def link(self, lid: str) -> Link:
        try:
            return self._by_id[lid]
        except KeyError:
            raise ModelError(f"unknown link id {lid!r}") from None

    def has_link(self, lid: str) -> bool:
        return lid in self._by_id

    def sites(self) -> list[str]:
        return sorted(n for n, k in self.nodes.items() if k == SITE)

    def routers(self) -> list[str]:
        return sorted(n for n, k in self.nodes.items() if k == ROUTER)

    def out_neighbors(self, node: str) -> list[tuple[str, Link]]:
        return sorted(
            ((ln.dst, ln) for ln in self.links if ln.src == node),
            key=lambda t: t[0],
        )

    def capacities(self) -> dict[str, float]:
        return {ln.id: ln.capacity_mbps for ln in self.links}

    def with_capacities(self, overrides: dict[str, float]) -> "Topology":
        """A copy with some link capacities replaced."""
        for lid in overrides:
            self.link(lid)
        links = [
            Link(ln.id, ln.src, ln.dst, overrides.get(ln.id, ln.capacity_mbps))
            for ln in self.links
        ]
        return Topology(self.name, dict(self.nodes), links)

    # -- JSON --------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "nodes": [{"id": n, "kind": k} for n, k in sorted(self.nodes.items())],
            "links": [
                {"src": ln.src, "dst": ln.dst, "capacity_mbps": ln.capacity_mbps}
                for ln in self.links
            ],
        }

    @staticmethod
    def from_json_dict(obj: dict) -> "Topology":
        nodes = {n["id"]: n.get("kind", ROUTER) for n in obj["nodes"]}
        links: list[Link] = []
        seen: set[tuple[str, str]] = set()
        for e in obj["links"]:
            src, dst, cap = e["src"], e["dst"], float(e["capacity_mbps"])
            if e.get("directed"):
                pairs = [(src, dst)]
            else:
                # Undirected input edges expand to two directed links.
                pairs = [(src, dst), (dst, src)]
            for a, b in pairs:
                if (a, b) in seen:
                    raise ModelError(f"duplicate directed link ({a}, {b})")
                seen.add((a, b))
                links.append(Link(link_id(a, b), a, b, cap))
        return Topology(obj.get("name", "unnamed"), nodes, links)

    @staticmethod
    def from_json(text: str) -> "Topology":
        return Topology.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class Piece:
    """One linear piece of a utility: value a*x + b on (x_lo, x_hi]."""

    x_lo: float
    x_hi: float  # may be INF
    a: float
    b: float

    def value(self, x: float) -> float:
        return self.a * x + self.b


class PiecewiseLinearUtility:
    """Non-decreasing piecewise-linear utility over rates in [0, inf).

    Pieces tile [0, inf) without gaps.  At a breakpoint the *left* piece's
    value is used, so upward jump discontinuities are representable while
    downward jumps are rejected.
    """

    def __init__(self, pieces: list[Piece]):
        if not pieces:
            raise ModelError("utility needs at least one piece")
        if pieces[0].x_lo != 0.0:
            raise ModelError("first piece must start at 0")
        if pieces[-1].x_hi != INF:
            raise ModelError("last piece must extend to infinity")
        for p, q in zip(pieces, pieces[1:]):
            if p.x_hi != q.x_lo:
                raise ModelError("pieces must tile [0, inf) without gaps")
        for p in pieces:
            if not p.x_lo < p.x_hi:
                raise ModelError("empty piece")
            if p.a < 0:
                raise ModelError("utility must be non-decreasing (slope < 0)")
        for p, q in zip(pieces, pieces[1:]):
            left = p.value(p.x_hi)
            right_limit = q.value(p.x_hi)
            if right_limit < left - 1e-12:
                raise ModelError("downward jump at breakpoint")
        if not math.isfinite(pieces[0].value(0.0)):
            raise ModelError("U(0) must be finite")
        self.pieces = list(pieces)

    @staticmethod
    def linear(slope: float) -> "PiecewiseLinearUtility":
        return PiecewiseLinearUtility([Piece(0.0, INF, slope, 0.0)])

    @staticmethod
    def from_points(points: list[tuple[float, float, float]]) -> "PiecewiseLinearUtility":
        """Build from (x_lo, a, b) triples; x_hi is the next x_lo."""
        pieces = []
        for i, (lo, a, b) in enumerate(points):
            hi = points[i + 1][0] if i + 1 < len(points) else INF
            pieces.append(Piece(lo, hi, a, b))
        return PiecewiseLinearUtility(pieces)

    def piece_at(self, x: float) -> Piece:
        """The piece whose value applies at x (left semantics at breakpoints)."""
        if not math.isfinite(x):
            raise ModelError(f"rate must be finite, got {x}")
        if x < 0:
            raise ModelError(f"rate must be >= 0, got {x}")
        for p in self.pieces:
            if x <= p.x_hi:
                return p
        raise AssertionError("unreachable: pieces tile [0, inf)")

    def value(self, x: float) -> float:
        return self.piece_at(x).value(x)

    def slope_range(self, x: float) -> tuple[float, float]:
        """Interval of one-sided slopes at x; upper is +inf at an upward jump."""
        p = self.piece_at(x)
        if x != p.x_hi or p.x_hi == INF:
            return (p.a, p.a)
        # x is the shared breakpoint of p and its successor
        q = self.pieces[self.pieces.index(p) + 1]
        if q.value(x) > p.value(x) + 1e-12:
            return (min(p.a, q.a), INF)  # upward jump: right derivative unbounded
        return (min(p.a, q.a), max(p.a, q.a))

    def is_linear_through_origin(self) -> bool:
        return len(self.pieces) == 1 and self.pieces[0].b == 0.0

    def to_json_dict(self) -> dict:
        return {
            "pieces": [
                [p.x_lo, None if p.x_hi == INF else p.x_hi, p.a, p.b]
                for p in self.pieces
            ]
        }

    @staticmethod
    def from_json_dict(obj: dict) -> "PiecewiseLinearUtility":
        if "linear" in obj:
            return PiecewiseLinearUtility.linear(float(obj["linear"]))
        pieces = [
            Piece(float(lo), INF if hi is None else float(hi), float(a), float(b))
            for lo, hi, a, b in obj["pieces"]
        ]
        return PiecewiseLinearUtility(pieces)

    def __eq__(self, other):
        return isinstance(other, PiecewiseLinearUtility) and self.pieces == other.pieces

    def __repr__(self):
        return f"PiecewiseLinearUtility({self.pieces!r})"


@dataclass
class TrafficClass:
    """Sessions of one type between a source and a destination site."""

    id: str
    src: str
    dst: str
    max_sessions: int
    utility: PiecewiseLinearUtility

    def __post_init__(self):
        if self.src == self.dst:
            raise ModelError(f"class {self.id!r}: src == dst")
        if self.max_sessions < 0:
            raise ModelError(f"class {self.id!r}: max_sessions < 0")


@dataclass(frozen=True)
class Flow:
    """A (class, route) pair; route is an ordered list of link ids."""

    id: str
    class_id: str
    route: tuple[str, ...]

    def validate(self, topology: Topology, cls: TrafficClass) -> None:
        if not self.route:
            raise ModelError(f"flow {self.id!r}: empty route")
        if len(set(self.route)) != len(self.route):
            raise ModelError(f"flow {self.id!r}: route repeats a link")
        nodes = [topology.link(self.route[0]).src]
        for lid in self.route:
            ln = topology.link(lid)
            if ln.src != nodes[-1]:
                raise ModelError(f"flow {self.id!r}: route is not connected")
            nodes.append(ln.dst)
        sites = [n for n in nodes if topology.nodes[n] == SITE]
        if len(set(sites)) != len(sites):
            raise ModelError(f"flow {self.id!r}: route revisits a site")
        if nodes[0] != cls.src or nodes[-1] != cls.dst:
            raise ModelError(f"flow {self.id!r}: route does not join class endpoints")


def eval_utility(u: PiecewiseLinearUtility, x: float) -> float:
    """Utility of one session at rate x (left-piece value at breakpoints)."""
    return u.value(x)


def cumulative_utility(
    classes: list[TrafficClass],
    n: dict[str, int],
    agg_rates: dict[str, float],
) -> float:
    """Total utility sum over classes of sessions times per-session utility."""
    by_id = {c.id: c for c in classes}
    total = 0.0
    for k, nk in n.items():
        if k not in by_id:
            raise ModelError(f"unknown class id {k!r}")
        if nk == 0:
            continue
        total += nk * eval_utility(by_id[k].utility, agg_rates.get(k, 0.0))
    return total


# -- path enumeration ------------------------------------------------------


def shortest_leg(topology: Topology, src: str, dst: str) -> list[str] | None:
    """Shortest underlay path (in links) from src to dst as link ids.

    Ties break on the lexicographically smallest node-id sequence.
    """
    if src == dst:
        return []
    # BFS distances from every node to dst, then greedy lexicographic descent.
    dist = {dst: 0}
    frontier = [dst]
    preds: dict[str, list[tuple[str, Link]]] = {}
    for ln in topology.links:
        preds.setdefault(ln.dst, []).append((ln.src, ln))
    while frontier:
        nxt = []
        for v in frontier:
            for u, _ in preds.get(v, []):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    if src not in dist:
        return None
    route: list[str] = []
    node = src
    while node != dst:
        step = None
        for nbr, ln in topology.out_neighbors(node):
            if dist.get(nbr, INF) == dist[node] - 1:
                step = (nbr, ln)
                break  # out_neighbors is sorted, first hit is lexicographic min
        assert step is not None
        route.append(step[1].id)
        node = step[0]
    return route


def enumerate_paths(
    topology: Topology,
    src: str,
    dst: str,
    max_overlay_hops: int,
    site_set: list[str] | None = None,
) -> list[tuple[str, ...]]:
    """All simple routes from src to dst with at most the given overlay hops.

    An overlay hop is one site-to-site leg; the underlay portion of each leg
    follows the shortest path.  Output is ordered by hop count then
    lexicographically, so the result for h hops is a prefix-closed subset of
    the result for h+1.
    """
    if max_overlay_hops < 1:
        raise ModelError("max_overlay_hops must be >= 1")
    sites = sorted(site_set) if site_set is not None else topology.sites()
    intermediates = [s for s in sites if s not in (src, dst)]

    legs: dict[tuple[str, str], list[str] | None] = {}

    def leg(a: str, b: str):
        if (a, b) not in legs:
            legs[(a, b)] = shortest_leg(topology, a, b)
        return legs[(a, b)]

    results: list[tuple[int, tuple[str, ...], tuple[str, ...]]] = []
    seen_routes: set[tuple[str, ...]] = set()

    def recurse(prefix: list[str], hops_left: int):
        emit(prefix + [dst])
        if hops_left <= 1:
            return
        for s in intermediates:
            if s not in prefix:
                recurse(prefix + [s], hops_left - 1)

    def emit(seq: list[str]):
        route: list[str] = []
        for a, b in zip(seq, seq[1:]):
            part = leg(a, b)
            if part is None:
                return
            route.extend(part)
        if not route or not _is_simple(topology, route):
            return
        key = tuple(route)
        if key in seen_routes:
            return
        seen_routes.add(key)
        results.append((len(seq) - 1, tuple(seq), key))

    recurse([src], max_overlay_hops)
    results.sort(key=lambda t: (t[0], t[1]))
    return [r for _, _, r in results]


def _is_simple(topology: Topology, route: list[str]) -> bool:
    """Overlay-simple: connected, no repeated directed link, no repeated site.

    Routers may repeat — relaying through an intermediate site necessarily
    re-crosses the relay's router on the way back to the core.
    """
    if not route or len(set(route)) != len(route):
        return False
    nodes = [topology.link(route[0]).src]
    for lid in route:
        ln = topology.link(lid)
        if ln.src != nodes[-1]:
            return False
        nodes.append(ln.dst)
    sites = [n for n in nodes if topology.nodes[n] == SITE]
    return len(set(sites)) == len(sites)


def sample_random_paths(
    all_indirect_paths: list[tuple[str, ...]],
    count: int,
    seed: int,
) -> list[tuple[str, ...]]:
    """Uniform sample without replacement, stable order, deterministic by seed."""
    if count < 0:
        raise ModelError("count must be >= 0")
    if count >= len(all_indirect_paths):
        return list(all_indirect_paths)
    rng = random.Random(seed)
    picked = rng.sample(range(len(all_indirect_paths)), count)
    return [all_indirect_paths[i] for i in sorted(picked)]
