"""Domain types for overlay topologies, traffic classes, routes and utilities.

Rates are real Mbps throughout; there is no packet-level accounting here.
All types are plain values and all functions are pure, but for two memos a ``Topology``
shares with its copies of the same links: a breadth-first tree per source and the routes
found overlay-simple.  A topology is frozen, its nodes and links read-only, and a race
only repeats a deterministic fill, so this module is safe to share across threads.
"""
from __future__ import annotations

import math
import numbers
import random
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import permutations
from types import MappingProxyType

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
        check_capacity(self.capacity_mbps, f"link {self.id!r}")
        # Stored as a float, so equal links (and the caches keyed by them) write equal JSON.
        object.__setattr__(self, "capacity_mbps", float(self.capacity_mbps))


def read_only(mapping: Mapping) -> Mapping:
    """The one freezing rule: a read-only copy of ``mapping``, which later edits to the caller's dict miss."""
    return MappingProxyType(dict(mapping))


def check_capacity(value: float, owner: str) -> None:
    """The one capacity rule: a number, not a bool, that is finite (so not NaN) and > 0."""
    if ((type(value) is not float and (isinstance(value, bool) or not isinstance(value, numbers.Real)))
            or not (math.isfinite(value) and value > 0)):
        raise ModelError(f"{owner} requires a finite capacity_mbps > 0, got {value!r}")


def check_sessions(n: int, owner: str, name: str = "n") -> None:
    """The one session-count rule: an int >= 0."""
    # type() rather than isinstance(), so that a bool (JSON true) is not 1 session.
    if not (type(n) is int and n >= 0):
        raise ModelError(f"{owner} requires an integer {name} >= 0, got {n!r}")


def check_id(value: str, what: str) -> None:
    """The one id rule: a non-empty str with no ``,``, ``"``, CR or LF, so it is one CSV field."""
    if not (isinstance(value, str) and value and frozenset(',"\r\n').isdisjoint(value)):
        raise ModelError(f"{what} must be a non-empty string without , \" CR or LF, got {value!r}")


def json_object(value, what: str) -> dict:
    """``value`` if it is a JSON object; the JSON readers call this before ``.get``."""
    if not isinstance(value, dict):
        raise ModelError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def json_number(value, what: str) -> float:
    """``value`` as a float if it is a JSON number; ``true`` and ``"0.5"`` are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelError(f"{what} must be a JSON number, got {value!r}")
    return float(value)


def json_bool(value, what: str) -> bool:
    """``value`` if it is a JSON boolean; ``"false"``, ``0`` and ``null`` are not."""
    if not isinstance(value, bool):
        raise ModelError(f"{what} must be a JSON boolean, got {value!r}")
    return value


def link_id(src: str, dst: str) -> str:
    return f"{src}->{dst}"


@dataclass(frozen=True)
class Topology:
    """Directed links between nodes; nodes are tagged ``site`` or ``router``.

    A second instance of the same type holds the planner's *estimate* of the
    network when estimate and truth differ.  ``out_links`` maps each node to its
    outgoing links sorted by far end.  A topology is frozen, with ``nodes`` stored as a
    read-only mapping and ``links`` as a tuple, so the memos hold: ``tree``'s one search
    per source and the routes found overlay-simple.  None is a field; ``with_capacities``
    copies share them.
    """

    name: str
    nodes: Mapping[str, str]  # node id -> SITE | ROUTER
    links: tuple[Link, ...] = ()

    def __post_init__(self):
        # The dataclass is frozen, so attributes are set through object.__setattr__.
        object.__setattr__(self, "nodes", read_only(self.nodes))
        object.__setattr__(self, "links", tuple(self.links))
        seen: set[tuple[str, str]] = set()
        check_id(self.name, "topology name")
        for node, kind in self.nodes.items():
            check_id(node, "node id")
            if kind not in (SITE, ROUTER):
                raise ModelError(f"unknown node kind {kind!r}")
        for ln in self.links:
            if ln.src not in self.nodes or ln.dst not in self.nodes:
                raise ModelError(f"link {ln.id!r} references unknown node")
            pair = (ln.src, ln.dst)
            if pair in seen:
                raise ModelError(f"duplicate directed link {pair}")
            seen.add(pair)
        object.__setattr__(self, "_by_id", {ln.id: ln for ln in self.links})
        if len(self._by_id) != len(self.links):
            raise ModelError("duplicate link id")
        out: dict[str, list[Link]] = {n: [] for n in self.nodes}
        for ln in sorted(self.links, key=lambda ln: ln.dst):
            out[ln.src].append(ln)
        object.__setattr__(self, "out_links", {n: tuple(lns) for n, lns in out.items()})
        object.__setattr__(self, "_trees", {})  # source -> its breadth-first tree
        object.__setattr__(self, "_simple", set())  # routes found overlay-simple

    # -- lookups -----------------------------------------------------------

    def link(self, lid: str) -> Link:
        try:
            return self._by_id[lid]
        except KeyError:
            raise ModelError(f"unknown link id {lid!r}") from None

    def sites(self) -> list[str]:
        return sorted(n for n, k in self.nodes.items() if k == SITE)

    def tree(self, src: str) -> dict[str, str | None]:
        """Each node reachable from ``src`` -> the id of the link a breadth-first
        search first reaches it by (None for ``src``); searched once, on first use."""
        via = self._trees.get(src)
        if via is None:
            via, queue = {src: None}, [src]
            for node in queue:  # first in, first out: the list grows as it is read
                for ln in self.out_links.get(node, ()):
                    if ln.dst not in via:
                        via[ln.dst] = ln.id
                        queue.append(ln.dst)
            self._trees[src] = via
        return via

    def with_capacities(self, overrides: dict[str, float]) -> "Topology":
        """A copy with some link capacities replaced; unchanged (frozen) links and the memos are shared."""
        for lid in overrides:
            self.link(lid)
        links = [
            Link(ln.id, ln.src, ln.dst, overrides[ln.id]) if ln.id in overrides else ln
            for ln in self.links
        ]
        copy = Topology(self.name, self.nodes, links)
        object.__setattr__(copy, "_trees", self._trees)
        object.__setattr__(copy, "_simple", self._simple)
        return copy

    # -- JSON --------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "nodes": [{"id": n, "kind": k} for n, k in sorted(self.nodes.items())],
            "links": [
                {"src": ln.src, "dst": ln.dst, "capacity_mbps": ln.capacity_mbps}
                for ln in self.links
            ],
            "directed": True,
        }

    @staticmethod
    def from_json_dict(obj: dict) -> "Topology":
        """Read a topology; a top-level ``directed`` is each link's default."""
        nodes: dict[str, str] = {}
        for n in obj["nodes"]:
            if n["id"] in nodes:
                raise ModelError(f"duplicate node id {n['id']!r}")
            nodes[n["id"]] = n.get("kind", ROUTER)
        links: list[Link] = []
        directed = json_bool(obj.get("directed", False), "directed")
        for e in obj["links"]:
            src, dst, cap = e["src"], e["dst"], json_number(e["capacity_mbps"], "capacity_mbps")
            if json_bool(e.get("directed", directed), "link directed"):
                pairs = [(src, dst)]
            else:
                # Undirected input edges expand to two directed links.
                pairs = [(src, dst), (dst, src)]
            for a, b in pairs:
                links.append(Link(link_id(a, b), a, b, cap))
        return Topology(obj.get("name", "unnamed"), nodes, links)


@dataclass(frozen=True)
class Piece:
    """One linear piece of a utility: value a*x + b on (x_lo, x_hi]."""

    x_lo: float
    x_hi: float  # may be INF
    a: float
    b: float

    def value(self, x: float) -> float:
        return self.a * x + self.b


@dataclass(frozen=True)
class PiecewiseLinearUtility:
    """Non-decreasing piecewise-linear utility over rates in [0, inf).

    Pieces tile [0, inf) without gaps.  At a breakpoint the *left* piece's
    value is used, so upward jump discontinuities are representable while
    downward jumps are rejected.  A utility is frozen and keeps its pieces as a
    tuple, so the tiling holds for as long as it lives.
    """

    pieces: tuple[Piece, ...]

    def __post_init__(self):
        pieces = tuple(self.pieces)
        object.__setattr__(self, "pieces", pieces)
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
            if not (math.isfinite(p.a) and math.isfinite(p.b)):
                raise ModelError(f"slope and intercept must be finite, got {p.a}, {p.b}")
            if p.a < 0:
                raise ModelError("utility must be non-decreasing (slope < 0)")
        for p, q in zip(pieces, pieces[1:]):
            left = p.value(p.x_hi)
            right_limit = q.value(p.x_hi)
            if right_limit < left - 1e-12:
                raise ModelError("downward jump at breakpoint")

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
            return PiecewiseLinearUtility.linear(json_number(obj["linear"], "utility linear"))

        def num(v) -> float:
            return json_number(v, "a utility piece entry")

        pieces = [
            Piece(num(lo), INF if hi is None else num(hi), num(a), num(b))
            for lo, hi, a, b in obj["pieces"]
        ]
        return PiecewiseLinearUtility(pieces)


@dataclass(frozen=True)
class TrafficClass:
    """Sessions of one type between a source and a destination site."""

    id: str
    src: str
    dst: str
    max_sessions: int
    utility: PiecewiseLinearUtility

    def __post_init__(self):
        check_id(self.id, "class id")
        if self.src == self.dst:
            raise ModelError(f"class {self.id!r}: src == dst")
        check_sessions(self.max_sessions, f"class {self.id!r}", "max_sessions")

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "src": self.src,
            "dst": self.dst,
            "max_sessions": self.max_sessions,
            "utility": self.utility.to_json_dict(),
        }

    @staticmethod
    def from_json_dict(obj: dict) -> "TrafficClass":
        """Read a class; ``max_sessions`` is optional and defaults to 1."""
        return TrafficClass(
            obj["id"],
            obj["src"],
            obj["dst"],
            obj.get("max_sessions", 1),
            PiecewiseLinearUtility.from_json_dict(obj["utility"]),
        )


@dataclass(frozen=True)
class Flow:
    """A (class, route) pair; route is an ordered list of link ids."""

    id: str
    class_id: str
    route: tuple[str, ...]

    def validate(self, topology: Topology, cls: TrafficClass) -> None:
        check_id(self.id, "flow id")
        fault = _route_fault(topology, self.route)
        if fault is None and (
            topology.link(self.route[0]).src != cls.src
            or topology.link(self.route[-1]).dst != cls.dst
        ):
            fault = "route does not join class endpoints"
        if fault is not None:
            raise ModelError(f"flow {self.id!r}: {fault}")


def numbered_flows(class_id: str, routes) -> list[Flow]:
    """One class's flows over ``routes``, in order, with ids ``<class id>:<index>``."""
    return [Flow(f"{class_id}:{i}", class_id, tuple(r)) for i, r in enumerate(routes)]


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
        total += nk * by_id[k].utility.value(agg_rates.get(k, 0.0))
    return total


# -- path enumeration ------------------------------------------------------


def shortest_leg(topology: Topology, src: str, dst: str) -> list[str] | None:
    """Shortest underlay path (in links) from src to dst as link ids, read off ``topology.tree``.

    Ties break on the lexicographically smallest node-id sequence: the
    breadth-first search scans each level in that order and each node's
    ``out_links`` by far end, so the first link to reach a node ends the
    smallest shortest sequence to it.
    """
    via = topology.tree(src)
    if dst not in via:
        return None
    route: list[str] = []
    while (lid := via[dst]) is not None:
        route.append(lid)
        dst = topology.link(lid).src
    return route[::-1]


def enumerate_paths(
    topology: Topology,
    src: str,
    dst: str,
    max_overlay_hops: int,
) -> list[tuple[str, ...]]:
    """All simple routes from src to dst with at most the given overlay hops.

    An overlay hop is one site-to-site leg; the underlay portion of each leg
    follows the shortest path (``shortest_leg``).  Site sequences are tried by
    hop count and, within a count, in lexicographic order of their relay
    sites, and a route is listed once, at the first sequence that builds it.
    So the result for h hops is a prefix of the result for h+1.  A src or dst
    that is not a topology node is a ``ModelError``.
    """
    if max_overlay_hops < 1:
        raise ModelError("max_overlay_hops must be >= 1")
    for what, node in (("src", src), ("dst", dst)):
        if node not in topology.nodes:
            raise ModelError(f"{what} {node!r} is not a topology node")
    relays = [s for s in topology.sites() if s not in (src, dst)]
    legs: dict[tuple[str, str], list[str] | None] = {}
    routes: dict[tuple[str, ...], None] = {}  # insertion-ordered set
    for hops in range(1, min(max_overlay_hops, len(relays) + 1) + 1):
        for via in permutations(relays, hops - 1):  # lexicographic: relays are sorted
            seq = (src, *via, dst)
            route: list[str] = []
            for ab in zip(seq, seq[1:]):
                if ab not in legs:
                    legs[ab] = shortest_leg(topology, *ab)
                if legs[ab] is None:
                    break
                route += legs[ab]
            else:
                key = tuple(route)
                if key not in routes and _route_fault(topology, key) is None:
                    routes[key] = None
    return list(routes)


def _route_fault(topology: Topology, route) -> str | None:
    """Why a route is not overlay-simple, or None if it is; ``topology`` remembers the simple ones.

    Overlay-simple: non-empty, connected, no repeated directed link, no
    repeated site.  Routers may repeat — relaying through an intermediate site
    necessarily re-crosses the relay's router on the way back to the core.
    """
    if not route:
        return "empty route"
    if (key := tuple(route)) in topology._simple:
        return None
    if len(set(route)) != len(route):
        return "route repeats a link"
    ln = topology.link(route[0])
    nodes = [ln.src, ln.dst]
    for lid in route[1:]:
        ln = topology.link(lid)
        if ln.src != nodes[-1]:
            return "route is not connected"
        nodes.append(ln.dst)
    sites = [n for n in nodes if topology.nodes[n] == SITE]
    if len(set(sites)) != len(sites):
        return "route revisits a site"
    topology._simple.add(key)
    return None


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
