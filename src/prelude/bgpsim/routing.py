"""Stable route selection under the standard economic routing conditions.

Selection preference: routes learned from customers beat routes from peers
beat routes from providers; ties break on shorter AS path, then lower
next-hop AS number.  Export: an AS announces customer-learned (and its own)
routes to everybody but peer- and provider-learned routes only to customers.
The stable state is computed in three waves: customer routes climb the
hierarchy from the origin, peer routes take a single sideways step, provider
routes flow downhill from everything reached so far.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from prelude.bgpsim.topology import CUSTOMER, PEER, PROVIDER, AsGraph

ORIGIN = "origin"

PREFERENCE = {ORIGIN: 3, CUSTOMER: 2, PEER: 1, PROVIDER: 0}


@dataclass(frozen=True)
class Route:
    """The route one AS selected: its full forwarding path to the origin."""

    asn: int
    as_path: tuple[int, ...]
    klass: str

    @property
    def next_hop(self) -> int:
        """The neighbor traffic is handed to; the origin hands to itself."""
        return self.as_path[1] if len(self.as_path) > 1 else self.asn

    @property
    def announced_path(self) -> tuple[int, ...]:
        """The path as learned from the neighbor (empty at the origin)."""
        return self.as_path[1:]


@dataclass
class RibState:
    """Selected routes of every AS that can reach one origin."""

    origin: int
    routes: dict[int, Route] = field(default_factory=dict)

    def get(self, asn: int) -> Route | None:
        return self.routes.get(asn)

    def path(self, asn: int) -> tuple[int, ...]:
        route = self.routes.get(asn)
        return route.as_path if route else ()


def compute_routes(graph: AsGraph, origin: int) -> RibState:
    """Return the stable selected route of every AS toward ``origin``."""
    if origin not in graph:
        raise ValueError(f"origin AS {origin} not in graph")
    sel: dict[int, Route] = {origin: Route(origin, (origin,), ORIGIN)}

    # Wave 1: customer routes, breadth-first up the provider edges.  Every
    # AS in a level learned the shortest possible customer path; among
    # same-level children the lowest AS id wins the tie.
    level = [origin]
    while level:
        best_child: dict[int, int] = {}
        for v in level:
            for u in graph.providers(v):
                if u in sel:
                    continue
                if u not in best_child or v < best_child[u]:
                    best_child[u] = v
        level = []
        for u, v in sorted(best_child.items()):
            sel[u] = Route(u, (u,) + sel[v].as_path, CUSTOMER)
            level.append(u)

    # Wave 2: one sideways step.  Only customer-or-own routes cross peer
    # edges, and those are all final now, so a single pass suffices.
    sideways: dict[int, int] = {}
    for u in graph.as_ids:
        if u in sel:
            continue
        best: tuple[int, int] | None = None
        for v in graph.peers(u):
            r = sel.get(v)
            if r is not None and r.klass in (ORIGIN, CUSTOMER):
                key = (len(r.as_path), v)
                if best is None or key < best:
                    best = key
        if best is not None:
            sideways[u] = best[1]
    for u, v in sorted(sideways.items()):
        sel[u] = Route(u, (u,) + sel[v].as_path, PEER)

    # Wave 3: provider routes flow down customer edges from everything
    # reached so far; shortest-first rounds keep the selection stable.
    while True:
        candidates: dict[int, tuple[int, int]] = {}
        for u in graph.as_ids:
            if u in sel:
                continue
            best = None
            for v in graph.providers(u):
                r = sel.get(v)
                if r is not None:
                    key = (len(r.as_path) + 1, v)
                    if best is None or key < best:
                        best = key
            if best is not None:
                candidates[u] = best
        if not candidates:
            break
        shortest = min(key[0] for key in candidates.values())
        for u, (length, v) in sorted(candidates.items()):
            if length == shortest:
                sel[u] = Route(u, (u,) + sel[v].as_path, PROVIDER)

    return RibState(origin=origin, routes=sel)


def traversed_sdxes(path, sites) -> list[int]:
    """Exchange ids whose fabric the path crosses, in path order.

    An exchange is crossed at position i when two consecutive ASes of the
    path are both among its members.
    """
    ordered = sorted(sites, key=lambda s: s.sdx_id)
    out: list[int] = []
    for a, b in zip(path, path[1:]):
        for site in ordered:
            if a in site.members and b in site.members:
                out.append(site.sdx_id)
    return out
