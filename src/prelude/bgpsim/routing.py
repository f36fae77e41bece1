"""Stable route selection under the Gao–Rexford conditions.

Two rules decide the stable state.  Preference: an AS takes the route of
the most preferred class (its own, then customer-learned, peer-learned,
provider-learned), then the shorter AS path, then the lower next-hop AS
number.  Export (:func:`exports`): an AS announces its own and
customer-learned routes to every neighbour, the rest only to customers.

:func:`compute_routes` finds that state with one best-first search.  Each
offer is keyed by the preference order, and an offer is never better than
the route that made it, so the first offer an AS takes off the heap is the
best it will ever be made.
"""

from __future__ import annotations

import heapq
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


def exports(klass: str, to_customer: bool) -> bool:
    """Does a route of ``klass`` go to a neighbour?  Own and customer-learned
    routes go to everyone; the rest go only to customers."""
    return to_customer or klass in (ORIGIN, CUSTOMER)


def compute_routes(graph: AsGraph, origin: int) -> RibState:
    """Return the stable selected route of every AS toward ``origin``."""
    if origin not in graph:
        raise ValueError(f"origin AS {origin} not in graph")
    sel: dict[int, Route] = {}
    # (-preference, path length, next hop, receiver, class it receives)
    offers = [(-PREFERENCE[ORIGIN], 1, origin, origin, ORIGIN)]
    while offers:
        _, length, hop, asn, klass = heapq.heappop(offers)
        if asn in sel:
            continue
        path = (asn,) + (sel[hop].as_path if hop != asn else ())
        sel[asn] = Route(asn, path, klass)
        # A customer receives the route as a provider route, and so on.
        for received, neighbours in ((PROVIDER, graph.customers(asn)),
                                     (PEER, graph.peers(asn)),
                                     (CUSTOMER, graph.providers(asn))):
            if exports(klass, to_customer=received == PROVIDER):
                for v in neighbours:
                    if v not in sel:
                        heapq.heappush(offers, (-PREFERENCE[received],
                                                length + 1, asn, v, received))
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
