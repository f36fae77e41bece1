"""A hand-built two-exchange topology where deflections can loop.

Five ASes, two exchanges, one announced prefix.  A and B are members of
exchange 1, N and M of exchange 2.  N buys transit from A, Z from N and
from B, B from M; A peers with B on the first fabric and N with M on the
second.  With traffic for Z's prefix, A selects the customer path through
N while M selects the customer path through B.

Two web-traffic deflections close the circle: B hands port-80 traffic to A
on exchange 1 (instead of delivering straight to Z) and N hands it to M on
exchange 2.  Port-80 packets then ride B, A, N, M, B forever while all
other traffic is unaffected.  Each deflection on its own is harmless.
"""

from __future__ import annotations

from dataclasses import dataclass

from prelude.bgpsim.policies import DeflectionPolicy
from prelude.bgpsim.routing import RibState, compute_routes
from prelude.bgpsim.topology import AsGraph, SdxSite
from prelude.rules import FlowSpec, PROTO_TCP, encode

AS_A = 1
AS_B = 2
AS_N = 3
AS_M = 4
AS_Z = 5

SDX_1 = 1
SDX_2 = 2

PREFIX = "203.0.113.0/24"


@dataclass(frozen=True)
class TwoExchangeFixture:
    graph: AsGraph
    sites: tuple[SdxSite, SdxSite]
    prefix: str
    rib: RibState
    deflect_b_to_a: DeflectionPolicy
    deflect_n_to_m: DeflectionPolicy


def two_exchange_fixture() -> TwoExchangeFixture:
    """Build the five-AS, two-exchange loop scenario."""
    graph = AsGraph()
    graph.add_customer_provider(customer=AS_N, provider=AS_A)
    graph.add_customer_provider(customer=AS_Z, provider=AS_N)
    graph.add_customer_provider(customer=AS_Z, provider=AS_B)
    graph.add_customer_provider(customer=AS_B, provider=AS_M)
    graph.add_peer(AS_A, AS_B)
    graph.add_peer(AS_N, AS_M)
    graph.validate()

    sites = (
        SdxSite(sdx_id=SDX_1, members=frozenset({AS_A, AS_B})),
        SdxSite(sdx_id=SDX_2, members=frozenset({AS_N, AS_M})),
    )
    rib = compute_routes(graph, AS_Z)
    web = encode(FlowSpec(ip_proto=PROTO_TCP, dst_port=80))
    deflect_b_to_a = DeflectionPolicy(
        owner=AS_B, sdx_id=SDX_1, rule=web, deflect_to=AS_A, prefix=PREFIX,
    )
    deflect_n_to_m = DeflectionPolicy(
        owner=AS_N, sdx_id=SDX_2, rule=web, deflect_to=AS_M, prefix=PREFIX,
    )
    return TwoExchangeFixture(
        graph=graph,
        sites=sites,
        prefix=PREFIX,
        rib=rib,
        deflect_b_to_a=deflect_b_to_a,
        deflect_n_to_m=deflect_n_to_m,
    )
