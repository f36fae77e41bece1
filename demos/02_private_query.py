"""
Private distinct-match queries
==============================

One exchange point asks another: "which of your registered next hops
belong to rules that overlap mine?"  The answer comes out of a two-party
secure computation, so the holder never sees the query rule's bits and
the querier never sees the holder's rules, only the overlapping hop ids.

Both protocol backends compute the same function; they trade rounds for
bandwidth differently, which the session stats make visible.
"""

import random

from prelude.distinct_match import (
    LoopbackEndpoint,
    NextHopId,
    RuleEntry,
    SdxMatchService,
)
from prelude.rules import FlowSpec, PROTO_TCP, PROTO_UDP, encode

PREFIX = "198.51.100.0/24"

# The holder's table: three members' deflection rules for one prefix.
service = SdxMatchService(sdx_id=2)
service.register(RuleEntry(rule=encode(FlowSpec(ip_proto=PROTO_TCP, dst_port=80)),
                           next_hop=NextHopId(2, 30), owner=10, prefix=PREFIX))
service.register(RuleEntry(rule=encode(FlowSpec(ip_proto=PROTO_TCP)),
                           next_hop=NextHopId(2, 40), owner=11, prefix=PREFIX))
service.register(RuleEntry(rule=encode(FlowSpec(ip_proto=PROTO_UDP, dst_port=53)),
                           next_hop=NextHopId(2, 50), owner=12, prefix=PREFIX))

endpoint = LoopbackEndpoint(service, seed=7)

# A TCP/80 query overlaps the web rule and the any-TCP rule, not the DNS one.
query_rule = encode(FlowSpec(ip_proto=PROTO_TCP, dst_port=80))
for backend in ("gmw", "yao"):
    stats = []
    result = endpoint.query(query_rule, PREFIX, backend=backend,
                            stats_out=stats)
    s = stats[0]
    print(f"{backend}: hops={sorted((h.sdx_id, h.as_id) for h in result.hops)}"
          f" rounds={s.online_rounds} setup={s.setup_bytes}B"
          f" online={s.online_bytes}B")
assert {h.as_id for h in result.hops} == {30, 40}

# The same session over a 25 ms one-way delay: one-way flights dominate.
slow = LoopbackEndpoint(service, seed=7, one_way_delay=0.025)
for backend in ("gmw", "yao"):
    stats = []
    slow.query(query_rule, PREFIX, backend=backend, stats_out=stats)
    print(f"{backend} at 25ms one-way: online wall time "
          f"{stats[0].online_wall_time * 1000:.0f}ms "
          f"({stats[0].online_rounds} rounds, {stats[0].flights} flights)")

# Dummy padding hides how many rules matched: the raw vector always has
# one slot per registered rule, shuffled fresh for every query.
rng = random.Random(3)
stats = []
endpoint.query(encode(FlowSpec(ip_proto=PROTO_TCP, dst_port=rng.randrange(1024))),
               PREFIX, stats_out=stats)
print("raw slots per query:", stats[0].k)
