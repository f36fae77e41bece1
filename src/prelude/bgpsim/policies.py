"""Deflection policies: who reroutes what to whom at which exchange.

A policy belongs to a member AS of one exchange and sends the traffic it
matches to another member instead of the owner's BGP next hop.  The
compliance predicate answers whether a single deflection keeps the global
no-loop guarantee: it must not prefer a worse relationship class than the
route it overrides, and the spliced path must stay valley-free, which holds
when the deflection target either sits uphill or forwards the prefix along
an all-downhill (customer-learned or own) route.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass

from prelude.bgpsim.routing import PREFERENCE, RibState, exports
from prelude.bgpsim.topology import PEER, PROVIDER, AsGraph
from prelude.rules import FlowSpec, PROTO_TCP, PROTO_UDP, TernaryRule, encode

log = logging.getLogger(__name__)


class PolicyError(ValueError):
    """A deflection policy violates its structural requirements."""


@dataclass(frozen=True)
class DeflectionPolicy:
    """Reroute traffic matching ``rule`` for ``prefix`` to ``deflect_to``."""

    owner: int
    sdx_id: int
    rule: TernaryRule
    deflect_to: int
    prefix: str

    def __post_init__(self) -> None:
        if self.owner == self.deflect_to:
            raise PolicyError("a policy cannot deflect to its own owner")


def validate_policy(policy: DeflectionPolicy, sites, rib: RibState) -> None:
    """Check the graph-dependent invariants a well-formed policy must meet."""
    site = next((s for s in sites if s.sdx_id == policy.sdx_id), None)
    if site is None:
        raise PolicyError(f"unknown exchange {policy.sdx_id}")
    if policy.owner not in site.members or policy.deflect_to not in site.members:
        raise PolicyError("owner and target must both be exchange members")
    if rib.get(policy.deflect_to) is None:
        raise PolicyError("deflection target has no route for the prefix")
    owner_route = rib.get(policy.owner)
    if owner_route is not None and owner_route.next_hop == policy.deflect_to:
        raise PolicyError("target equals the BGP next hop; nothing is deflected")


def hop_class(graph: AsGraph, owner: int, deflect_to: int) -> str:
    """Relationship class of the deflection step itself.

    Exchange members without a direct business relationship reach each
    other over the shared fabric, which settles like peering.
    """
    rel = graph.relationship(owner, deflect_to)
    return rel if rel is not None else PEER


def gr_compliant(policy: DeflectionPolicy, rib: RibState, graph: AsGraph) -> bool:
    """Does this single deflection preserve the no-loop conditions?

    Two requirements: the deflection step's class must be at least as
    preferred as the class of the route the owner selected, and the target
    must be one that would export its route to the owner
    (:func:`~prelude.bgpsim.routing.exports`), which keeps the composed
    path valley-free.
    """
    target_route = rib.get(policy.deflect_to)
    if target_route is None:
        return False
    owner_route = rib.get(policy.owner)
    if owner_route is None:
        return False
    step = hop_class(graph, policy.owner, policy.deflect_to)
    if PREFERENCE[step] < PREFERENCE[owner_route.klass]:
        return False
    return exports(target_route.klass, to_customer=step == PROVIDER)


SAMPLE_FRACTION = 0.2
TARGET_CAP = 50
MAX_PER_TARGET = 4


def generate_policies(
    graph: AsGraph,
    sites,
    ribs: dict[str, RibState],
    seed: int,
) -> list[DeflectionPolicy]:
    """Draw a deterministic policy workload over the exchange membership.

    Every member of every exchange picks a sample of the other members
    (:data:`SAMPLE_FRACTION` of them, at most :data:`TARGET_CAP`) and
    installs one to :data:`MAX_PER_TARGET` policies toward each: TCP or
    UDP plus one exact port, deflecting a prefix the target can actually
    reach.  Targets without any route are skipped and counted.
    """
    rng = random.Random(seed)
    prefixes = sorted(ribs)
    policies: list[DeflectionPolicy] = []
    skipped_unrouted = 0
    skipped_next_hop = 0
    for site in sorted(sites, key=lambda s: s.sdx_id):
        members = sorted(site.members)
        for owner in members:
            others = [m for m in members if m != owner]
            eligible = [
                m for m in others
                if any(ribs[p].get(m) is not None for p in prefixes)
            ]
            skipped_unrouted += len(others) - len(eligible)
            if not eligible:
                continue
            n_targets = min(TARGET_CAP, math.ceil(SAMPLE_FRACTION * len(others)))
            n_targets = min(n_targets, len(eligible))
            for target in sorted(rng.sample(eligible, n_targets)):
                for _ in range(rng.randint(1, MAX_PER_TARGET)):
                    proto = rng.choice((PROTO_TCP, PROTO_UDP))
                    port_field = rng.choice(("src_port", "dst_port"))
                    port = rng.randrange(1 << 16)
                    routed = [p for p in prefixes if ribs[p].get(target)]
                    prefix = rng.choice(routed)
                    owner_route = ribs[prefix].get(owner)
                    if owner_route is not None and owner_route.next_hop == target:
                        skipped_next_hop += 1
                        continue
                    rule = encode(FlowSpec(ip_proto=proto, **{port_field: port}))
                    policies.append(DeflectionPolicy(
                        owner=owner,
                        sdx_id=site.sdx_id,
                        rule=rule,
                        deflect_to=target,
                        prefix=prefix,
                    ))
    if skipped_unrouted or skipped_next_hop:
        log.info(
            "policy generation skipped %d unrouted targets and %d "
            "next-hop collisions", skipped_unrouted, skipped_next_hop,
        )
    return policies
