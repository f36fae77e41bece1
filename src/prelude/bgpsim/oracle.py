"""Perfect-knowledge forwarding ground truth.

Given a topology's selected routes and a set of active deflection policies
for one prefix, the oracle finds every forwarding cycle, exactly.  Instead
of enumerating packets it walks equivalence classes of headers: a class is
a union of ternary cubes, refined at every AS by the policies installed
there (first match wins, in list order).  Matching traffic branches to the
deflection target, the remainder follows the BGP next hop, and a walk that
re-enters an AS already on its own chain has found a cycle.

Every cycle contains at least one deflecting AS (the BGP forwarding graph
alone is a tree toward the origin), so walks start at policy owners with
the all-wildcard class and still find every loop.  A per-packet simulator
with identical matching semantics provides the cross-check for small rule
widths.
"""

from __future__ import annotations

from dataclasses import dataclass

from prelude.bgpsim.routing import RibState
from prelude.bgpsim.topology import AsGraph
from prelude.rules import Packet, TernaryRule, intersect, matches

MAX_WALK = 10_000


@dataclass(frozen=True)
class Loop:
    """One forwarding cycle and a header class that rides it."""

    cycle: tuple[int, ...]
    header: TernaryRule
    prefix: str


def normalize_cycle(cycle) -> tuple[int, ...]:
    """Rotate the cycle so the smallest AS id comes first."""
    cycle = tuple(cycle)
    pivot = cycle.index(min(cycle))
    return cycle[pivot:] + cycle[:pivot]


def cube_minus(cube: TernaryRule, taken: TernaryRule) -> list[TernaryRule]:
    """Cover cube minus taken with disjoint cubes (possibly none)."""
    if intersect(cube, taken) is None:
        return [cube]
    out: list[TernaryRule] = []
    pattern, mask = cube.pattern, cube.mask
    for i in range(cube.width):
        shift = cube.width - 1 - i
        if (taken.mask >> shift) & 1 and not (mask >> shift) & 1:
            taken_bit = (taken.pattern >> shift) & 1
            out.append(TernaryRule(
                cube.width,
                pattern | ((1 - taken_bit) << shift),
                mask | (1 << shift),
            ))
            pattern |= taken_bit << shift
            mask |= 1 << shift
    return out


def _policies_by_owner(policies, prefix: str):
    grouped: dict[int, list] = {}
    for policy in policies:
        if policy.prefix == prefix:
            grouped.setdefault(policy.owner, []).append(policy)
    return grouped


def forwarding_oracle(graph: AsGraph, rib: RibState, policies,
                      prefix: str) -> set[Loop]:
    """All forwarding cycles for the prefix under the active policies."""
    grouped = _policies_by_owner(policies, prefix)
    if not grouped:
        return set()
    width = next(iter(grouped.values()))[0].rule.width
    found: dict[tuple[int, ...], Loop] = {}
    chain: list[int] = []
    position: dict[int, int] = {}

    def explore(asn: int, cubes: list[TernaryRule]) -> None:
        if asn in position:
            cycle = normalize_cycle(chain[position[asn]:])
            if cycle not in found:
                found[cycle] = Loop(cycle=cycle, header=cubes[0], prefix=prefix)
            return
        position[asn] = len(chain)
        chain.append(asn)
        remaining = cubes
        for policy in grouped.get(asn, ()):
            hits = []
            for cube in remaining:
                hit = intersect(cube, policy.rule)
                if hit is not None:
                    hits.append(hit)
            if hits:
                explore(policy.deflect_to, hits)
                remaining = [
                    piece
                    for cube in remaining
                    for piece in cube_minus(cube, policy.rule)
                ]
                if not remaining:
                    break
        if remaining and asn != rib.origin:
            route = rib.get(asn)
            if route is not None:
                explore(route.next_hop, remaining)
        chain.pop()
        del position[asn]

    for owner in sorted(grouped):
        explore(owner, [TernaryRule.wildcard(width)])
    return set(found.values())


def simulate_packet(rib: RibState, policies, prefix: str, packet: Packet,
                    start: int):
    """Walk one concrete packet; returns (path, cycle or None).

    Matching semantics mirror the oracle exactly: at each AS the first
    matching policy (list order) wins, otherwise the BGP next hop; arrival
    at the origin delivers, a missing route drops.
    """
    relevant = [p for p in policies if p.prefix == prefix]
    path = [start]
    seen = {start: 0}
    current = start
    for _ in range(MAX_WALK):
        nxt = None
        for policy in relevant:
            if policy.owner == current and matches(policy.rule, packet):
                nxt = policy.deflect_to
                break
        if nxt is None:
            if current == rib.origin:
                return path, None
            route = rib.get(current)
            if route is None:
                return path, None
            nxt = route.next_hop
        if nxt in seen:
            return path, normalize_cycle(path[seen[nxt]:])
        seen[nxt] = len(path)
        path.append(nxt)
        current = nxt
    raise RuntimeError("walk exceeded the hop budget without terminating")
