"""AS-level topologies with business relationships and exchange points.

The graph stores the usual two relationship kinds: customer-to-provider
(the customer pays) and settlement-free peering.  A synthetic generator
builds hierarchies that are acyclic by construction and fully reachable
under export rules: a clique of transit-free providers at the top, every
other AS multihomed to earlier ASes, peering sprinkled on top, and exchange
fabrics that peer their members.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter

CUSTOMER = "customer"
PROVIDER = "provider"
PEER = "peer"


class TopologyError(ValueError):
    """Topology construction or validation failed."""


@dataclass(frozen=True)
class SdxSite:
    """One software-defined exchange: an identifier and its member ASes."""

    sdx_id: int
    members: frozenset[int]

    def __post_init__(self) -> None:
        if not 0 <= self.sdx_id < (1 << 16):
            raise TopologyError("sdx_id must fit 16 bits")
        if len(self.members) < 2:
            raise TopologyError("an exchange needs at least two members")


class AsGraph:
    """Mutable AS graph; at most one relationship per AS pair."""

    def __init__(self) -> None:
        self._customers: dict[int, set[int]] = {}
        self._providers: dict[int, set[int]] = {}
        self._peers: dict[int, set[int]] = {}

    # ------------------------------------------------------------ building

    def add_as(self, asn: int) -> None:
        if asn < 0:
            raise TopologyError("AS numbers are non-negative")
        self._customers.setdefault(asn, set())
        self._providers.setdefault(asn, set())
        self._peers.setdefault(asn, set())

    def _check_new_edge(self, a: int, b: int) -> None:
        if a == b:
            raise TopologyError("self-loops are not allowed")
        if self.relationship(a, b) is not None:
            raise TopologyError(f"ASes {a} and {b} already have a relationship")

    def add_customer_provider(self, customer: int, provider: int) -> None:
        self.add_as(customer)
        self.add_as(provider)
        self._check_new_edge(customer, provider)
        self._customers[provider].add(customer)
        self._providers[customer].add(provider)

    def add_peer(self, a: int, b: int) -> None:
        self.add_as(a)
        self.add_as(b)
        self._check_new_edge(a, b)
        self._peers[a].add(b)
        self._peers[b].add(a)

    # ------------------------------------------------------------ queries

    def __contains__(self, asn: int) -> bool:
        return asn in self._customers

    @property
    def as_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._customers))

    def customers(self, asn: int) -> tuple[int, ...]:
        return tuple(sorted(self._customers.get(asn, ())))

    def providers(self, asn: int) -> tuple[int, ...]:
        return tuple(sorted(self._providers.get(asn, ())))

    def peers(self, asn: int) -> tuple[int, ...]:
        return tuple(sorted(self._peers.get(asn, ())))

    def relationship(self, a: int, b: int) -> str | None:
        """How b relates to a: b is a's customer, provider, or peer."""
        if b in self._customers.get(a, ()):
            return CUSTOMER
        if b in self._providers.get(a, ()):
            return PROVIDER
        if b in self._peers.get(a, ()):
            return PEER
        return None

    def edges(self):
        """Yield (a, b, kind) with customer edges as (customer, provider)."""
        for customer in self.as_ids:
            for provider in self.providers(customer):
                yield (customer, provider, CUSTOMER)
        for a in self.as_ids:
            for b in self.peers(a):
                if a < b:
                    yield (a, b, PEER)

    # ---------------------------------------------------------- validation

    def validate(self) -> None:
        """Reject provider cycles (an AS must not transitively pay itself)."""
        try:
            TopologicalSorter(self._providers).prepare()
        except CycleError as exc:
            raise TopologyError("provider hierarchy contains a cycle "
                                f"through AS {exc.args[1][0]}") from exc


# --------------------------------------------------------------------------
# synthetic generation


# Each AS past the tier-1 clique buys transit from 1 to MAX_PROVIDERS ASes,
# PEER_FRACTION peer links per AS are drawn at random, and two members of an
# exchange peer over its fabric with chance FABRIC_PEERING.
MAX_PROVIDERS = 2
PEER_FRACTION = 0.3
FABRIC_PEERING = 0.6


def generate_topology(
    n_as: int,
    n_sdx: int,
    seed: int,
    sdx_size_range: tuple[int, int] = (2, 6),
) -> tuple[AsGraph, list[SdxSite]]:
    """Build a reachable, hierarchy-acyclic topology with exchange sites.

    The tier-1 clique holds one AS in 20, between 2 and 8 of them.
    """
    if n_as < 3:
        raise TopologyError("need at least three ASes")
    if n_sdx < 0:
        raise TopologyError("negative exchange count")
    if sdx_size_range[0] < 2 or sdx_size_range[0] > sdx_size_range[1]:
        raise TopologyError("exchange size range must be [lo, hi] with lo >= 2")
    if sdx_size_range[1] > n_as:
        raise TopologyError("exchange size exceeds AS count")

    rng = random.Random(seed)
    graph = AsGraph()
    ids = list(range(1, n_as + 1))
    n_tier1 = max(2, min(8, n_as // 20))

    tier1 = ids[:n_tier1]
    for asn in tier1:
        graph.add_as(asn)
    for i, a in enumerate(tier1):
        for b in tier1[i + 1 :]:
            graph.add_peer(a, b)

    # Every later AS buys transit from one or two already-placed ASes,
    # preferring the well-connected ones, so the hierarchy is acyclic and
    # everyone has an uphill path into the clique.
    degree = {asn: 1 for asn in ids}
    for asn in ids[n_tier1:]:
        placed = ids[: ids.index(asn)]
        weights = [degree[p] for p in placed]
        n_prov = 1 if len(placed) == 1 else rng.randint(1, MAX_PROVIDERS)
        chosen: list[int] = []
        while len(chosen) < n_prov:
            pick = rng.choices(placed, weights=weights)[0]
            if pick not in chosen:
                chosen.append(pick)
        for provider in chosen:
            graph.add_customer_provider(asn, provider)
            degree[provider] += 1
            degree[asn] += 1

    n_peer_links = round(n_as * PEER_FRACTION)
    attempts = 0
    added = 0
    while added < n_peer_links and attempts < 20 * n_peer_links:
        attempts += 1
        a, b = rng.sample(ids, 2)
        if graph.relationship(a, b) is None:
            graph.add_peer(a, b)
            added += 1

    sites: list[SdxSite] = []
    for sdx_id in range(1, n_sdx + 1):
        size = rng.randint(*sdx_size_range)
        members = rng.sample(ids, size)
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                if graph.relationship(a, b) is None and rng.random() < FABRIC_PEERING:
                    graph.add_peer(a, b)
        sites.append(SdxSite(sdx_id=sdx_id, members=frozenset(members)))

    graph.validate()
    return graph, sites

