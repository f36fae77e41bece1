"""Seeded inputs for the benchmark workloads.

Table workloads get plain integers: a holder table of (pattern, mask, hop)
entries and, per round, a query rule built to overlap a chosen set of
entries.  Random width-104 rules almost never overlap one another, so each
query is made from the entries it should hit: it agrees with every chosen
entry wherever both pin a bit and leaves free each bit on which two chosen
entries disagree.  Some queries choose no entry at all.  The expected
answer is still computed afterwards from the whole table, never assumed.

The churn workload gets a topology, routing, a policy pool and an event
stream built with the program's own generators from one fixed scenario
seed; see README.md for why that seed does not follow ``--seed``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

RULE_WIDTH = 104
HOLDER_SDX = 2
PREFIX = "198.51.100.0/24"

# How many table entries the index-th query is built to overlap, in turn.
# Index 0 is the warm-up query, so the first timed query (index 1) always
# overlaps an entry and no run checks only empty answers.
OVERLAP_CHOICES = (0, 1, 1, 2, 3, 5)


def _dense_bits(rng: random.Random, width: int) -> int:
    """A mask pinning about three bits in four."""
    return rng.getrandbits(width) | rng.getrandbits(width)


def holder_table(seed: int, k: int, width: int = RULE_WIDTH):
    """k entries (pattern, mask, (sdx_id, as_id)) with a shared hop pool."""
    rng = random.Random(f"table:{seed}:{k}:{width}")
    n_hops = max(4, k // 8)
    hops = [(HOLDER_SDX, 1000 + i) for i in range(n_hops)]
    table = []
    for _ in range(k):
        mask = _dense_bits(rng, width)
        table.append((rng.getrandbits(width) & mask, mask, rng.choice(hops)))
    return table


def query_rule(seed: int, k: int, index: int, table,
               width: int = RULE_WIDTH) -> tuple[int, int]:
    """The index-th query of a run: (pattern, mask) overlapping chosen entries."""
    rng = random.Random(f"query:{seed}:{k}:{width}:{index}")
    n = OVERLAP_CHOICES[index % len(OVERLAP_CHOICES)]
    chosen = rng.sample(range(len(table)), min(len(table), n))
    ones = 0
    zeros = 0
    for i in chosen:
        pattern, mask, _ = table[i]
        ones |= pattern & mask
        zeros |= ~pattern & mask
    full = (1 << width) - 1
    mask = _dense_bits(rng, width) & ~(ones & zeros) & full
    pattern = (rng.getrandbits(width) & ~(ones | zeros)) | ones
    return pattern & mask, mask


# --------------------------------------------------------------------------
# install churn

CHURN_SCENARIO_SEED = 1
CHURN_AS = 200
CHURN_SDX = 12
CHURN_SITE_SIZE = (4, 16)
CHURN_PREFIXES = 3
CHURN_ALT_RIBS = 3  # alternative routing states per prefix
CHURN_ALT_DROPPED_PEERINGS = 6
CHURN_WARM = 300
CHURN_EVENTS = 200  # the timed stream, the same in every run
# Event mix of the timed stream.
CHURN_MIX = (("install", 6), ("remove", 3), ("bgp_update", 1))


@dataclass(frozen=True)
class ChurnScenario:
    graph: object
    sites: list
    ribs: dict  # prefix -> the RibState the plane starts with
    alt_ribs: dict  # prefix -> [RibState, ...] BGP updates cycle through
    warm: list  # policies installed during set-up
    events: list  # ("install", policy) | ("remove", install index) | ("bgp_update", prefix)


def _without_peerings(graph, drop: set):
    from prelude.bgpsim import AsGraph

    out = AsGraph()
    for asn in graph.as_ids:
        out.add_as(asn)
    for a, b, kind in graph.edges():
        if kind == "peer":
            if (a, b) not in drop:
                out.add_peer(a, b)
        else:
            out.add_customer_provider(a, b)
    return out


def churn_scenario(seed: int = CHURN_SCENARIO_SEED) -> ChurnScenario:
    """Topology, routing states, policy pool and the event stream."""
    from prelude.bgpsim import compute_routes, generate_policies, generate_topology

    graph, sites = generate_topology(CHURN_AS, CHURN_SDX, seed,
                                     sdx_size_range=CHURN_SITE_SIZE)
    rng = random.Random(f"churn:{seed}")
    origins = rng.sample(graph.as_ids, CHURN_PREFIXES)
    prefixes = [f"198.51.{i}.0/24" for i in range(CHURN_PREFIXES)]
    ribs = {p: compute_routes(graph, o) for p, o in zip(prefixes, origins)}
    peerings = sorted((a, b) for a, b, kind in graph.edges() if kind == "peer")
    alt_ribs = {}
    for prefix, origin in zip(prefixes, origins):
        alts = []
        for _ in range(CHURN_ALT_RIBS):
            drop = set(rng.sample(peerings, CHURN_ALT_DROPPED_PEERINGS))
            alts.append(compute_routes(_without_peerings(graph, drop), origin))
        alt_ribs[prefix] = alts

    pool = generate_policies(graph, sites, ribs, seed)
    rng.shuffle(pool)
    warm = pool[:CHURN_WARM]
    fresh = iter(pool[CHURN_WARM:])

    events = []
    installed = list(range(len(warm)))  # install indices not yet removed
    n_installs = len(warm)
    kinds = [kind for kind, _ in CHURN_MIX]
    weights = [weight for _, weight in CHURN_MIX]
    while len(events) < CHURN_EVENTS:
        kind = rng.choices(kinds, weights)[0]
        if kind == "install":
            events.append(("install", next(fresh)))
            installed.append(n_installs)
            n_installs += 1
        elif kind == "remove":
            index = installed.pop(rng.randrange(len(installed)))
            events.append(("remove", index))
        else:
            events.append(("bgp_update", rng.choice(prefixes)))
    return ChurnScenario(graph, sites, ribs, alt_ribs, warm, events)
