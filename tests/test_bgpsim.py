"""Topology, routing, policy, and forwarding-oracle tests."""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from prelude.bgpsim import (
    AS_A,
    AS_B,
    AS_M,
    AS_N,
    AS_Z,
    AsGraph,
    DeflectionPolicy,
    PREFERENCE,
    PolicyError,
    SdxSite,
    TopologyError,
    compute_routes,
    cube_minus,
    forwarding_oracle,
    generate_policies,
    generate_topology,
    gr_compliant,
    normalize_cycle,
    simulate_packet,
    traversed_sdxes,
    two_exchange_fixture,
    validate_policy,
)
from prelude.rules import (
    Packet,
    PROTO_TCP,
    PROTO_UDP,
    TernaryRule,
    decode,
    encode_packet,
    matches,
    random_rule,
)


def check_valley_free(graph: AsGraph, path) -> bool:
    """Independent shape checker: climb, at most one flat step, then sink."""
    kinds = []
    for a, b in zip(path, path[1:]):
        rel = graph.relationship(a, b)
        if rel is None:
            return False
        kinds.append(rel)
    seen_flat_or_down = False
    for rel in kinds:
        if rel == "provider":
            if seen_flat_or_down:
                return False
        else:
            if rel == "peer" and seen_flat_or_down:
                return False
            seen_flat_or_down = True
    return True


# --------------------------------------------------------------------------
# topology


class TestTopology:
    def test_generation_is_deterministic(self):
        g1, s1 = generate_topology(n_as=80, n_sdx=6, seed=99)
        g2, s2 = generate_topology(n_as=80, n_sdx=6, seed=99)
        assert list(g1.edges()) == list(g2.edges())
        assert s1 == s2
        g3, _ = generate_topology(n_as=80, n_sdx=6, seed=100)
        assert list(g1.edges()) != list(g3.edges())

    def test_rejects_tiny_or_impossible_parameters(self):
        with pytest.raises(TopologyError):
            generate_topology(n_as=2, n_sdx=0, seed=1)
        with pytest.raises(TopologyError):
            generate_topology(n_as=10, n_sdx=1, seed=1, sdx_size_range=(2, 11))
        with pytest.raises(TopologyError):
            generate_topology(n_as=10, n_sdx=1, seed=1, sdx_size_range=(1, 3))

    def test_no_duplicate_relationships(self):
        g = AsGraph()
        g.add_peer(1, 2)
        with pytest.raises(TopologyError):
            g.add_customer_provider(1, 2)
        with pytest.raises(TopologyError):
            g.add_peer(2, 1)
        with pytest.raises(TopologyError):
            g.add_peer(3, 3)

    def test_validate_catches_provider_cycles(self):
        g = AsGraph()
        g.add_customer_provider(1, 2)
        g.add_customer_provider(2, 3)
        g.add_customer_provider(3, 1)
        with pytest.raises(TopologyError, match=r"through AS [123]$"):
            g.validate()

    def test_full_reachability_at_200(self):
        graph, _ = generate_topology(n_as=200, n_sdx=10, seed=7)
        for origin in graph.as_ids:
            rib = compute_routes(graph, origin)
            assert len(rib.routes) == graph.n_as


# --------------------------------------------------------------------------
# route computation

# SHA-256 of the pinned routes of test_routes_are_pinned_by_their_digest.
ROUTES_DIGEST = "ddd0eb6ef6736263dfcbaa1e6b744b6a19bff5086e7643c3be2d857c5605ce27"


class TestRouting:
    def test_fixture_selections(self):
        fx = two_exchange_fixture()
        assert fx.rib.path(AS_A) == (AS_A, AS_N, AS_Z)
        assert fx.rib.path(AS_M) == (AS_M, AS_B, AS_Z)
        assert fx.rib.path(AS_B) == (AS_B, AS_Z)
        assert fx.rib.path(AS_N) == (AS_N, AS_Z)

    def test_origin_route_is_itself_with_empty_announcement(self):
        fx = two_exchange_fixture()
        origin_route = fx.rib.get(AS_Z)
        assert origin_route.announced_path == ()
        assert origin_route.next_hop == AS_Z
        assert origin_route.klass == "origin"

    def test_fixture_route_classes(self):
        fx = two_exchange_fixture()
        assert fx.rib.get(AS_A).klass == "customer"
        assert fx.rib.get(AS_M).klass == "customer"

    def test_consistency_and_valley_freedom_on_random_graphs(self):
        for seed in range(15):
            graph, _ = generate_topology(n_as=60, n_sdx=4, seed=seed)
            origin = graph.as_ids[seed % graph.n_as]
            rib = compute_routes(graph, origin)
            for asn, route in rib.routes.items():
                assert route.as_path[0] == asn
                assert route.as_path[-1] == origin
                assert len(set(route.as_path)) == len(route.as_path)
                assert check_valley_free(graph, route.as_path)
                if asn != origin:
                    hop = route.next_hop
                    assert route.as_path == (asn,) + rib.path(hop)
                    rel = graph.relationship(asn, hop)
                    assert rel == route.klass or (
                        rel == "peer" and route.klass == "peer"
                    )

    def test_relationship_preference_beats_path_length(self):
        # Short provider path versus long customer path: customer wins.
        g = AsGraph()
        g.add_customer_provider(customer=5, provider=1)  # origin 5 below 1
        g.add_customer_provider(customer=4, provider=5)  # 4's customer chain
        g.add_customer_provider(customer=3, provider=4)
        g.add_customer_provider(customer=2, provider=3)
        g.add_customer_provider(customer=2, provider=1)  # and a short uphill
        rib = compute_routes(g, 2)
        # AS 1 hears 2's prefix from customer 5 (long) and customer 2... both
        # customer class; the point is 5 never uses the provider shortcut.
        assert rib.get(5).klass in ("customer", "origin")
        g2 = AsGraph()
        g2.add_customer_provider(customer=9, provider=2)   # 9 buys from 2
        g2.add_customer_provider(customer=9, provider=3)   # and from 3
        g2.add_customer_provider(customer=2, provider=1)
        g2.add_customer_provider(customer=3, provider=1)
        g2.add_customer_provider(customer=1, provider=7)
        g2.add_customer_provider(customer=8, provider=7)
        g2.add_customer_provider(customer=8, provider=9)
        rib2 = compute_routes(g2, 9)
        # 8 can reach 9 via customer edge (8<-9 means 9 is 8's... ) check:
        # 8 buys from 7 and from 9, so 9 is 8's provider; customer route
        # does not exist at 8; provider route through 9 is shortest.
        assert rib2.get(8).klass == "provider"
        assert rib2.path(8) == (8, 9)

    def test_lowest_next_hop_breaks_ties(self):
        g = AsGraph()
        g.add_customer_provider(customer=9, provider=2)
        g.add_customer_provider(customer=9, provider=3)
        g.add_customer_provider(customer=2, provider=4)
        g.add_customer_provider(customer=3, provider=4)
        rib = compute_routes(g, 9)
        assert rib.path(4) in ((4, 2, 9),)  # 2 < 3 at equal length
        assert rib.path(4) == (4, 2, 9)

    def test_deterministic_output(self):
        graph, _ = generate_topology(n_as=50, n_sdx=3, seed=12)
        r1 = compute_routes(graph, graph.as_ids[0])
        r2 = compute_routes(graph, graph.as_ids[0])
        assert r1.routes == r2.routes

    def test_routes_are_pinned_by_their_digest(self):
        # {asn: (as_path, klass)} toward every fifth AS of seeded graphs,
        # and toward every AS of the two-exchange fixture.
        graphs = [generate_topology(n_as=n_as, n_sdx=2, seed=seed,
                                    sdx_size_range=(2, 4))[0]
                  for n_as in (5, 50, 200) for seed in (1, 2, 3)]
        pinned = []
        for graph in graphs:
            for origin in graph.as_ids[::5]:
                rib = compute_routes(graph, origin)
                pinned.append({asn: (r.as_path, r.klass)
                               for asn, r in sorted(rib.routes.items())})
        fixture = two_exchange_fixture().graph
        for origin in fixture.as_ids:
            rib = compute_routes(fixture, origin)
            pinned.append({asn: (r.as_path, r.klass)
                           for asn, r in sorted(rib.routes.items())})
        digest = hashlib.sha256(json.dumps(pinned).encode()).hexdigest()
        assert digest == ROUTES_DIGEST

    @pytest.mark.parametrize("seed", range(40))
    def test_every_selected_route_is_the_best_on_offer(self, seed):
        # A random provider hierarchy (edges point to lower ids, so it is
        # acyclic) with random peering; some ASes may stay unreachable.
        rng = random.Random(seed)
        n = rng.randint(3, 30)
        g = AsGraph()
        for asn in range(1, n + 1):
            g.add_as(asn)
        for _ in range(rng.randint(0, 2 * n)):
            a, b = rng.sample(range(1, n + 1), 2)
            if g.relationship(a, b) is None:
                if rng.random() < 0.6:
                    g.add_customer_provider(customer=max(a, b),
                                            provider=min(a, b))
                else:
                    g.add_peer(a, b)
        origin = rng.randint(1, n)
        rib = compute_routes(g, origin)

        def rank(klass, length, hop):
            return (-PREFERENCE[klass], length, hop)

        for u in g.as_ids:
            route = rib.get(u)
            if route is not None and u != origin:
                assert route.as_path == (u,) + rib.path(route.next_hop)
            for v in g.as_ids:
                rel = g.relationship(u, v)
                offer = rib.get(v)
                if rel is None or offer is None:
                    continue
                # Own and customer-learned routes go to every neighbour;
                # the rest only to customers (u is v's customer when v is
                # u's provider).
                if offer.klass not in ("origin", "customer") and rel != "provider":
                    continue
                assert route is not None, f"AS {u} ignores {v}'s offer"
                assert rank(route.klass, len(route.as_path), route.next_hop) \
                    <= rank(rel, len(offer.as_path) + 1, v)


# --------------------------------------------------------------------------
# exchange traversal


class TestTraversedSdxes:
    def test_fixture_paths(self):
        fx = two_exchange_fixture()
        assert traversed_sdxes((AS_M, AS_B, AS_Z), fx.sites) == []
        assert traversed_sdxes((AS_A, AS_B), fx.sites) == [1]
        assert traversed_sdxes((AS_B, AS_A, AS_N, AS_M), fx.sites) == [1, 2]
        assert traversed_sdxes((AS_Z,), fx.sites) == []

    def test_pair_in_two_fabrics_reports_both(self):
        sites = [SdxSite(2, frozenset({7, 8})), SdxSite(1, frozenset({7, 8}))]
        assert traversed_sdxes((7, 8), sites) == [1, 2]

    def test_reported_sites_contain_both_endpoints(self):
        rng = random.Random(4)
        graph, sites = generate_topology(n_as=50, n_sdx=6, seed=21)
        rib = compute_routes(graph, graph.as_ids[0])
        by_id = {s.sdx_id: s for s in sites}
        for asn in graph.as_ids:
            path = rib.path(asn)
            for sdx_id in traversed_sdxes(path, sites):
                members = by_id[sdx_id].members
                assert any(
                    a in members and b in members
                    for a, b in zip(path, path[1:])
                )


# --------------------------------------------------------------------------
# policies


class TestPolicies:
    def test_fixture_policies_validate(self):
        fx = two_exchange_fixture()
        validate_policy(fx.deflect_b_to_a, fx.sites, fx.rib)
        validate_policy(fx.deflect_n_to_m, fx.sites, fx.rib)

    def test_policy_invariant_violations(self):
        fx = two_exchange_fixture()
        rule = fx.deflect_b_to_a.rule
        with pytest.raises(PolicyError):
            DeflectionPolicy(owner=AS_B, sdx_id=1, rule=rule,
                             deflect_to=AS_B, prefix=fx.prefix)
        outsider = DeflectionPolicy(owner=AS_B, sdx_id=1, rule=rule,
                                    deflect_to=AS_N, prefix=fx.prefix)
        with pytest.raises(PolicyError):
            validate_policy(outsider, fx.sites, fx.rib)
        to_next_hop = DeflectionPolicy(owner=AS_M, sdx_id=2, rule=rule,
                                       deflect_to=AS_N, prefix=fx.prefix)
        # M's next hop is B, so deflecting M->N at exchange 2 is fine;
        # but N->M where M is... construct the true collision: N's next
        # hop for the prefix is Z, so use A whose next hop is N.
        validate_policy(to_next_hop, fx.sites, fx.rib)
        collision = DeflectionPolicy(owner=AS_M, sdx_id=2, rule=rule,
                                     deflect_to=AS_B, prefix=fx.prefix)
        with pytest.raises(PolicyError):
            validate_policy(collision, fx.sites, fx.rib)

    def test_fixture_policies_are_not_compliant(self):
        fx = two_exchange_fixture()
        assert not gr_compliant(fx.deflect_b_to_a, fx.rib, fx.graph)
        assert not gr_compliant(fx.deflect_n_to_m, fx.rib, fx.graph)

    def test_deflect_to_customer_with_customer_route_is_compliant(self):
        g = AsGraph()
        g.add_customer_provider(customer=5, provider=2)  # origin 5 pays 2
        g.add_customer_provider(customer=5, provider=3)  # and 3
        g.add_customer_provider(customer=3, provider=2)  # 3 pays 2 as well
        rib = compute_routes(g, 5)
        sites = [SdxSite(1, frozenset({2, 3}))]
        rule = TernaryRule.wildcard(8)
        policy = DeflectionPolicy(owner=2, sdx_id=1, rule=rule,
                                  deflect_to=3, prefix="p")
        validate_policy(policy, sites, rib)
        # 2 selected its customer route (2,5); 3 is also 2's customer and
        # holds the customer route (3,5): compliant.
        assert rib.get(2).klass == "customer"
        assert gr_compliant(policy, rib, g)

    def test_deflect_to_provider_with_customer_route_is_not_compliant(self):
        g = AsGraph()
        g.add_customer_provider(customer=5, provider=2)
        g.add_customer_provider(customer=2, provider=3)
        g.add_customer_provider(customer=5, provider=3)
        rib = compute_routes(g, 5)
        policy = DeflectionPolicy(owner=2, sdx_id=1,
                                  rule=TernaryRule.wildcard(8),
                                  deflect_to=3, prefix="p")
        assert rib.get(2).klass == "customer"
        assert not gr_compliant(policy, rib, g)

    def test_generated_policies_are_deterministic_and_bounded(self):
        graph, sites = generate_topology(n_as=60, n_sdx=5, seed=31)
        origins = list(graph.as_ids[:4])
        ribs = {f"pfx{i}": compute_routes(graph, o)
                for i, o in enumerate(origins)}
        p1 = generate_policies(graph, sites, ribs, seed=8)
        p2 = generate_policies(graph, sites, ribs, seed=8)
        assert p1 == p2
        assert p1 != generate_policies(graph, sites, ribs, seed=9)
        per_owner_targets: dict[tuple[int, int], set[int]] = {}
        for pol in p1:
            per_owner_targets.setdefault((pol.sdx_id, pol.owner),
                                         set()).add(pol.deflect_to)
        site_by_id = {s.sdx_id: s for s in sites}
        for (sdx_id, owner), targets in per_owner_targets.items():
            others = len(site_by_id[sdx_id].members) - 1
            bound = min(50, -(-others * 2 // 10))  # ceil(0.2 * others)
            assert len(targets) <= bound

    def test_generated_rules_match_one_port_over_tcp_or_udp(self):
        graph, sites = generate_topology(n_as=40, n_sdx=4, seed=17)
        ribs = {"pfx": compute_routes(graph, graph.as_ids[0])}
        policies = generate_policies(graph, sites, ribs, seed=3)
        assert policies
        for pol in policies:
            spec = decode(pol.rule)
            assert spec.ip_proto in (PROTO_TCP, PROTO_UDP)
            assert (spec.src_port is None) != (spec.dst_port is None)
            assert spec.src_ip is None and spec.dst_ip is None
            # the target can reach the prefix and is not the BGP next hop
            assert ribs[pol.prefix].get(pol.deflect_to) is not None
            owner_route = ribs[pol.prefix].get(pol.owner)
            if owner_route is not None:
                assert owner_route.next_hop != pol.deflect_to


# --------------------------------------------------------------------------
# forwarding oracle


def packet_cycles(graph, rib, policies, prefix, width=8):
    """Ground truth by brute force: every packet from every start AS."""
    cycles = set()
    for value in range(1 << width):
        packet = Packet(width, value)
        for start in graph.as_ids:
            _, cycle = simulate_packet(rib, policies, prefix, packet,
                                       start)
            if cycle is not None:
                cycles.add(cycle)
    return cycles


class TestOracle:
    def test_fixture_loop_is_found(self):
        fx = two_exchange_fixture()
        loops = forwarding_oracle(fx.graph, fx.rib, list(fx.policies),
                                  fx.prefix)
        assert len(loops) == 1
        loop = next(iter(loops))
        assert loop.cycle == normalize_cycle((AS_B, AS_A, AS_N, AS_M))
        # The looping header class is web traffic.
        web_packet = encode_packet(0, 0, 1234, 80, PROTO_TCP)
        assert matches(loop.header, web_packet) or matches(
            fx.deflect_b_to_a.rule, Packet(104, loop.header.pattern)
        )

    def test_single_deflection_cannot_loop(self):
        fx = two_exchange_fixture()
        for single in fx.policies:
            assert forwarding_oracle(fx.graph, fx.rib, [single],
                                     fx.prefix) == set()

    def test_fixture_packet_walks(self):
        fx = two_exchange_fixture()
        web = encode_packet(0, 0, 40000, 80, PROTO_TCP)
        ssh = encode_packet(0, 0, 40000, 22, PROTO_TCP)
        path, cycle = simulate_packet(fx.rib, list(fx.policies), fx.prefix,
                                      web, AS_M)
        assert cycle == normalize_cycle((AS_B, AS_A, AS_N, AS_M))
        path, cycle = simulate_packet(fx.rib, list(fx.policies), fx.prefix,
                                      ssh, AS_M)
        assert cycle is None
        assert path == [AS_M, AS_B, AS_Z]

    def test_oracle_equals_packet_enumeration_on_random_scenarios(self):
        fx = two_exchange_fixture()
        rng = random.Random(77)
        owners = [AS_A, AS_B, AS_N, AS_M]
        deflect_targets = {AS_A: AS_B, AS_B: AS_A, AS_N: AS_M, AS_M: AS_N}
        sdx_of = {AS_A: 1, AS_B: 1, AS_N: 2, AS_M: 2}
        for _ in range(60):
            n_policies = rng.randint(1, 4)
            policies = []
            for owner in rng.sample(owners, n_policies):
                policies.append(DeflectionPolicy(
                    owner=owner,
                    sdx_id=sdx_of[owner],
                    rule=random_rule(8, rng),
                    deflect_to=deflect_targets[owner],
                    prefix=fx.prefix,
                ))
            oracle_cycles = {
                loop.cycle
                for loop in forwarding_oracle(fx.graph, fx.rib, policies,
                                              fx.prefix)
            }
            assert oracle_cycles == packet_cycles(fx.graph, fx.rib,
                                                  policies, fx.prefix)

    def test_oracle_loop_headers_actually_loop(self):
        fx = two_exchange_fixture()
        rng = random.Random(88)
        for _ in range(20):
            policies = [
                DeflectionPolicy(owner=AS_B, sdx_id=1, rule=random_rule(8, rng),
                                 deflect_to=AS_A, prefix=fx.prefix),
                DeflectionPolicy(owner=AS_N, sdx_id=2, rule=random_rule(8, rng),
                                 deflect_to=AS_M, prefix=fx.prefix),
            ]
            for loop in forwarding_oracle(fx.graph, fx.rib, policies,
                                          fx.prefix):
                witness = Packet(8, loop.header.pattern)
                start = loop.cycle[0]
                _, cycle = simulate_packet(fx.rib, policies, fx.prefix,
                                           witness, start)
                assert cycle == loop.cycle

    def test_compliant_policies_never_loop(self):
        # Enumerate every compliant owner/target pair per fabric and give
        # each the widest possible header class; the full set together must
        # still leave the data plane loop-free.
        checked = 0
        for seed in range(12):
            graph, sites = generate_topology(n_as=50, n_sdx=5, seed=seed)
            for origin in graph.as_ids[:3]:
                rib = compute_routes(graph, origin)
                compliant = []
                for site in sites:
                    for owner in sorted(site.members):
                        route = rib.get(owner)
                        for target in sorted(site.members):
                            if target == owner:
                                continue
                            if route is not None and route.next_hop == target:
                                continue
                            policy = DeflectionPolicy(
                                owner=owner, sdx_id=site.sdx_id,
                                rule=TernaryRule.wildcard(8),
                                deflect_to=target, prefix="p")
                            if gr_compliant(policy, rib, graph):
                                compliant.append(policy)
                checked += len(compliant)
                assert forwarding_oracle(graph, rib, compliant, "p") == set()
                for single in compliant[:5]:
                    assert forwarding_oracle(graph, rib, [single],
                                             "p") == set()
        assert checked >= 20


# --------------------------------------------------------------------------
# cube arithmetic


class TestCubeMinus:
    def enumerate_matches(self, cube: TernaryRule) -> set[int]:
        return {
            v for v in range(1 << cube.width)
            if matches(cube, Packet(cube.width, v))
        }

    def test_difference_is_exact_and_disjoint(self):
        rng = random.Random(5)
        for _ in range(200):
            c = random_rule(8, rng)
            n = random_rule(8, rng)
            pieces = cube_minus(c, n)
            want = self.enumerate_matches(c) - self.enumerate_matches(n)
            got: set[int] = set()
            for piece in pieces:
                piece_set = self.enumerate_matches(piece)
                assert not piece_set & got  # disjoint cover
                got |= piece_set
            assert got == want

    def test_disjoint_cubes_subtract_to_identity(self):
        c = TernaryRule(8, 0b11000000, 0b11000000)
        n = TernaryRule(8, 0b00000000, 0b11000000)
        assert cube_minus(c, n) == [c]

    def test_cycle_normalization(self):
        assert normalize_cycle((4, 2, 9, 7)) == (2, 9, 7, 4)
        assert normalize_cycle((1,)) == (1,)
