"""Verifier node, exploration, baseline, and churn-safety tests."""

from __future__ import annotations

import copy
import gc
import random
import weakref

import pytest

from prelude import control
from prelude.bgpsim import (
    AsGraph,
    DeflectionPolicy,
    PolicyError,
    SdxSite,
    compute_routes,
    forwarding_oracle,
    generate_policies,
    generate_topology,
    two_exchange_fixture,
)
from prelude.control import (
    ACCEPT,
    BUDGET_EXHAUSTED,
    DEFAULT_BUDGET,
    ControlPlane,
    LOOP_DETECTED,
    QUERY_FAILED,
    REJECT,
    SAFE,
    StaticMatchView,
    Verdict,
    explore_deflection,
    sidr_baseline,
    verdict_of,
)
from prelude.distinct_match import NextHopId, QueryAborted, RuleEntry
from prelude.rules import (
    FlowSpec,
    PROTO_TCP,
    TernaryRule,
    encode,
    overlaps,
    random_rule,
)


WEB = encode(FlowSpec(ip_proto=PROTO_TCP, dst_port=80))
SSH = encode(FlowSpec(ip_proto=PROTO_TCP, dst_port=22))


def active_entries(plane: ControlPlane) -> dict[int, list[RuleEntry]]:
    """Each exchange's active entries."""
    return {sdx_id: [r.entry for r in node.registry.values() if r.active]
            for sdx_id, node in plane.nodes.items()}


def sidr_verdict(plane: ControlPlane, policy: DeflectionPolicy,
                 budget: int = DEFAULT_BUDGET) -> Verdict:
    """The SIDR baseline's verdict on ``policy`` over the plane's tables,
    once the plane has found the policy well formed."""
    plane.validate(policy)
    entries = {sdx_id: node.service.entries_for(policy.prefix)
               for sdx_id, node in plane.nodes.items()}
    view = StaticMatchView(plane.sites, {policy.prefix: plane.rib(
        policy.prefix)}, entries)
    return sidr_baseline(view, policy, budget)


def fixture_plane(transport: str = "direct", **kwargs) -> ControlPlane:
    fx = two_exchange_fixture()
    plane = ControlPlane(fx.graph, list(fx.sites), {fx.prefix: fx.rib},
                         transport=transport, **kwargs)
    return plane


# --------------------------------------------------------------------------
# request and verdict invariants


class TestRequestInvariants:
    @staticmethod
    def assert_refused(plane, install, error):
        with pytest.raises(error):
            install()
        assert not any(e.kind == "install_request" for e in plane.events)
        assert all(not node.registry for node in plane.nodes.values())
        prefix = two_exchange_fixture().prefix
        assert all(node.service.entries_for(prefix) == []
                   for node in plane.nodes.values())

    def test_request_shape(self):
        # a request is a policy and a non-negative budget
        fx = two_exchange_fixture()
        plane = fixture_plane("direct")
        self.assert_refused(
            plane, lambda: plane.install(fx.deflect_b_to_a, budget=-1),
            ValueError)
        view = StaticMatchView(list(fx.sites), {fx.prefix: fx.rib}, {})
        with pytest.raises(ValueError, match="non-negative"):
            explore_deflection(view, fx.deflect_b_to_a, -1)
        assert explore_deflection(view, fx.deflect_b_to_a, 0).status == SAFE

    def test_owner_must_be_a_member_of_the_exchange(self):
        fx = two_exchange_fixture()
        plane = fixture_plane("direct")
        stranger = DeflectionPolicy(owner=3, sdx_id=1, rule=WEB,
                                    deflect_to=1, prefix=fx.prefix)
        self.assert_refused(plane, lambda: plane.install(stranger),
                            PolicyError)

    def test_unknown_exchange_is_a_policy_error(self):
        fx = two_exchange_fixture()
        plane = fixture_plane("direct")
        nowhere = DeflectionPolicy(owner=2, sdx_id=99, rule=WEB,
                                   deflect_to=1, prefix=fx.prefix)
        self.assert_refused(plane, lambda: plane.install(nowhere),
                            PolicyError)
        with pytest.raises(PolicyError, match="unknown exchange 99"):
            plane.install(nowhere)
        # the baseline judges only a policy the plane would install
        with pytest.raises(PolicyError, match="unknown exchange 99"):
            sidr_verdict(plane, nowhere)
        assert plane.events == []

    def test_unknown_backend_is_refused_at_construction(self):
        with pytest.raises(ValueError, match="unknown backend 'foo'"):
            fixture_plane("smpc", backend="foo")
        with pytest.raises(ValueError, match="unknown transport 'tcp'"):
            fixture_plane("tcp")

    def test_node_refuses_another_exchanges_policy(self):
        fx = two_exchange_fixture()
        plane = fixture_plane("direct")
        self.assert_refused(
            plane, lambda: plane.nodes[2].handle_install(fx.deflect_b_to_a, 4),
            ValueError)

    def test_verdict_shape(self):
        with pytest.raises(ValueError):
            Verdict(SAFE, closed_at=3)
        with pytest.raises(ValueError):
            Verdict(BUDGET_EXHAUSTED, closed_at=3)
        ok = Verdict(SAFE, rule_id="r1-1")
        assert ok.accepted and ok.decision == ACCEPT
        for reason in (LOOP_DETECTED, BUDGET_EXHAUSTED, QUERY_FAILED):
            no = Verdict(reason, 2 if reason == LOOP_DETECTED else None)
            assert not no.accepted and no.decision == REJECT


# --------------------------------------------------------------------------
# the two-exchange story, end to end over real sessions


class TestFixtureSequence:
    def test_install_reject_remove_retry(self):
        fx = two_exchange_fixture()
        plane = fixture_plane("smpc", backend="gmw", seed=11)

        first = plane.install(fx.deflect_b_to_a)
        assert first.accepted
        assert plane.active_policies() == [fx.deflect_b_to_a]

        second = plane.install(fx.deflect_n_to_m)
        assert second.decision == REJECT
        assert second.reason == LOOP_DETECTED
        assert second.closed_at in (1, 2)
        assert plane.active_policies(fx.prefix) == [fx.deflect_b_to_a]

        ssh_policy = DeflectionPolicy(owner=3, sdx_id=2, rule=SSH,
                                      deflect_to=4, prefix=fx.prefix)
        third = plane.install(ssh_policy)
        assert third.accepted

        assert plane.remove(2, first.rule_id)
        retry = plane.install(fx.deflect_n_to_m)
        assert retry.accepted
        active = set()
        for policy in plane.active_policies(fx.prefix):
            active.add(policy.owner)
        assert active == {3}
        assert forwarding_oracle(fx.graph, fx.rib,
                                 plane.active_policies(fx.prefix),
                                 fx.prefix) == set()

    def test_removing_one_of_two_equal_rules_keeps_the_other_in_the_table(
            self):
        # Both installs go active on one table entry; the entry must stay
        # in the table while either rule does, or N's deflection to M is
        # accepted over B's still-active deflection to A and they loop.
        fx = two_exchange_fixture()
        plane = fixture_plane("direct")
        first = plane.install(fx.deflect_b_to_a)
        assert plane.install(fx.deflect_b_to_a).accepted
        assert plane.remove(2, first.rule_id)
        assert plane.active_policies(fx.prefix) == [fx.deflect_b_to_a]
        assert plane.install(fx.deflect_n_to_m).reason == LOOP_DETECTED
        assert forwarding_oracle(fx.graph, fx.rib,
                                 plane.active_policies(fx.prefix),
                                 fx.prefix) == set()

    def test_removing_an_inactive_rule_leaves_the_table_alone(self, caplog):
        # A rejected install holds no registration, so removing it drops
        # none: the table, its tag and an active twin's equal entry stay.
        fx = two_exchange_fixture()
        plane = fixture_plane("smpc", seed=5)
        first = plane.install(fx.deflect_b_to_a)
        # an accepted rule at exchange 2 subscribes to exchange 1's rules
        assert plane.install(DeflectionPolicy(
            owner=3, sdx_id=2, rule=SSH, deflect_to=4,
            prefix=fx.prefix)).accepted
        lone = plane.install(fx.deflect_n_to_m)
        assert lone.reason == LOOP_DETECTED

        def boom(local, prefix, backend="gmw", **kwargs):
            raise QueryAborted("injected")

        endpoint = plane.nodes[2].endpoint
        endpoint.query = boom
        twin = plane.install(fx.deflect_b_to_a)  # first's entry, rejected
        del endpoint.query  # back to real sessions
        assert twin.reason == QUERY_FAILED
        entry = plane.nodes[1].registry[first.rule_id].entry
        assert plane.nodes[1].registry[twin.rule_id].entry == entry
        for sdx_id, policy, verdict in ((2, fx.deflect_n_to_m, lone),
                                        (1, fx.deflect_b_to_a, twin)):
            service = plane.nodes[sdx_id].service
            table = service.entries_for(fx.prefix)
            tag = service._tag(fx.prefix)
            n_events = len(plane.events)
            with caplog.at_level("WARNING"):
                assert plane.remove(policy.owner, verdict.rule_id)
            assert "deregister of unknown entry" not in caplog.text
            assert service.entries_for(fx.prefix) == table
            assert service._tag(fx.prefix) == tag
            assert [(e.sdx, e.kind) for e in plane.events[n_events:]] == [
                (sdx_id, "remove")]
        assert entry in plane.nodes[1].service.entries_for(fx.prefix)
        assert fx.deflect_b_to_a in plane.active_policies(fx.prefix)

    def test_subscription_and_notification_flow(self):
        fx = two_exchange_fixture()
        plane = fixture_plane("direct")
        first = plane.install(fx.deflect_b_to_a)
        node1 = plane.nodes[1]
        record = node1.registry[first.rule_id]
        assert record.subscribers == set()

        ssh_policy = DeflectionPolicy(owner=3, sdx_id=2, rule=SSH,
                                      deflect_to=4, prefix=fx.prefix)
        plane.install(ssh_policy)
        # the accepted ssh rule consulted exchange 1 and subscribed there
        assert record.subscribers == {2}

        plane.remove(2, first.rule_id)
        notifies = [e for e in plane.events if e.kind == "notify"]
        assert len(notifies) == 1
        assert notifies[0].detail["to"] == 2
        reverifies = [e for e in plane.events_at(2)
                      if e.kind == "reverify"]
        assert len(reverifies) == 1
        # the dependent ssh rule stays active: a removal cannot loop it
        assert plane.active_policies(fx.prefix) == [ssh_policy]

    def test_remove_unknown_rule_is_a_noop(self, caplog):
        plane = fixture_plane("direct")
        n_events = len(plane.events)
        with caplog.at_level("WARNING"):
            assert not plane.remove(2, "r1-99")
        assert "unknown rule" in caplog.text
        # logged once, by the plane, which found the rule in no registry
        (event,) = plane.events[n_events:]
        assert (event.sdx, event.kind, event.detail) == (
            0, "remove_unknown", {"rule_id": "r1-99", "owner": 2})

    def test_removal_by_another_owner_is_refused(self, caplog):
        fx = two_exchange_fixture()
        plane = fixture_plane("direct")
        first = plane.install(fx.deflect_b_to_a)
        plane.install(DeflectionPolicy(owner=3, sdx_id=2, rule=SSH,
                                       deflect_to=4, prefix=fx.prefix))
        record = plane.nodes[1].registry[first.rule_id]
        assert record.subscribers == {2}
        n_events = len(plane.events)
        with caplog.at_level("WARNING"):
            assert not plane.remove(3, first.rule_id)
        assert plane.nodes[1].registry[first.rule_id] is record
        assert record.active
        assert fx.deflect_b_to_a in plane.active_policies(fx.prefix)
        events = plane.events[n_events:]
        kinds = [e.kind for e in events]
        assert "remove" not in kinds and "notify" not in kinds
        # its own event, naming both owners; not an unknown rule's
        assert "remove_unknown" not in kinds
        (refused,) = [e for e in events if e.kind == "remove_refused"]
        assert refused.detail == {"rule_id": first.rule_id, "owner": 3,
                                  "rule_owner": fx.deflect_b_to_a.owner}
        assert "owner mismatch" in caplog.text
        assert "unknown rule" not in caplog.text

    def test_query_failure_rejects_conservatively(self):
        fx = two_exchange_fixture()
        plane = fixture_plane("smpc", seed=5)
        plane.install(fx.deflect_b_to_a)

        def boom(local, prefix, backend="gmw", **kwargs):
            raise QueryAborted("injected")

        plane.nodes[1].endpoint.query = boom
        verdict = plane.install(fx.deflect_n_to_m)
        assert verdict.decision == REJECT
        assert verdict.reason == QUERY_FAILED
        assert plane.active_policies(fx.prefix) == [fx.deflect_b_to_a]


# --------------------------------------------------------------------------
# verdicts against the forwarding oracle on the two-exchange topology


class TestTwoSdxExactness:
    def test_random_rule_pairs_match_oracle(self):
        fx = two_exchange_fixture()
        rng = random.Random(41)
        for _ in range(150):
            rule_b = random_rule(8, rng)
            rule_n = random_rule(8, rng)
            first = DeflectionPolicy(owner=2, sdx_id=1, rule=rule_b,
                                     deflect_to=1, prefix=fx.prefix)
            second = DeflectionPolicy(owner=3, sdx_id=2, rule=rule_n,
                                      deflect_to=4, prefix=fx.prefix)
            plane = ControlPlane(fx.graph, list(fx.sites),
                                 {fx.prefix: fx.rib})
            assert plane.install(first).accepted
            verdict = plane.install(second)
            loops = forwarding_oracle(fx.graph, fx.rib, [first, second],
                                      fx.prefix)
            if loops:
                assert verdict.decision == REJECT, (rule_b, rule_n)
                assert verdict.reason == LOOP_DETECTED
            else:
                assert verdict.accepted, (rule_b, rule_n)

    def test_http_ssh_disjointness_is_seen(self):
        fx = two_exchange_fixture()
        plane = fixture_plane("direct")
        plane.install(fx.deflect_b_to_a)
        ssh_policy = DeflectionPolicy(owner=3, sdx_id=2, rule=SSH,
                                      deflect_to=4, prefix=fx.prefix)
        assert plane.install(ssh_policy).accepted


# --------------------------------------------------------------------------
# budget semantics on a three-exchange chain


def chain_setup(loop_back: bool):
    g = AsGraph()
    g.add_customer_provider(customer=1, provider=9)
    g.add_customer_provider(customer=2, provider=3)
    g.add_customer_provider(customer=3, provider=9)
    g.add_customer_provider(customer=4, provider=5)
    g.add_customer_provider(customer=5, provider=9)
    if loop_back:
        g.add_customer_provider(customer=6, provider=1)
    else:
        g.add_customer_provider(customer=6, provider=9)
    sites = [
        SdxSite(1, frozenset({1, 2})),
        SdxSite(2, frozenset({3, 4})),
        SdxSite(3, frozenset({5, 6})),
    ]
    rib = compute_routes(g, 9)
    plane = ControlPlane(g, sites, {"p": rib})
    chain = [
        DeflectionPolicy(owner=3, sdx_id=2, rule=WEB, deflect_to=4,
                         prefix="p"),
        DeflectionPolicy(owner=5, sdx_id=3, rule=WEB, deflect_to=6,
                         prefix="p"),
    ]
    head = DeflectionPolicy(owner=1, sdx_id=1, rule=WEB, deflect_to=2,
                            prefix="p")
    return plane, chain, head


class TestBudget:
    def test_exhaustion_then_acceptance(self):
        plane, chain, head = chain_setup(loop_back=False)
        assert plane.install(chain[1], budget=6).accepted
        assert plane.install(chain[0], budget=6).accepted
        low = plane.install(head, budget=1)
        assert (low.decision, low.reason) == (REJECT, BUDGET_EXHAUSTED)
        zero = plane.install(head, budget=0)
        assert zero.reason == BUDGET_EXHAUSTED
        high = plane.install(head, budget=2)
        assert high.accepted

    def test_deep_loop_found_once_budget_reaches_it(self):
        plane, chain, head = chain_setup(loop_back=True)
        assert plane.install(chain[1], budget=6).accepted
        assert plane.install(chain[0], budget=6).accepted
        low = plane.install(head, budget=1)
        assert low.reason == BUDGET_EXHAUSTED
        deep = plane.install(head, budget=2)
        assert (deep.decision, deep.reason) == (REJECT, LOOP_DETECTED)
        deeper = plane.install(head, budget=6)
        assert deeper.reason == LOOP_DETECTED

    def test_rejected_set_shrinks_with_budget(self):
        rng = random.Random(13)
        fx = two_exchange_fixture()
        graph, sites = generate_topology(n_as=40, n_sdx=5, seed=23)
        ribs = {"p": compute_routes(graph, graph.as_ids[0])}
        pool = generate_policies(graph, sites, ribs, seed=9)[:40]
        entries_state: dict[int, list] = {}
        plane = ControlPlane(graph, sites, ribs)
        for policy in pool:
            try:
                plane.install(policy, budget=6)
            except PolicyError:
                continue
        entries = active_entries(plane)
        view = StaticMatchView(sites, ribs, entries)
        previous_rejects: set[int] | None = None
        for budget in (0, 1, 2, 4, 8):
            rejects = set()
            for index, policy in enumerate(pool):
                exploration = explore_deflection(view, policy, budget)
                if exploration.status != SAFE:
                    rejects.add(index)
            if previous_rejects is not None:
                assert rejects <= previous_rejects
            previous_rejects = rejects


# --------------------------------------------------------------------------
# the match-agnostic baseline


class TestSidrBaseline:
    def test_disjoint_rules_still_rejected(self):
        fx = two_exchange_fixture()
        plane = fixture_plane("direct")
        plane.install(fx.deflect_b_to_a)
        ssh_policy = DeflectionPolicy(owner=3, sdx_id=2, rule=SSH,
                                      deflect_to=4, prefix=fx.prefix)
        baseline = sidr_verdict(plane, ssh_policy)
        assert baseline.decision == REJECT
        assert baseline.reason == LOOP_DETECTED
        # while the match-aware verdict accepts
        assert plane.install(ssh_policy).accepted

    def test_genuine_loop_also_rejected(self):
        fx = two_exchange_fixture()
        plane = fixture_plane("direct")
        plane.install(fx.deflect_b_to_a)
        baseline = sidr_verdict(plane, fx.deflect_n_to_m)
        assert baseline.decision == REJECT

    def test_rejections_contain_the_match_aware_ones(self):
        rng = random.Random(3)
        fx = two_exchange_fixture()
        members = {1: (1, 2), 2: (3, 4)}
        for _ in range(200):
            plane = ControlPlane(fx.graph, list(fx.sites),
                                 {fx.prefix: fx.rib})
            n_pre = rng.randint(0, 3)
            for _ in range(n_pre):
                sdx_id = rng.choice((1, 2))
                owner, target = rng.sample(members[sdx_id], 2)
                policy = DeflectionPolicy(owner=owner, sdx_id=sdx_id,
                                          rule=random_rule(8, rng),
                                          deflect_to=target,
                                          prefix=fx.prefix)
                try:
                    plane.install(policy, budget=6)
                except PolicyError:
                    continue
            sdx_id = rng.choice((1, 2))
            owner, target = rng.sample(members[sdx_id], 2)
            candidate = DeflectionPolicy(owner=owner, sdx_id=sdx_id,
                                         rule=random_rule(8, rng),
                                         deflect_to=target,
                                         prefix=fx.prefix)
            budget = rng.choice((1, 2, 6))
            try:
                baseline = sidr_verdict(plane, candidate, budget=budget)
                aware = plane.install(candidate, budget=budget)
            except PolicyError:
                continue
            if aware.decision == REJECT:
                assert baseline.decision == REJECT, candidate


# --------------------------------------------------------------------------
# routing churn


def alternate_rib(fx, extra_provider: int):
    """Fixture routing state where `extra_provider` sells transit to Z."""
    graph = copy.deepcopy(fx.graph)
    graph.add_customer_provider(customer=5, provider=extra_provider)
    graph.validate()
    return graph, compute_routes(graph, 5)


class TestBgpUpdates:
    def test_update_reactivates_a_rejected_rule(self):
        fx = two_exchange_fixture()
        plane = fixture_plane("direct")
        assert plane.install(fx.deflect_b_to_a).accepted
        rejected = plane.install(fx.deflect_n_to_m)
        assert rejected.reason == LOOP_DETECTED

        # M now reaches the origin directly, so the deflected path
        # M -> B -> Z that fed the loop no longer exists.
        graph3, rib3 = alternate_rib(fx, extra_provider=4)
        verdicts = plane.bgp_update(fx.prefix, rib3)
        assert any(v.accepted for v in verdicts)
        owners = {p.owner for p in plane.active_policies(fx.prefix)}
        assert owners == {2, 3}
        assert forwarding_oracle(graph3, rib3,
                                 plane.active_policies(fx.prefix),
                                 fx.prefix) == set()

    def test_update_deactivates_a_rule_turning_unsafe(self):
        fx = two_exchange_fixture()
        graph3, rib3 = alternate_rib(fx, extra_provider=4)
        plane = ControlPlane(fx.graph, list(fx.sites), {fx.prefix: rib3})
        assert plane.install(fx.deflect_b_to_a).accepted
        assert plane.install(fx.deflect_n_to_m).accepted

        verdicts = plane.bgp_update(fx.prefix, fx.rib)
        assert any(v.decision == REJECT for v in verdicts)
        owners = {p.owner for p in plane.active_policies(fx.prefix)}
        assert owners == {2}
        assert forwarding_oracle(fx.graph, fx.rib,
                                 plane.active_policies(fx.prefix),
                                 fx.prefix) == set()

    def test_untouched_paths_produce_no_reverification(self):
        fx = two_exchange_fixture()
        plane = fixture_plane("direct")
        plane.install(fx.deflect_b_to_a)
        verdicts = plane.bgp_update(fx.prefix, fx.rib)
        assert verdicts == []


def oracle_churn(rng_seed: int, topology_seed: int, policy_seed: int,
                 steps: int, watch=None) -> None:
    """Random installs, removals and BGP updates on a 30-AS, 4-exchange
    plane over two prefixes; the forwarding oracle must stay empty after
    every step.  ``watch``, if given, is called with the plane before the
    first step."""
    rng = random.Random(rng_seed)
    graph, sites = generate_topology(n_as=30, n_sdx=4, seed=topology_seed)
    prefixes = ["pfx0", "pfx1"]
    origins = graph.as_ids[:2]
    base_ribs = {p: compute_routes(graph, o)
                 for p, o in zip(prefixes, origins)}
    variants = {p: [base_ribs[p]] for p in prefixes}
    for p, origin in zip(prefixes, origins):
        for _ in range(10):  # one peering variant, if one validates
            alt = copy.deepcopy(graph)
            a, b = rng.sample(graph.as_ids, 2)
            try:
                alt.add_peer(a, b)
                alt.validate()
            except Exception:
                continue
            variants[p].append(compute_routes(alt, origin))
            break
    available = generate_policies(graph, sites, base_ribs, seed=policy_seed)
    rng.shuffle(available)
    installed: list[tuple[int, str]] = []
    plane = ControlPlane(graph, sites, base_ribs)
    if watch is not None:
        watch(plane)
    current = dict(base_ribs)
    for step in range(steps):
        roll = rng.random()
        if roll < 0.55 and available:
            policy = available.pop()
            try:
                verdict = plane.install(policy,
                                        budget=rng.choice((1, 2, 4, 6)))
            except PolicyError:
                continue
            if verdict.rule_id is not None:
                installed.append((policy.owner, verdict.rule_id))
        elif roll < 0.8 and installed:
            owner, rule_id = installed.pop(rng.randrange(len(installed)))
            plane.remove(owner, rule_id)
        else:
            prefix = rng.choice(prefixes)
            current[prefix] = rng.choice(variants[prefix])
            plane.bgp_update(prefix, current[prefix])
        for prefix in prefixes:
            assert forwarding_oracle(graph, current[prefix],
                                     plane.active_policies(prefix),
                                     prefix) == set(), (rng_seed, step)


class TestChurnSafety:
    def test_oracle_stays_empty_through_mixed_events(self):
        for seed in (1, 2, 3):
            oracle_churn(seed, seed + 60, seed, 100)


def fresh_walks(plane: ControlPlane) -> dict[str, str]:
    """Each active rule's status from a fresh walk over a
    :class:`StaticMatchView` copy of the plane's tables, by rule id."""
    records = [r for node in plane.nodes.values()
               for r in node.registry.values() if r.active]
    prefixes = {r.entry.prefix for r in records}
    view = StaticMatchView(
        plane.sites, {p: plane.rib(p) for p in prefixes},
        {sdx_id: [e for p in sorted(prefixes)
                  for e in node.service.entries_for(p)]
         for sdx_id, node in plane.nodes.items()})
    return {r.rule_id: explore_deflection(view, r.policy, r.budget).status
            for r in records}


def check_removals_prune(seeds) -> dict[str, int]:
    """Run :func:`oracle_churn` on each seed, and at every entry a removal
    or a deactivation takes out of a table, check that each active rule
    whose fresh walk (:func:`fresh_walks`) read SAFE just before still
    reads SAFE just after.  Returns the entries taken out by removals and
    by deactivations, and the SAFE walks checked."""
    counts = {"remove": 0, "deactivate": 0, "kept_safe": 0}

    def watch(plane):
        for node in plane.nodes.values():
            def retire(record, kind, detail, retire=node._retire):
                if record.active:
                    counts[kind] += 1
                retire(record, kind, detail)

            def deregister(entry, deregister=node.service.deregister):
                before = fresh_walks(plane)
                deregister(entry)
                # the retired rule's entry has left its table, so its record
                # no longer counts as active
                for rule_id, status in fresh_walks(plane).items():
                    if before[rule_id] == SAFE:
                        assert status == SAFE, (seed, rule_id, entry)
                        counts["kept_safe"] += 1

            node._retire = retire
            node.service.deregister = deregister

    for seed in seeds:
        oracle_churn(seed, seed + 60, seed, 100, watch=watch)
    return counts


class TestRemovalsOnlyPrune:
    """A removal or a deactivation takes an entry out of a table, and that
    only prunes branches from every walk's tree: a fresh walk that read
    SAFE before reads SAFE after (the ``control`` docstring)."""

    def test_a_safe_walk_stays_safe_when_an_entry_goes(self):
        assert check_removals_prune(range(4, 9)) == {
            "remove": 140, "deactivate": 4, "kept_safe": 1187}


# --------------------------------------------------------------------------
# one answer path, each exchange asked once per walk


def generated_plane(seed: int) -> tuple[ControlPlane, list[DeflectionPolicy]]:
    graph, sites = generate_topology(n_as=60, n_sdx=5, seed=seed,
                                     sdx_size_range=(4, 8))
    rng = random.Random(seed)
    origins = rng.sample(graph.as_ids, 2)
    ribs = {f"pfx{i}": compute_routes(graph, origin)
            for i, origin in enumerate(origins)}
    pool = generate_policies(graph, sites, ribs, seed=seed)
    rng.shuffle(pool)
    return ControlPlane(graph, sites, ribs), pool[:60]


def churn(plane: ControlPlane, pool: list[DeflectionPolicy]) -> None:
    """Install the pool, then remove every third accepted rule."""
    accepted = []
    for policy in pool:
        try:
            verdict = plane.install(policy)
        except PolicyError:
            continue
        if verdict.accepted:
            accepted.append((policy.owner, verdict.rule_id))
    for owner, rule_id in accepted[::3]:
        plane.remove(owner, rule_id)


def targets_per_install(plane: ControlPlane) -> list[list[int]]:
    """The targets queried between each install request and its verdict."""
    walks: list[list[int]] = []
    current = None
    for event in plane.events:
        if event.kind == "install_request":
            current = []
        elif event.kind == "query_sent" and current is not None:
            current.append(event.detail["target"])
        elif event.kind == "verdict":
            walks.append(current)
            current = None
    return walks


def outcome(plane: ControlPlane) -> list[tuple]:
    return [(e.sdx, e.kind, sorted(e.detail.items())) for e in plane.events
            if e.kind in ("verdict", "activate", "deactivate", "reverify")]


class _Forgetful(dict):
    """An answer store that never hands back what it was given."""

    def get(self, key, default=None):
        return default


class RecomputingWalk(control._WalkState):
    """A walk that asks again every time it meets an exchange."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.answers = _Forgetful()


class TestOneQueryPerExchange:
    def test_no_target_is_asked_twice_in_one_walk(self, monkeypatch):
        for seed in (1, 2, 3):
            plane, pool = generated_plane(seed)
            churn(plane, pool)
            walks = targets_per_install(plane)
            assert walks
            for targets in walks:
                assert len(targets) == len(set(targets)), (seed, targets)

            with monkeypatch.context() as patch:
                patch.setattr(control, "_WalkState", RecomputingWalk)
                again, again_pool = generated_plane(seed)
                churn(again, again_pool)
            # the scenario repeats questions when no answer is kept ...
            assert any(len(t) > len(set(t))
                       for t in targets_per_install(again)), seed
            # ... and keeping them changes no verdict
            assert outcome(plane) == outcome(again), seed
            assert active_entries(plane) == active_entries(again)


class TestAnswerSources:
    def test_every_source_gives_the_same_answer(self):
        fx = two_exchange_fixture()
        rng = random.Random(77)
        members = {site.sdx_id: sorted(site.members) for site in fx.sites}
        for trial in range(6):
            entries: dict[int, list[RuleEntry]] = {}
            for sdx_id, ids in members.items():
                table = []
                for _ in range(rng.randint(0, 6)):
                    owner, target = rng.sample(ids, 2)
                    table.append(RuleEntry(
                        rule=random_rule(8, rng),
                        next_hop=NextHopId(sdx_id, target),
                        owner=owner, prefix=fx.prefix))
                entries[sdx_id] = list(dict.fromkeys(table))
            planes = [fixture_plane("direct"),
                      fixture_plane("smpc", backend="gmw", seed=trial),
                      fixture_plane("smpc", backend="yao", seed=trial)]
            for plane in planes:
                for sdx_id, table in entries.items():
                    for entry in table:
                        plane.nodes[sdx_id].service.register(entry)
            view = StaticMatchView(list(fx.sites), {fx.prefix: fx.rib},
                                   entries)
            rule = random_rule(8, rng)
            for origin, target in ((1, 1), (1, 2), (2, 1), (2, 2)):
                local = origin == target
                hits = [e for e in entries[target] if overlaps(rule, e.rule)]
                if local:
                    expected = sorted((e.next_hop, e.owner) for e in hits)
                else:
                    expected = sorted({(e.next_hop, None) for e in hits})
                got = sorted(view.query(origin, target, rule, fx.prefix))
                assert got == expected, (trial, origin, target)
                for plane in planes:
                    answer = plane.query(origin, target, rule, fx.prefix)
                    assert sorted(answer) == expected, (
                        trial, plane.transport, plane.backend, origin,
                        target)
                    hops = [hop for hop, _ in answer]
                    owners = [owner for _, owner in answer]
                    if local:
                        assert None not in owners
                    else:
                        assert len(hops) == len(set(hops))
                        assert set(owners) <= {None}


# --------------------------------------------------------------------------
# answers a rule keeps between its walks


class TestCachedAnswers:
    def test_a_removed_rule_takes_its_cached_answers_with_it(self):
        fx = two_exchange_fixture()
        plane = fixture_plane("smpc", seed=11)
        policy = fx.deflect_b_to_a
        verdict = plane.install(policy)
        record = plane.nodes[policy.sdx_id].registry[verdict.rule_id]
        # one answer per remote exchange the walk asked, none of its own
        assert set(record.answers) == record.queried == {2}
        assert record.answers[2].tag != 0
        dropped = weakref.ref(record)
        del record
        assert plane.remove(policy.owner, verdict.rule_id)
        gc.collect()
        assert dropped() is None

    def test_plaintext_queries_keep_no_answers(self):
        fx = two_exchange_fixture()
        plane = fixture_plane("direct")
        verdict = plane.install(fx.deflect_b_to_a)
        record = plane.nodes[fx.deflect_b_to_a.sdx_id].registry[
            verdict.rule_id]
        assert record.queried == {2} and record.answers == {}


class TestRemovalMonotonicity:
    def test_a_safe_walk_stays_safe_on_every_subset_of_its_entries(self):
        # Removing entries only shrinks answers, and a walk's search is
        # monotone in its answers, so a removal never turns a SAFE walk
        # into a rejection.  The entries are those a plane keeps active
        # after installing 60 policies, and every policy of the pool is
        # walked against them and against seeded subsets of them.
        turned = 0
        for seed in (1, 2, 3):
            plane, pool = generated_plane(seed)
            for policy in pool:
                try:
                    plane.install(policy)
                except PolicyError:
                    continue
            entries = active_entries(plane)
            ribs = {policy.prefix: plane.rib(policy.prefix)
                    for policy in pool}
            rng = random.Random(seed)
            safe = 0
            for policy in pool:
                full = explore_deflection(
                    StaticMatchView(plane.sites, ribs, entries),
                    policy, DEFAULT_BUDGET).status
                safe += full == SAFE
                for keep in (0.0, 0.25, 0.5, 0.75, 0.9):
                    subset = {sdx_id: [e for e in table
                                       if rng.random() < keep]
                              for sdx_id, table in entries.items()}
                    status = explore_deflection(
                        StaticMatchView(plane.sites, ribs, subset),
                        policy, DEFAULT_BUDGET).status
                    if full == SAFE:
                        assert status == SAFE, (seed, policy, keep)
                    turned += status != full
            assert safe, seed
        # the subsets do change verdicts, only never away from SAFE
        assert turned


# --------------------------------------------------------------------------
# privacy boundary, checked in the structured logs


class TestPrivacyBoundary:
    def test_holder_logs_know_only_prefix_count_and_requester(self):
        fx = two_exchange_fixture()
        plane = fixture_plane("smpc", seed=31)
        plane.install(fx.deflect_b_to_a)
        ssh_policy = DeflectionPolicy(owner=3, sdx_id=2, rule=SSH,
                                      deflect_to=4, prefix=fx.prefix)
        plane.install(ssh_policy)

        served = [e for e in plane.events if e.kind == "query_served"]
        assert served
        for event in served:
            assert set(event.detail) == {"prefix", "k", "from"}

        dump1 = "\n".join(e.line() for e in plane.events_at(1))
        dump2 = "\n".join(e.line() for e in plane.events_at(2))
        assert str(SSH.pattern) not in dump1
        assert str(SSH.mask) not in dump1
        assert str(WEB.pattern) not in dump2
        assert str(WEB.mask) not in dump2

    def test_event_lines_are_renderable(self):
        plane = fixture_plane("direct")
        fx = two_exchange_fixture()
        plane.install(fx.deflect_b_to_a)
        for event in plane.events:
            line = event.line()
            assert line.startswith(str(event.time))
            assert f"sdx={event.sdx}" in line


# --------------------------------------------------------------------------
# stateless pieces


class TestStatelessHelpers:
    def test_static_view_agnostic_superset(self):
        fx = two_exchange_fixture()
        plane = fixture_plane("direct")
        plane.install(fx.deflect_b_to_a)
        entries = active_entries(plane)
        ribs = {fx.prefix: fx.rib}
        # the baseline asks about a rule that matches all traffic
        view = StaticMatchView(list(fx.sites), ribs, entries)
        got_aware = view.query(2, 1, SSH, fx.prefix)
        got_agnostic = view.query(2, 1, TernaryRule.wildcard(SSH.width),
                                  fx.prefix)
        assert got_aware == []
        assert len(got_agnostic) == 1

    def test_sidr_baseline_function_matches_plane_wrapper(self):
        fx = two_exchange_fixture()
        plane = fixture_plane("direct")
        plane.install(fx.deflect_b_to_a)
        view = StaticMatchView(list(fx.sites), {fx.prefix: fx.rib},
                               active_entries(plane))
        direct = sidr_baseline(view, fx.deflect_n_to_m, budget=4)
        wrapped = sidr_verdict(plane, fx.deflect_n_to_m, budget=4)
        assert (direct.decision, direct.reason) == (
            wrapped.decision, wrapped.reason)

    def test_verdict_of_maps_statuses(self):
        from prelude.control import Exploration
        safe = Exploration(SAFE, None, frozenset())
        assert verdict_of(safe, "x").accepted
        loop = Exploration(LOOP_DETECTED, 2, frozenset({1}))
        v = verdict_of(loop)
        assert (v.decision, v.reason, v.closed_at) == (
            REJECT, LOOP_DETECTED, 2)
        failed = verdict_of(Exploration(QUERY_FAILED, 2, frozenset({2})))
        assert (failed.decision, failed.closed_at) == (REJECT, None)
