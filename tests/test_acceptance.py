"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single pass/fail line (visible with -s; the -v test
status line carries the same verdict) and enforces its runtime budget.
"""

from __future__ import annotations

import itertools
import random
import time
from contextlib import contextmanager

from scipy import stats as scipy_stats

from prelude.bgpsim import (
    DeflectionPolicy,
    compute_routes,
    forwarding_oracle,
    generate_topology,
    gr_compliant,
    two_exchange_fixture,
)
from prelude.cli import main
from prelude.control import ControlPlane
from prelude.distinct_match import (
    DUMMY_HOP,
    LoopbackEndpoint,
    NextHopId,
    RuleEntry,
    SdxMatchService,
)
from prelude.harness import (
    ExperimentConfig,
    bench_cell,
    build_scenario,
    replay,
)
from prelude.rules import (
    FlowSpec,
    PROTO_TCP,
    TernaryRule,
    encode,
    overlaps,
    random_rule,
)
from test_control import oracle_churn


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, (
        f"criterion {number} blew its {budget_s:.0f}s budget: {elapsed:.1f}s")
    print(f"criterion {number} ({label}): PASS in {elapsed:.1f}s")


def all_ternary(width: int) -> list[TernaryRule]:
    rules = []
    for combo in itertools.product("01x", repeat=width):
        pattern = mask = 0
        for i, symbol in enumerate(combo):
            bit = width - 1 - i
            if symbol != "x":
                mask |= 1 << bit
                if symbol == "1":
                    pattern |= 1 << bit
        rules.append(TernaryRule(width, pattern, mask))
    return rules


def lift_to_width8(rules4: list[TernaryRule]) -> list[TernaryRule]:
    """Embed width-4 patterns in the top nibble of width-8 rules."""
    return [TernaryRule(8, r.pattern << 4, r.mask << 4) for r in rules4]


# --------------------------------------------------------------------------


def test_criterion_1_primitive_oracle_equivalence():
    with criterion(1, "primitive equals plaintext oracle", 120):
        queries = all_ternary(4)
        assert len(queries) == 81
        rng = random.Random(1001)
        for holder_index in range(200):
            service = SdxMatchService(sdx_id=2)
            entries = []
            for j in range(8):
                entry = RuleEntry(rule=random_rule(4, rng),
                                  next_hop=NextHopId(2, j + 1),
                                  owner=j + 1, prefix="p")
                entries.append(entry)
                service.register(entry)
            endpoint = LoopbackEndpoint(service, seed=holder_index)
            for query_rule in queries:
                expected = frozenset(
                    e.next_hop for e in entries
                    if overlaps(query_rule, e.rule))
                for backend in ("gmw", "yao"):
                    got = endpoint.query(query_rule, "p", backend=backend)
                    assert got.hops == expected, (
                        holder_index, backend, query_rule)


def test_criterion_2_backend_equivalence():
    with criterion(2, "gmw == yao == plaintext on width-104 pairs", 120):
        rng = random.Random(2002)
        for index in range(1000):
            holder_rule = random_rule(104, rng)
            query_rule = random_rule(104, rng)
            hop = NextHopId(7, index + 1)
            service = SdxMatchService(sdx_id=7)
            service.register(RuleEntry(rule=holder_rule, next_hop=hop,
                                       owner=1, prefix="p"))
            expected = frozenset(
                [hop] if overlaps(query_rule, holder_rule) else [])
            endpoint = LoopbackEndpoint(service, seed=index)
            got_gmw = endpoint.query(query_rule, "p", backend="gmw")
            got_yao = endpoint.query(query_rule, "p", backend="yao")
            assert got_gmw.hops == expected
            assert got_yao.hops == expected


def test_criterion_3_two_exchange_exactness():
    with criterion(3, "verifier matches oracle on two-exchange space", 300):
        fx = two_exchange_fixture()
        rules = lift_to_width8(all_ternary(4))

        def check(rule_b: TernaryRule, rule_n: TernaryRule,
                  transport: str) -> None:
            first = DeflectionPolicy(owner=2, sdx_id=1, rule=rule_b,
                                     deflect_to=1, prefix=fx.prefix)
            second = DeflectionPolicy(owner=3, sdx_id=2, rule=rule_n,
                                      deflect_to=4, prefix=fx.prefix)
            plane = ControlPlane(fx.graph, list(fx.sites),
                                 {fx.prefix: fx.rib}, transport=transport)
            assert plane.install(first).accepted
            verdict = plane.install(second)
            truth = bool(forwarding_oracle(fx.graph, fx.rib,
                                           [first, second], fx.prefix))
            assert verdict.accepted == (not truth), (rule_b, rule_n)

        # exhaustive over the lifted rule space, plaintext transport
        for rule_b in rules:
            for rule_n in rules:
                check(rule_b, rule_n, "direct")
        # spot-check the same contract over real query sessions
        rng = random.Random(3003)
        for _ in range(300):
            check(random_rule(8, rng), random_rule(8, rng), "smpc")


def test_criterion_4_compliant_deflections_never_loop():
    with criterion(4, "relationship-preserving deflections stay loop-free",
                   300):
        probe = encode(FlowSpec(ip_proto=PROTO_TCP, dst_port=80))
        total = 0
        for i in range(50):
            n_as = 100 + 3 * i
            graph, sites = generate_topology(n_as, 10, seed=4000 + i,
                                             sdx_size_range=(2, 6))
            origin = graph.as_ids[-1 - (i % 7)]
            rib = compute_routes(graph, origin)
            compliant = []
            for site in sites:
                for owner in sorted(site.members):
                    for target in sorted(site.members):
                        if owner == target or rib.get(target) is None:
                            continue
                        route = rib.get(owner)
                        if route is not None and route.next_hop == target:
                            continue
                        policy = DeflectionPolicy(
                            owner=owner, sdx_id=site.sdx_id, rule=probe,
                            deflect_to=target, prefix="p")
                        if gr_compliant(policy, rib, graph):
                            compliant.append(policy)
            total += len(compliant)
            assert forwarding_oracle(graph, rib, compliant, "p") == set()
        # the guarantee must have been exercised, not vacuously true
        assert total >= 100, total


def test_criterion_5_effectiveness_ordering():
    with criterion(5, "detector false-positive ordering", 600):
        for seed in range(1, 9):
            cfg = ExperimentConfig(seed=seed).validated()
            scenario = build_scenario(cfg)
            rows, _ = replay(scenario, cfg.detectors, cfg.thresholds)
            by = {(r.detector, r.path_threshold): r for r in rows}
            t_max = max(cfg.thresholds)
            assert t_max >= 2 * cfg.n_sdx + 1
            previous = None
            for t in cfg.thresholds:
                assert by["oracle", t].false_positives == 0
                fp = by["prelude", t].false_positives
                assert fp <= by["sidr", t].false_positives
                if previous is not None:
                    assert fp <= previous
                previous = fp
            assert by["prelude", t_max].false_positives == 0


def test_criterion_6_safety_under_churn():
    with criterion(6, "oracle stays empty through churn", 600):
        for seed in range(10):
            oracle_churn(6000 + seed, 6100 + seed, 6200 + seed, 500)


def test_criterion_7_round_and_latency_contract():
    with criterion(7, "round counts and delay floor", 300):
        for k in (1, 50, 500):
            gmw = bench_cell("gmw", k, 0.0, 2, 104, 7000 + k)
            assert gmw.online_rounds == gmw.and_depth + 1, k
            yao = bench_cell("yao", k, 0.0, 2, 104, 7000 + k)
            assert yao.online_rounds == 2, k
        delayed = bench_cell("yao", 1, 100.0, 1, 104, 77)
        assert delayed.wall_ms_mean >= 200.0
        delayed_gmw = bench_cell("gmw", 1, 100.0, 1, 104, 78)
        assert delayed_gmw.wall_ms_mean >= 200.0


def test_criterion_8_shuffle_uniformity(raw_hops):
    with criterion(8, "marked hop position is uniform", 300):
        width = 8
        marked_rule = TernaryRule(width, 0b10000001, 0b11111111)
        service = SdxMatchService(sdx_id=3)
        marked_hop = NextHopId(3, 99)
        service.register(RuleEntry(rule=marked_rule, next_hop=marked_hop,
                                   owner=99, prefix="p"))
        for j in range(7):
            # flip the top bit so these can never match the query
            service.register(RuleEntry(
                rule=TernaryRule(width, j, 0b10000000 | j),
                next_hop=NextHopId(3, j + 1), owner=j + 1, prefix="p"))
        endpoint = LoopbackEndpoint(service, seed=88)
        counts = [0] * 8
        for index in range(1000):
            got = endpoint.query(marked_rule, "p",
                                 backend="gmw" if index % 2 else "yao")
            raw = raw_hops[-1]
            assert got.hops == frozenset([marked_hop])
            assert len(raw) == 8
            assert raw.count(DUMMY_HOP) == 7
            counts[raw.index(marked_hop)] += 1
        result = scipy_stats.chisquare(counts)
        assert result.pvalue >= 0.01, (counts, result.pvalue)


def test_criterion_9_effectiveness_determinism(tmp_path):
    with criterion(9, "identical seeds give identical bytes", 120):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["effectiveness", "--seed", "31", "--out",
                     str(out_a)]) == 0
        assert main(["effectiveness", "--seed", "31", "--out",
                     str(out_b)]) == 0
        bytes_a = (out_a / "effectiveness.csv").read_bytes()
        bytes_b = (out_b / "effectiveness.csv").read_bytes()
        assert bytes_a == bytes_b
        assert bytes_a.startswith(b"experiment,detector,path_threshold")
