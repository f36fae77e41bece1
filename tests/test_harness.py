"""Config parsing, experiment runners, and CLI behavior."""

from __future__ import annotations

import itertools
import re
from dataclasses import replace

import pytest

from prelude.bgpsim import DeflectionPolicy, two_exchange_fixture
from prelude.cli import main, verify_fixture
from prelude.harness import (
    ConfigError,
    ExperimentConfig,
    ResultRow,
    Scenario,
    bench_cell,
    build_scenario,
    collect_spans,
    load_config,
    override,
    parse_event_line,
    replay,
    rows_from_events,
    run_effectiveness,
    run_microbench,
    run_pathlen,
    sdx_span,
)
from prelude.bgpsim import SdxSite
from prelude.distinct_match import LoopbackEndpoint
from prelude.harness.effectiveness import _port_pool
from prelude.rules import FlowSpec, PROTO_TCP, PROTO_UDP, decode, encode


WEB = encode(FlowSpec(ip_proto=PROTO_TCP, dst_port=80))
SSH = encode(FlowSpec(ip_proto=PROTO_TCP, dst_port=22))


# --------------------------------------------------------------------------
# configuration


class TestConfig:
    def test_defaults_need_only_a_seed(self):
        with pytest.raises(ConfigError):
            ExperimentConfig().validated()
        cfg = ExperimentConfig(seed=1).validated()
        assert cfg.detectors == ("oracle", "prelude", "sidr")

    def test_ini_parsing(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[run]\nseed = 42\nout = artifacts\n"
            "[topology]\nn_as = 60\nsite_size = 2 3\n"
            "[effectiveness]\nthresholds = 1 2 9\nport_pool = 2\n"
            "[microbench]\ndelays_ms = 0 5\nrepetitions = 4\n")
        cfg = load_config(path).validated()
        assert cfg.seed == 42
        assert cfg.out_dir == "artifacts"
        assert cfg.n_as == 60
        assert cfg.site_size == (2, 3)
        assert cfg.thresholds == (1, 2, 9)
        assert cfg.port_pool == 2
        assert cfg.delays_ms == (0.0, 5.0)
        assert cfg.repetitions == 4
        # untouched knobs keep their defaults
        assert cfg.n_sdx == 8

    def test_config_errors(self, tmp_path):
        cases = [
            "[nosuch]\nx = 1\n",
            "[run]\nbogus = 1\n",
            "[run]\nseed = pony\n",
            "[topology]\nsite_size = 4\n",
        ]
        for body in cases:
            path = tmp_path / "bad.ini"
            path.write_text(body)
            with pytest.raises(ConfigError):
                load_config(path)
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.ini")

    def test_a_site_size_of_three_integers_is_named_by_its_section(
            self, tmp_path):
        for body, name in (("[topology]\nsite_size = 3 4 5\n",
                            "[topology] site_size"),
                           ("[pathlen]\nsite_size = 3 4 5\n",
                            "[pathlen] site_size")):
            path = tmp_path / "bad.ini"
            path.write_text(body)
            with pytest.raises(ConfigError) as caught:
                load_config(path)
            assert str(caught.value) == (
                f"{name} takes exactly two integers")

    def test_validation_rejects_nonsense(self):
        bad = [
            dict(seed=-1),
            dict(seed=1, n_as=2),
            dict(seed=1, site_size=(1, 4)),
            dict(seed=1, policy_family="vibes"),
            dict(seed=1, thresholds=()),
            dict(seed=1, detectors=("oracle", "psychic")),
            dict(seed=1, backends=("gmw", "rsa")),
            dict(seed=1, repetitions=0),
        ]
        for kwargs in bad:
            with pytest.raises(ConfigError):
                ExperimentConfig(**kwargs).validated()

    @pytest.mark.parametrize("command,body,key", [
        ("effectiveness", "[topology]\nn_as = 10\nsite_size = 2 20\n",
         "[topology] site_size"),
        ("pathlen", "[topology]\nn_as = 10\n[pathlen]\nsite_size = 3 11\n",
         "[pathlen] site_size"),
        ("effectiveness", "[effectiveness]\nn_prefixes = 60\n",
         "[effectiveness] n_prefixes"),
        ("microbench", "[microbench]\nrule_counts = 5000\n",
         "[microbench] rule_counts"),
        ("effectiveness", "[effectiveness]\nn_policies = -3\n",
         "[effectiveness] n_policies"),
        ("pathlen", "[pathlen]\nsamples = 0\n", "[pathlen] samples"),
        ("microbench", "[microbench]\ndelays_ms = 1 inf\n",
         "[microbench] delays_ms"),
        ("microbench", "[microbench]\ndelays_ms = nan\n",
         "[microbench] delays_ms"),
        ("effectiveness",
         "[effectiveness]\ndetectors = sidr sidr\nthresholds = 6\n",
         "[effectiveness] detectors"),
        ("effectiveness",
         "[effectiveness]\ndetectors = oracle\nthresholds = 2 2\n",
         "[effectiveness] thresholds"),
        ("microbench", "[microbench]\nbackends = gmw gmw\n",
         "[microbench] backends"),
        ("microbench", "[microbench]\nrule_counts = 1 1\n",
         "[microbench] rule_counts"),
        ("microbench", "[microbench]\ndelays_ms = 1 1.0\n",
         "[microbench] delays_ms"),
        ("effectiveness", "[effectiveness]\ndetectors =\n",
         "[effectiveness] detectors is empty"),
        ("effectiveness", "[effectiveness]\nthresholds =\n",
         "[effectiveness] thresholds is empty"),
        ("microbench", "[microbench]\nbackends =\n",
         "[microbench] backends is empty"),
        ("microbench", "[microbench]\nrule_counts =\n",
         "[microbench] rule_counts is empty"),
        ("microbench", "[microbench]\ndelays_ms =\n",
         "[microbench] delays_ms is empty"),
    ], ids=["site_size", "pathlen_site_size", "n_prefixes", "rule_counts",
            "n_policies", "pathlen_samples", "delays_ms_inf", "delays_ms_nan",
            "detectors_repeated", "thresholds_repeated", "backends_repeated",
            "rule_counts_repeated", "delays_ms_repeated", "detectors_empty",
            "thresholds_empty", "backends_empty", "rule_counts_empty",
            "delays_ms_empty"])
    def test_validation_refuses_what_a_runner_cannot_run(
            self, tmp_path, capsys, command, body, key):
        # each of these crashed its runner, or wrote an empty or miscounted
        # table
        path = tmp_path / "bad.ini"
        path.write_text("[run]\nseed = 1\n" + body)
        with pytest.raises(ConfigError, match=re.escape(key)):
            load_config(path).validated()
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(path), "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command,body,message", [
        ("pathlen", "[pathlen]\nsamples = 0\n",
         "[pathlen] samples must be at least 1"),
        ("effectiveness", "[effectiveness]\nfamily = vibes\n",
         "unknown [effectiveness] family: ['vibes']; "
         "choose from equality, mixed"),
    ], ids=["samples", "family"])
    def test_a_refusal_names_the_key_a_user_wrote(self, tmp_path, capsys,
                                                  command, body, message):
        path = tmp_path / "bad.ini"
        path.write_text("[run]\nseed = 1\n" + body)
        with pytest.raises(ConfigError) as caught:
            load_config(path).validated()
        assert str(caught.value) == message
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(path), "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_the_seed_refusals_are_unchanged(self):
        for kwargs, message in (
                ({}, "a seed is required (config [run] or --seed)"),
                ({"seed": -1}, "seed must fit in 64 bits")):
            with pytest.raises(ConfigError) as caught:
                ExperimentConfig(**kwargs).validated()
            assert str(caught.value) == message

    @pytest.mark.parametrize("body,fault", [
        ("[run]\nseed = 1\nseed = 2\n", "option 'seed' in section 'run'"),
        ("[run]\nseed = 1\n[run]\nout = x\n", "section 'run' already"),
        ("seed = 1\n", "no section headers"),
        (b"[run]\nout = \xff\n", "can't decode"),
    ], ids=["repeated_key", "repeated_section", "no_section", "not_utf8"])
    def test_a_malformed_file_is_a_usage_error(self, tmp_path, capsys, body,
                                               fault):
        path = tmp_path / "bad.ini"
        if isinstance(body, bytes):
            path.write_bytes(body)
        else:
            path.write_text(body)
        with pytest.raises(ConfigError) as caught:
            load_config(path)
        assert str(path) in str(caught.value)
        assert fault in str(caught.value)
        with pytest.raises(SystemExit) as exc:
            main(["pathlen", "--config", str(path)])
        assert exc.value.code == 2
        assert fault in capsys.readouterr().err

    def test_a_percent_sign_is_only_a_character(self, tmp_path):
        out = tmp_path / "pct%dir"
        path = tmp_path / "run.ini"
        path.write_text(f"[run]\nseed = 1\nout = {out}\n"
                        "[pathlen]\nsamples = 5\n")
        assert load_config(path).out_dir == str(out)
        assert main(["pathlen", "--config", str(path)]) == 0
        assert (out / "pathlen.csv").exists()

    def test_cli_overrides_win(self):
        cfg = ExperimentConfig(seed=1, out_dir="x")
        assert override(cfg).seed == 1
        got = override(cfg, seed=9, out_dir="y")
        assert (got.seed, got.out_dir) == (9, "y")


# --------------------------------------------------------------------------
# result rows


class TestResultRow:
    def test_rates(self):
        row = ResultRow("effectiveness", "prelude", 3,
                        installed=20, rejected=6, true_loops=4,
                        false_positives=2)
        assert row.correct == 16
        assert row.fp_rate == 2 / 16
        assert row.fp_rate_all == 2 / 20

    def test_zero_denominators(self):
        row = ResultRow("effectiveness", "oracle", 1,
                        installed=0, rejected=0, true_loops=0,
                        false_positives=0)
        assert row.fp_rate == 0.0

    def test_counter_invariants(self):
        bad = [
            dict(installed=5, rejected=6, true_loops=0, false_positives=0),
            dict(installed=5, rejected=2, true_loops=6, false_positives=0),
            dict(installed=5, rejected=2, true_loops=0, false_positives=3),
            dict(installed=5, rejected=5, true_loops=4, false_positives=2),
            dict(installed=-1, rejected=0, true_loops=0, false_positives=0),
        ]
        for kwargs in bad:
            with pytest.raises(ValueError):
                ResultRow("effectiveness", "prelude", 1, **kwargs)


# --------------------------------------------------------------------------
# effectiveness study


def fixture_scenario(arrivals) -> Scenario:
    fx = two_exchange_fixture()
    return Scenario(fx.graph, tuple(fx.sites), {fx.prefix: fx.rib},
                    tuple(arrivals))


class TestEffectiveness:
    def test_two_exchange_micro_scenario(self):
        fx = two_exchange_fixture()
        ssh_policy = DeflectionPolicy(owner=3, sdx_id=2, rule=SSH,
                                      deflect_to=4, prefix=fx.prefix)
        scenario = fixture_scenario(
            [fx.deflect_b_to_a, fx.deflect_n_to_m, ssh_policy])
        rows, _ = replay(scenario, ("oracle", "prelude", "sidr"), (6,))
        by = {r.detector: r for r in rows}
        assert by["oracle"].true_loops == 1
        assert by["prelude"].rejected == 1
        assert by["prelude"].false_positives == 0
        assert by["sidr"].rejected >= 1
        assert by["sidr"].false_positives >= 1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_ordering_properties(self, seed):
        cfg = ExperimentConfig(seed=seed).validated()
        scenario = build_scenario(cfg)
        assert scenario.arrivals
        rows, events = replay(scenario, cfg.detectors, cfg.thresholds)
        by = {(r.detector, r.path_threshold): r for r in rows}
        t_max = max(cfg.thresholds)
        previous = None
        for t in cfg.thresholds:
            assert by["oracle", t].false_positives == 0
            assert by["oracle", t].rejected == by["oracle", t].true_loops
            fp = by["prelude", t].false_positives
            assert fp <= by["sidr", t].false_positives
            if previous is not None:
                assert fp <= previous
            previous = fp
        assert by["prelude", t_max].false_positives == 0
        # sidr actually pays for being match-agnostic on these workloads
        assert by["sidr", t_max].false_positives > 0

    def test_rows_rederivable_from_events(self):
        cfg = ExperimentConfig(seed=5).validated()
        scenario = build_scenario(cfg)
        rows, events = replay(scenario, cfg.detectors, cfg.thresholds)
        assert rows_from_events(events) == rows
        line = events[0].line()
        assert parse_event_line(line) == events[0]

    def test_the_mixed_family_over_a_wide_port_pool(self):
        cfg = ExperimentConfig(seed=3, policy_family="mixed",
                               port_pool=14).validated()
        pool = _port_pool(cfg.port_pool)
        assert pool[-2:] == (10000, 10001)  # past the 12 named ports
        scenario = build_scenario(cfg)
        seen = set()
        for arrival in scenario.arrivals:
            spec = decode(arrival.rule)
            field = "src_port" if spec.dst_port is None else "dst_port"
            assert spec.ip_proto in (PROTO_TCP, PROTO_UDP)
            assert getattr(spec, field) in pool
            assert spec == FlowSpec(ip_proto=spec.ip_proto,
                                    **{field: getattr(spec, field)})
            seen.add((spec.ip_proto, field))
        assert seen == {(proto, field) for proto in (PROTO_TCP, PROTO_UDP)
                        for field in ("src_port", "dst_port")}
        rows, events = replay(scenario, cfg.detectors, cfg.thresholds)
        cells = [(d, t) for d in cfg.detectors for t in cfg.thresholds]
        assert rows_from_events(events, cells) == rows

    def test_no_arrivals_still_give_a_zero_row_per_cell(self):
        rows, events = replay(fixture_scenario([]), ("oracle", "sidr"),
                              (1, 6))
        assert events == []
        assert [(r.detector, r.path_threshold) for r in rows] == [
            ("oracle", 1), ("oracle", 6), ("sidr", 1), ("sidr", 6)]
        assert all((r.installed, r.rejected, r.true_loops,
                    r.false_positives) == (0, 0, 0, 0) for r in rows)

    def test_run_writes_deterministic_csv(self, tmp_path):
        cfg = ExperimentConfig(seed=9, n_policies=12,
                               thresholds=(1, 4),
                               out_dir=str(tmp_path / "a"))
        paths_a = run_effectiveness(cfg)
        paths_b = run_effectiveness(replace(cfg, out_dir=str(tmp_path / "b")))
        for a, b in zip(paths_a, paths_b):
            assert a.read_bytes() == b.read_bytes()
        header = paths_a[0].read_text().splitlines()[0]
        assert header.startswith("experiment,detector,path_threshold")
        derived = rows_from_events([
            parse_event_line(line)
            for line in paths_a[1].read_text().splitlines()])
        assert len(derived) == 2 * 3

    def test_seed_is_required(self, tmp_path):
        with pytest.raises(ConfigError):
            run_effectiveness(ExperimentConfig(out_dir=str(tmp_path)))


# --------------------------------------------------------------------------
# path-length study


class TestPathlen:
    def test_span_counting(self):
        sites = [SdxSite(1, frozenset({1, 2})), SdxSite(2, frozenset({3, 4}))]
        assert sdx_span(1, (2, 9, 8), sites) == 1
        assert sdx_span(1, (2, 3, 4, 9), sites) == 2
        assert sdx_span(2, (3, 4), sites) == 1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_gr_curve_dominates(self, seed):
        cfg = ExperimentConfig(seed=seed, pathlen_samples=300).validated()
        spans = collect_spans(cfg)
        assert len(spans["random"]) == 300
        assert len(spans["gr"]) >= 30

        def cdf(xs, top):
            return [sum(1 for x in xs if x <= v) / len(xs)
                    for v in range(1, top + 1)]

        top = max(max(spans["gr"]), max(spans["random"]))
        gr = cdf(spans["gr"], top)
        rnd = cdf(spans["random"], top)
        assert gr[-1] == 1.0 and rnd[-1] == 1.0
        assert all(g >= r for g, r in zip(gr, rnd))
        # any deflected path that rides another fabric counts both ends
        assert min(spans["random"]) >= 1

    def test_run_pathlen_csv(self, tmp_path):
        cfg = ExperimentConfig(seed=2, pathlen_samples=120,
                               out_dir=str(tmp_path))
        (path,) = run_pathlen(cfg)
        lines = path.read_text().splitlines()
        assert lines[0] == "experiment,mode,sdx_count,cumulative,samples"
        modes = {line.split(",")[1] for line in lines[1:]}
        assert modes == {"gr", "random"}
        for mode in modes:
            last = [l for l in lines[1:] if l.split(",")[1] == mode][-1]
            assert last.split(",")[3] == "1.000000"


# --------------------------------------------------------------------------
# micro-benchmarks


class TestMicrobench:
    def test_round_structure(self):
        gmw_1 = bench_cell("gmw", 1, 0.0, 2, 104, 7)
        gmw_9 = bench_cell("gmw", 9, 0.0, 2, 104, 7)
        assert gmw_1.online_rounds == gmw_1.and_depth + 1
        assert gmw_9.online_rounds == gmw_9.and_depth + 1
        yao_1 = bench_cell("yao", 1, 0.0, 2, 104, 7)
        yao_9 = bench_cell("yao", 9, 0.0, 2, 104, 7)
        assert yao_1.online_rounds == yao_9.online_rounds == 2
        assert gmw_1.flights == gmw_9.flights == 6
        assert yao_1.flights == yao_9.flights == 2
        assert yao_9.setup_bytes > gmw_9.setup_bytes
        assert gmw_9.online_bytes > 0

    @pytest.mark.parametrize("name", ["and_depth", "online_rounds",
                                      "flights", "setup_bytes",
                                      "online_bytes"])
    def test_a_counter_that_varies_is_named(self, monkeypatch, name):
        real = LoopbackEndpoint.query
        bumps = itertools.count()

        def query(self, *args, stats_out, **kwargs):
            result = real(self, *args, stats_out=stats_out, **kwargs)
            stats = stats_out[-1]
            setattr(stats, name, getattr(stats, name) + next(bumps))
            return result

        monkeypatch.setattr(LoopbackEndpoint, "query", query)
        with pytest.raises(AssertionError, match=name):
            bench_cell("gmw", 1, 0.0, 2, 8, 7)

    def test_delay_puts_a_floor_under_wall_time(self):
        cell = bench_cell("yao", 1, 15.0, 2, 104, 7)
        assert cell.wall_ms_mean >= 30.0

    def test_run_microbench_csv(self, tmp_path):
        cfg = ExperimentConfig(seed=3, rule_counts=(1, 4),
                               delays_ms=(0.0,), backends=("gmw", "yao"),
                               repetitions=2, out_dir=str(tmp_path))
        (path,) = run_microbench(cfg)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 2 * 2
        assert lines[0].startswith("experiment,backend,k,delay_ms")
        rows = [dict(zip(lines[0].split(","), line.split(",")))
                for line in lines[1:]]
        assert [row["flights"] for row in rows] == ["6", "6", "2", "2"]


# --------------------------------------------------------------------------
# command line


class TestCli:
    def test_effectiveness_command(self, tmp_path, capsys):
        rc = main(["effectiveness", "--seed", "4", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "effectiveness.csv" in out
        assert (tmp_path / "effectiveness.csv").exists()

    def test_config_file_drives_the_run(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nseed = 11\n"
                       "[effectiveness]\nn_policies = 8\nthresholds = 2\n")
        rc = main(["effectiveness", "--config", str(ini), "--out",
                   str(tmp_path / "res")])
        assert rc == 0
        body = (tmp_path / "res" / "effectiveness.csv").read_text()
        assert ",2," in body.splitlines()[1]

    def test_missing_seed_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["pathlen", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_verify_fixture_takes_only_a_seed(self, tmp_path, capsys):
        for option in ("--out", "--config"):
            with pytest.raises(SystemExit) as exc:
                main(["verify-fixture", option, str(tmp_path)])
            assert exc.value.code == 2
            assert option in capsys.readouterr().err

    def test_verify_fixture(self, capsys):
        assert verify_fixture(seed=2)
        out = capsys.readouterr().out
        assert "reject" in out
        assert "oracle loops over active rules: []" in out
