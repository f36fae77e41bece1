"""Command-line entry point for the experiment runners."""

from __future__ import annotations

import argparse
import sys

from .bgpsim import forwarding_oracle, two_exchange_fixture
from .control import ControlPlane
from .harness import (
    ConfigError,
    load_config,
    override,
    run_effectiveness,
    run_microbench,
    run_pathlen,
)

_RUNNERS = {
    "effectiveness": run_effectiveness,
    "pathlen": run_pathlen,
    "microbench": run_microbench,
}


def verify_fixture(seed: int = 0) -> bool:
    """Walk the canonical two-exchange story over real gmw query sessions.

    Returns True when every verdict lands as expected and the forwarding
    oracle confirms the surviving rules are loop-free.
    """
    fx = two_exchange_fixture()
    plane = ControlPlane(fx.graph, list(fx.sites), {fx.prefix: fx.rib},
                         transport="smpc", seed=seed)
    ok = True

    first = plane.install(fx.deflect_b_to_a)
    print(f"install owner={fx.deflect_b_to_a.owner} -> {first.decision}")
    ok &= first.accepted

    second = plane.install(fx.deflect_n_to_m)
    print(f"install owner={fx.deflect_n_to_m.owner} -> {second.decision}"
          f" ({second.reason})")
    ok &= second.decision == "reject"

    assert first.rule_id is not None
    plane.remove(fx.deflect_b_to_a.owner, first.rule_id)
    print(f"remove rule {first.rule_id}")

    retry = plane.install(fx.deflect_n_to_m)
    print(f"retry owner={fx.deflect_n_to_m.owner} -> {retry.decision}")
    ok &= retry.accepted

    loops = forwarding_oracle(fx.graph, fx.rib,
                              plane.active_policies(fx.prefix), fx.prefix)
    print(f"oracle loops over active rules: {sorted(loops)}")
    ok &= not loops
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="prelude",
        description="loop-detection experiments and fixture checks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("effectiveness", "replay policy arrivals per detector/threshold"),
        ("pathlen", "deflected-path exchange-span CDFs"),
        ("microbench", "query-session round/byte/latency cells"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", default=None, metavar="FILE",
                         help="INI config (defaults used when omitted)")
        cmd.add_argument("--seed", type=int, default=None, metavar="U64",
                         help="overrides the config seed")
        cmd.add_argument("--out", default=None, metavar="DIR",
                         help="overrides the config output directory")
    fixture = sub.add_parser("verify-fixture",
                             help="run the two-exchange story end to end")
    fixture.add_argument("--seed", type=int, default=0, metavar="U64",
                         help="seeds the query sessions")
    args = parser.parse_args(argv)
    if args.command == "verify-fixture":
        return 0 if verify_fixture(seed=args.seed) else 1

    try:
        cfg = override(load_config(args.config), seed=args.seed,
                       out_dir=args.out)
        paths = _RUNNERS[args.command](cfg)
    except ConfigError as exc:
        parser.error(str(exc))
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
