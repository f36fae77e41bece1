"""
The two-exchange forwarding loop
================================

Five ASes, two exchange points.  B deflects web traffic to A at the first
exchange; N deflects web traffic to M at the second.  Either deflection
alone is harmless, together they forward web packets in a circle:

    B -> A (deflected), A's path crosses N,
    N -> M (deflected), M's path crosses B, and around again.

The control plane catches this before the second rule activates, using
only private queries between the exchanges.
"""

from prelude.bgpsim import forwarding_oracle, simulate_packet, two_exchange_fixture
from prelude.control import ControlPlane
from prelude.rules import FlowSpec, PROTO_TCP, encode_packet

fx = two_exchange_fixture()
plane = ControlPlane(fx.graph, list(fx.sites), {fx.prefix: fx.rib},
                     transport="smpc", backend="gmw", seed=17)

# B's deflection arrives first and is accepted: nothing overlaps it yet.
verdict_b = plane.install(fx.deflect_b_to_a)
print(f"B's web deflection: {verdict_b.decision}")

# N's deflection would close the loop; the verifier walks the deflected
# path, queries the first exchange privately, and finds the cycle.
verdict_n = plane.install(fx.deflect_n_to_m)
print(f"N's web deflection: {verdict_n.decision} ({verdict_n.reason}, "
      f"closed at exchange {verdict_n.closed_at})")

# The oracle agrees: with both rules the data plane actually cycles.
both = [fx.deflect_b_to_a, fx.deflect_n_to_m]
loops = forwarding_oracle(fx.graph, fx.rib, both, fx.prefix)
print(f"oracle over both rules: loops={sorted(loops)}")

web_packet = encode_packet(src_ip=0x01010101, dst_ip=0xCB007101,
                           src_port=50000, dst_port=80, proto=PROTO_TCP)
walk = simulate_packet(fx.rib, both, fx.prefix, web_packet, start=4)
print(f"a web packet starting at M walks: {walk}")

# Active rules stay loop-free because the rejected rule never activated.
active = plane.active_policies(fx.prefix)
print(f"active owners: {[p.owner for p in active]}, oracle: "
      f"{sorted(forwarding_oracle(fx.graph, fx.rib, active, fx.prefix))}")

# After B withdraws its rule, N's retry verifies cleanly: the automatic
# change notification had already told dependents to take another look.
assert verdict_b.rule_id is not None
plane.remove(fx.deflect_b_to_a.owner, verdict_b.rule_id)
retry = plane.install(fx.deflect_n_to_m)
print(f"N retries after B's removal: {retry.decision}")

# The structured event log shows what each exchange saw: queried holders
# learn only the prefix, the entry count, and who asked.
print("\nexchange 1's log:")
for event in plane.events_at(1):
    print(" ", event.line())
