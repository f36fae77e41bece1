"""AS-level network model: topology, stable routing, deflections, oracle."""

from prelude.bgpsim.fixtures import (
    AS_A,
    AS_B,
    AS_M,
    AS_N,
    AS_Z,
    two_exchange_fixture,
)
from prelude.bgpsim.oracle import (
    cube_minus,
    forwarding_oracle,
    normalize_cycle,
    simulate_packet,
)
from prelude.bgpsim.policies import (
    DeflectionPolicy,
    PolicyError,
    generate_policies,
    gr_compliant,
    validate_policy,
)
from prelude.bgpsim.routing import (
    PREFERENCE,
    RibState,
    compute_routes,
    traversed_sdxes,
)
from prelude.bgpsim.topology import (
    AsGraph,
    SdxSite,
    TopologyError,
    generate_topology,
)
