import dataclasses
import itertools
import re

import numpy as np
import pytest

from gyroproxy.commsim import (
    GB,
    CommPlan,
    MachineTopology,
    VolumeModel,
    _layout,
    _pair_class_fractions,
    allreduce_volume,
    alltoall_volume,
    builtin_topology,
    collective_time,
    load_topology,
    plan_decomposition,
    predict_report,
)
from gyroproxy.grid import make_case
from gyroproxy.oracles import comm_pair_fractions_oracle

PERL = builtin_topology("perlmutter_like")
FRONT = builtin_topology("frontier_like")

VOLUME_SWEEP = np.logspace(6, 10, 9)  # 1 MB .. 10 GB

# natural 24-rank / 6-node split, dim1 filling each node: the same occupancy on both machines
PLAN = CommPlan(4, 6, ranks_per_node=4)


# ---------------------------------------------------------------------------
# topology descriptions


def test_builtin_shared_bus_machine():
    assert PERL.nic_layout == "shared_bus"
    assert PERL.ranks_per_node == 4
    assert PERL.intra_aggregate_gbps == 100.0
    assert PERL.nic_pool_gbps == 100.0


def test_builtin_dedicated_nic_machine():
    assert FRONT.nic_layout == "per_gpu"
    assert FRONT.processes_per_gpu == 2
    assert FRONT.ranks_per_node == 8
    assert FRONT.intra_aggregate_gbps == 100.0
    assert FRONT.nic_pool_gbps == 100.0


def test_builtin_unknown_name():
    with pytest.raises(ValueError, match="perlmutter_like"):
        builtin_topology("summit")


@pytest.mark.parametrize("field, value", [
    ("gpus_per_node", 0),
    ("intra_node_links", 0),
    ("intra_link_gbps", 0.0),
    ("nic_layout", "pcie"),
    ("nics_per_node", 0),
    ("nic_bandwidth", -1.0),
    ("processes_per_gpu", 0),
    ("shared_bus_latency_penalty", -1e-6),
    ("shared_bus_contention", 0.5),
    ("intra_link_gbps", float("nan")),
    ("nic_bandwidth", float("nan")),
    ("nic_bandwidth", float("inf")),
    ("shared_bus_latency_penalty", float("inf")),
    ("shared_bus_contention", float("nan")),
])
def test_topology_field_validation(field, value):
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(PERL, **{field: value})


def test_load_topology_roundtrip(tmp_path):
    path = tmp_path / "machine.topo"
    path.write_text(
        "# four-GPU node, NICs on a shared bus\n"
        "name = testbox\n"
        "gpus_per_node = 4\n"
        "intra_node_links = 4\n"
        "intra_link_gbps = 25.0\n"
        "nic_layout = shared_bus  # trailing comment\n"
        "nics_per_node = 4\n"
        "nic_bandwidth = 25.0\n"
    )
    topo = load_topology(path)
    assert topo == dataclasses.replace(PERL, name="testbox")


def test_load_topology_name_defaults_to_path(tmp_path):
    path = tmp_path / "m.topo"
    path.write_text(
        "gpus_per_node=2\nintra_node_links=1\nintra_link_gbps=10\n"
        "nic_layout=per_gpu\nnics_per_node=2\nnic_bandwidth=10\n"
    )
    assert load_topology(path).name == str(path)


def test_load_topology_errors(tmp_path):
    missing = tmp_path / "missing.topo"
    missing.write_text("gpus_per_node=4\n")
    with pytest.raises(ValueError, match="missing"):
        load_topology(missing)

    unknown = tmp_path / "unknown.topo"
    unknown.write_text("gpus=4\n")
    with pytest.raises(ValueError, match="unknown"):
        load_topology(unknown)

    malformed = tmp_path / "bad.topo"
    malformed.write_text("gpus_per_node 4\n")
    with pytest.raises(ValueError, match="key=value"):
        load_topology(malformed)

    repeated = tmp_path / "repeated.topo"
    repeated.write_text("nic_bandwidth=25\n\nnic_bandwidth=0.5\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(repeated))}:3: nic_bandwidth repeats line 1"):
        load_topology(repeated)

    unparsable = tmp_path / "float.topo"
    unparsable.write_text("# counts are integers\ngpus_per_node=4.0\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(unparsable))}:2: gpus_per_node"):
        load_topology(unparsable)


# ---------------------------------------------------------------------------
# plans and volumes


def test_plan_validation():
    with pytest.raises(ValueError):
        CommPlan(0, 4)
    with pytest.raises(ValueError):
        CommPlan(2, 2, spread_nodes=0)
    with pytest.raises(ValueError):
        CommPlan(2, 2, ranks_per_node=0)
    assert CommPlan(3, 5).total_ranks == 15


def test_volume_model_validation():
    with pytest.raises(ValueError):
        VolumeModel(-1, 0)
    vm = VolumeModel.from_shape(make_case("sh03b-desk"))
    assert vm.state_bytes == make_case("sh03b-desk").state_bytes
    assert vm.field_bytes_base == make_case("sh03b-desk").field_bytes


def test_allreduce_volume_grows_with_group_size():
    # at fixed total ranks the reduce buffer grows with n2
    vm = VolumeModel(0, 10**6)
    volumes = [
        allreduce_volume(vm, CommPlan(24 // n2, n2))
        for n2 in (1, 2, 4, 8, 24)
    ]
    assert volumes == sorted(volumes)
    assert volumes[0] == 0.0


# ---------------------------------------------------------------------------
# collective timing


def test_zero_work_costs_exactly_zero():
    plan = CommPlan(4, 6)
    assert collective_time("alltoall", 0.0, plan, PERL) == 0.0
    assert collective_time("allreduce", 0.0, plan, FRONT) == 0.0
    solo = CommPlan(1, 1)
    assert collective_time("alltoall", 1e9, solo, PERL) == 0.0
    assert collective_time("allreduce", 1e9, solo, PERL) == 0.0


def test_collective_time_input_validation():
    plan = CommPlan(4, 6)
    with pytest.raises(ValueError):
        collective_time("gather", 1e6, plan, PERL)
    with pytest.raises(ValueError):
        collective_time("alltoall", -1.0, plan, PERL)


def test_plan_must_fit_node_capacity():
    # more ranks per node than slots, and a group share wider than the fill
    for plan, match in ((CommPlan(8, 1, ranks_per_node=8), "capacity"),
                        (CommPlan(8, 1, spread_nodes=2, ranks_per_node=3), "needs 4 slots per node")):
        with pytest.raises(ValueError, match=match):
            collective_time("alltoall", 1e6, plan, PERL)


def test_intra_node_alltoall_exact_share():
    # four ranks fill one node; each gets a quarter of the 100 GB/s fabric
    t = collective_time("alltoall", 1e9, PLAN, PERL)
    assert t == pytest.approx(1e9 / (25 * GB), rel=1e-12)


def test_same_gpu_traffic_is_free():
    topo = MachineTopology(
        name="one-gpu", gpus_per_node=1, intra_node_links=1, intra_link_gbps=10.0,
        nic_layout="shared_bus", nics_per_node=1, nic_bandwidth=10.0, processes_per_gpu=4,
    )
    plan = CommPlan(4, 1)
    assert collective_time("alltoall", 1e9, plan, topo) == 0.0


def test_cross_node_pair_rate():
    # two ranks on two nodes: all traffic crosses the wire
    plan = CommPlan(2, 1, spread_nodes=2, ranks_per_node=1)
    t_front = collective_time("alltoall", 1e9, plan, FRONT)
    assert t_front == pytest.approx(1e9 / (100 * GB), rel=1e-12)
    t_perl = collective_time("alltoall", 1e9, plan, PERL)
    want = 1e9 / (100 * GB / 1.5) + PERL.shared_bus_latency_penalty
    assert t_perl == pytest.approx(want, rel=1e-12)


def test_time_linear_in_bytes_without_latency():
    plan = CommPlan(4, 6, ranks_per_node=4)
    t1 = collective_time("allreduce", 1e8, plan, FRONT)
    t2 = collective_time("allreduce", 2e8, plan, FRONT)
    assert t2 == pytest.approx(2 * t1, rel=1e-12)


def test_time_monotone_in_bytes():
    for kind in ("alltoall", "allreduce"):
        times = [collective_time(kind, v, PLAN, PERL) for v in VOLUME_SWEEP]
        assert times == sorted(times)
        assert times[0] > 0.0


def test_neutralized_shared_bus_equals_dedicated():
    """With latency and contention switched off only bandwidths matter."""
    flat = dataclasses.replace(PERL, shared_bus_latency_penalty=0.0, shared_bus_contention=1.0)
    dedicated = dataclasses.replace(flat, nic_layout="per_gpu")
    for kind in ("alltoall", "allreduce"):
        for v in (1e6, 1e9):
            assert collective_time(kind, v, PLAN, flat) == collective_time(kind, v, PLAN, dedicated)


def test_shared_bus_hurts_allreduce_more_than_alltoall():
    for v in VOLUME_SWEEP:
        r_a2a = collective_time("alltoall", v, PLAN, PERL) \
            / collective_time("alltoall", v, PLAN, FRONT)
        r_ar = collective_time("allreduce", v, PLAN, PERL) \
            / collective_time("allreduce", v, PLAN, FRONT)
        assert r_ar > r_a2a
        # cross-node reduce pays contention (1.5x) plus per-message latency
        assert 1.5 <= r_ar < 2.0


@pytest.mark.parametrize("kind", ["alltoall", "allreduce"])
def test_collective_time_is_builtin_float(kind):
    # both groups exceed one rank, so the traffic fractions are counted;
    # a numpy scalar here reaches the CSV reports as "np.float64(...)"
    spread = CommPlan(8, 3, spread_nodes=2)
    for plan, topo in ((PLAN, PERL), (PLAN, FRONT), (spread, PERL)):
        assert plan.n1 > 1 and plan.n2 > 1
        assert type(collective_time(kind, 1e9, plan, topo)) is float


def test_sibling_share_discounts_cross_node_volume():
    # 8 ranks per frontier node: each rank has one same-GPU peer, and the
    # higher occupancy exactly cancels against the thinner bandwidth slice
    state = 10**10
    plan = CommPlan(8, 6, ranks_per_node=8)  # 48 ranks, dim1 filling each of 6 nodes
    v48 = alltoall_volume(VolumeModel(state, 0), plan)
    t48 = collective_time("alltoall", v48, plan, FRONT)
    assert t48 == pytest.approx(state / (800 * GB), rel=1e-12)


# ---------------------------------------------------------------------------
# planner


def test_planner_spreads_when_transpose_dominates():
    vm = VolumeModel.from_shape(make_case("em04b"))
    plan = plan_decomposition(vm, 288, 72, FRONT)
    assert plan == CommPlan(288, 1, spread_nodes=72, ranks_per_node=4)
    assert plan.placement == "dim1_spread"


def test_planner_handles_prime_rank_counts():
    vm = VolumeModel.from_shape(make_case("sh03b-desk"))
    plan = plan_decomposition(vm, 7, 2, PERL)
    assert plan.total_ranks == 7
    assert {plan.n1, plan.n2} <= {1, 7}


def test_planner_tie_break_prefers_larger_n1():
    # zero volume makes every candidate free; the tie break decides
    plan = plan_decomposition(VolumeModel(0, 0), 4, 2, PERL)
    assert plan.n1 == 4


def test_planner_rejects_impossible_requests():
    vm = VolumeModel(10**9, 10**6)
    with pytest.raises(ValueError):
        plan_decomposition(vm, 25, 6, PERL)  # over capacity
    with pytest.raises(ValueError):
        plan_decomposition(vm, 0, 6, PERL)


def _enumerated_plan(vm, ranks, nodes, topo):
    """The cheapest plan by exhaustive enumeration.

    Every divisor n1 and every spread 1..min(n1, nodes) whose _layout fits
    the nodes is scored; the least (seconds, -n1, spread) wins.
    """
    u, best = -(-ranks // nodes), None
    for n1 in (d for d in range(1, ranks + 1) if ranks % d == 0):
        for k in range(1, min(n1, nodes) + 1):
            plan = CommPlan(n1, ranks // n1, spread_nodes=k, ranks_per_node=u)
            try:
                _, _, q = _layout(plan, topo)
            except ValueError:
                continue
            if -(-plan.n2 // q) * k <= nodes:
                seconds = collective_time("alltoall", alltoall_volume(vm, plan), plan, topo) \
                    + collective_time("allreduce", allreduce_volume(vm, plan), plan, topo)
                if best is None or (seconds, -n1, k) < best[0]:
                    best = (seconds, -n1, k), plan
    return best[1]


def _planner_queries():
    """(case, topology, ranks, nodes): plan-sweep's 40, then 300 seeded ones of up to 600 ranks."""
    for case, topo, ranks, fill in itertools.product(("sh03b", "em04b"), (PERL, FRONT),
                                                     (16, 64, 512, 1024, 2048), (1, 2)):
        yield case, topo, ranks, -(-ranks // topo.ranks_per_node) * fill
    gen = np.random.default_rng(2026)
    for _ in range(300):
        case, topo = ("sh03b", "em04b")[gen.integers(2)], (PERL, FRONT)[gen.integers(2)]
        ranks, fill = int(gen.integers(1, 601)), int(gen.integers(1, 4))
        yield case, topo, ranks, -(-ranks // topo.ranks_per_node) * fill


def test_planner_matches_exhaustive_enumeration():
    # the search tries each slot count once, at its fewest nodes; the answer must not move
    differ = []
    for case, topo, ranks, nodes in _planner_queries():
        vm = VolumeModel.from_shape(make_case(case))
        if plan_decomposition(vm, ranks, nodes, topo) != _enumerated_plan(vm, ranks, nodes, topo):
            differ.append((case, topo.name, ranks, nodes))
    assert not differ


# ---------------------------------------------------------------------------
# reports


def test_predict_report_rows():
    case = make_case("sh03b")
    rows = predict_report(case, PERL, PLAN)
    assert [(r.dimension, r.kind) for r in rows] == [("dim1", "alltoall"), ("dim2", "allreduce")]
    assert all(r.seconds > 0.0 for r in rows)
    assert rows[0].bytes_per_rank == pytest.approx(case.state_bytes / 32)


def test_predict_report_natural_volume_identity():
    # at natural volumes the transpose row reduces to state / 800 GB/s on
    # both reference machines
    case = make_case("sh03b")
    for topo in (PERL, FRONT):
        row = predict_report(case, topo, PLAN)[0]
        assert row.seconds == pytest.approx(case.state_bytes / (800 * GB), rel=1e-12)


def test_predict_report_degenerate_split_is_free():
    rows = predict_report(make_case("sh03b-desk"), PERL, CommPlan(1, 1))
    assert all(r.seconds == 0.0 and r.bytes_per_rank == 0.0 for r in rows)


def test_predict_report_values_are_builtin_floats():
    for topo in (PERL, FRONT):
        for row in predict_report(make_case("sh03b"), topo, PLAN):
            assert type(row.seconds) is float
            assert type(row.bytes_per_rank) is float


def test_pair_fractions_match_rank_by_rank_oracle():
    # every layout of n1, n2 in 2..9 over 1..4 nodes at every fill a node
    # of 1..4 GPUs holds, each under the fewest processes per GPU (1..3)
    # that fit it: capacity only bounds the fill, not the fractions
    wrong = []
    for gpus in range(1, 5):
        for fill in range(1, 3 * gpus + 1):
            topo = dataclasses.replace(PERL, gpus_per_node=gpus, processes_per_gpu=-(-fill // gpus))
            for n1, n2, k in itertools.product(range(2, 10), range(2, 10), range(1, 5)):
                if -(-n1 // k) > fill:
                    continue
                plan = CommPlan(n1, n2, k, fill)
                _, c1, q = _layout(plan, topo)
                for kind in ("alltoall", "allreduce"):
                    if _pair_class_fractions(kind, plan, c1, q, gpus) != \
                            comm_pair_fractions_oracle(n1, n2, k, fill, gpus, kind):
                        wrong.append((kind, plan, gpus))
    assert wrong == []
