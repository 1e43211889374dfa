"""Analytic model of the two-dimensional collective-communication split.

The distributed solve exchanges data along two orthogonal rank-grid
dimensions: an all-to-all transpose over groups of size n1 and an
all-reduce over groups of size n2, with n1 * n2 ranks in total.  This
module predicts per-step communication seconds for such a split on a
parameterized machine, and searches the (n1, n2, spread_nodes) space for
the cheapest plan, breaking ties by larger n1, then fewer spread nodes.
Everything is closed-form; no traffic is simulated.

Cost model (bandwidth-latency style, fixed here since no standard exists
for this level of abstraction):

* Ranks are laid out in blocks by the rule ``_layout`` states: each dim1
  group is striped across ``spread_nodes`` nodes (one is intra-node),
  dim2 stacks groups onto the remaining slots, and GPUs go round-robin
  within a node, so two ranks share a GPU when processes_per_gpu > 1.
* Peer traffic is split exactly, by counting pairs under that layout,
  into same-GPU (free, device-local), same-node (intra fabric), and
  cross-node shares.
* Each active rank gets an equal share of the node's aggregate intra
  fabric and of the NIC pool; a shared-bus NIC pool is further divided
  by the contention factor.  The cross-node path runs at the minimum of
  the intra share and the NIC share.
* Message counts: pairwise-exchange all-to-all sends group-1 messages;
  ring all-reduce pays 2*ceil(log2(group)) latency rounds.  Only a
  shared bus charges per-message latency, and only on the fraction of
  messages that actually leave the node.
* Zero bytes or a singleton group costs exactly 0.0 seconds.

Bandwidths are decimal: 1 GB/s = 1e9 bytes/s.
"""

from __future__ import annotations

import math
import typing
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .grid import GridShape

NIC_LAYOUTS = ("shared_bus", "per_gpu")
GB = 1e9


class _FieldError(ValueError):
    """A MachineTopology field out of range; ``field`` names it for load_topology."""

    def __init__(self, topo, field: str, want: str):
        super().__init__(f"{field} must be {want}, got {getattr(topo, field)!r}")
        self.field = field


@dataclass(frozen=True)
class MachineTopology:
    """Node-level hardware figures for the communication model."""

    name: str
    gpus_per_node: int
    intra_node_links: int
    intra_link_gbps: float
    nic_layout: str
    nics_per_node: int
    nic_bandwidth: float
    processes_per_gpu: int = 1
    shared_bus_latency_penalty: float = 2e-6
    shared_bus_contention: float = 1.5

    def __post_init__(self):
        for field, ok, want in (
            ("gpus_per_node", self.gpus_per_node >= 1, ">= 1"),
            ("intra_node_links", self.intra_node_links >= 1, ">= 1"),
            ("intra_link_gbps", 0 < self.intra_link_gbps < math.inf, "finite and > 0"),
            ("nic_layout", self.nic_layout in NIC_LAYOUTS, f"one of {NIC_LAYOUTS}"),
            ("nics_per_node", self.nics_per_node >= 1, ">= 1"),
            ("nic_bandwidth", 0 < self.nic_bandwidth < math.inf, "finite and > 0"),
            ("processes_per_gpu", self.processes_per_gpu >= 1, ">= 1"),
            ("shared_bus_latency_penalty", 0 <= self.shared_bus_latency_penalty < math.inf, "finite and >= 0"),
            ("shared_bus_contention", 1 <= self.shared_bus_contention < math.inf, "finite and >= 1"),
        ):
            if not ok:
                raise _FieldError(self, field, want)

    @property
    def ranks_per_node(self) -> int:
        return self.gpus_per_node * self.processes_per_gpu

    @property
    def intra_aggregate_gbps(self) -> float:
        return self.intra_node_links * self.intra_link_gbps

    @property
    def nic_pool_gbps(self) -> float:
        return self.nics_per_node * self.nic_bandwidth


_BUILTIN = {
    "perlmutter_like": MachineTopology(
        name="perlmutter_like",
        gpus_per_node=4,
        intra_node_links=4,
        intra_link_gbps=25.0,
        nic_layout="shared_bus",
        nics_per_node=4,
        nic_bandwidth=25.0,
    ),
    "frontier_like": MachineTopology(
        name="frontier_like",
        gpus_per_node=4,
        intra_node_links=2,
        intra_link_gbps=50.0,
        nic_layout="per_gpu",
        nics_per_node=4,
        nic_bandwidth=25.0,
        processes_per_gpu=2,
    ),
}


def topology_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTIN))


def builtin_topology(name: str) -> MachineTopology:
    """One of the two reference machine models, by name."""
    try:
        return _BUILTIN[name]
    except KeyError:
        raise ValueError(f"unknown topology {name!r}; builtins: {', '.join(topology_names())}") from None


def load_topology(path) -> MachineTopology:
    """Read a topology from a key=value text file.

    One MachineTopology field per line, at most once, ``#`` starts a
    comment.  A field with no default is required, except name, which
    defaults to the path.  Every rejection names the path, and the line
    when one is to blame.
    """
    types = typing.get_type_hints(MachineTopology)
    values: dict = {"name": str(path)}
    linenos: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in types:
                raise ValueError(f"{path}:{lineno}: unknown topology field {key!r}")
            if key in linenos:
                raise ValueError(f"{path}:{lineno}: {key} repeats line {linenos[key]}")
            try:
                values[key] = types[key](value)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {key} must be {types[key].__name__}, got {value!r}") from None
            linenos[key] = lineno
    missing = [f.name for f in fields(MachineTopology) if f.default is MISSING and f.name not in values]
    if missing:
        raise ValueError(f"{path}: missing topology fields: {', '.join(sorted(missing))}")
    try:
        return MachineTopology(**values)
    except _FieldError as exc:
        raise ValueError(f"{path}:{linenos[exc.field]}: {exc}") from None


@dataclass(frozen=True)
class CommPlan:
    """An n1 x n2 rank-grid split, each dim1 group over spread_nodes nodes.

    ranks_per_node is the occupancy the plan was laid out for (active
    ranks per node); when None it defaults at evaluation time to filling
    whole nodes, min(total_ranks, topology capacity).
    """

    n1: int
    n2: int
    spread_nodes: int = 1
    ranks_per_node: int | None = None

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("group sizes must be >= 1")
        if self.spread_nodes < 1:
            raise ValueError("spread_nodes must be >= 1")
        if self.ranks_per_node is not None and self.ranks_per_node < 1:
            raise ValueError("ranks_per_node must be >= 1 when given")

    @property
    def total_ranks(self) -> int:
        return self.n1 * self.n2

    @property
    def placement(self) -> str:
        """``dim1_intra_node`` when each dim1 group sits on one node, else ``dim1_spread``."""
        return "dim1_intra_node" if self.spread_nodes == 1 else "dim1_spread"


@dataclass(frozen=True)
class VolumeModel:
    """Total bytes moved by each communication dimension.

    state_bytes is the full distributed state (transposed piecewise by
    the all-to-all); field_bytes_base is the reduced field buffer at
    n2 = 1, which grows linearly with n2 before being reduced back.
    """

    state_bytes: int
    field_bytes_base: int

    def __post_init__(self):
        if self.state_bytes < 0 or self.field_bytes_base < 0:
            raise ValueError("byte volumes must be >= 0")

    @classmethod
    def from_shape(cls, shape: GridShape) -> "VolumeModel":
        return cls(state_bytes=shape.state_bytes, field_bytes_base=shape.field_bytes)


def alltoall_volume(vm: VolumeModel, plan: CommPlan) -> float:
    """Bytes each rank sends per transpose step.

    state/total * (n1-1)/n1: independent of how n1 and n2 trade off at
    fixed total ranks, up to the self-share correction, and 0 at n1=1.
    """
    return vm.state_bytes / plan.total_ranks * (plan.n1 - 1) / plan.n1


def allreduce_volume(vm: VolumeModel, plan: CommPlan) -> float:
    """Bytes each rank sends per reduce step (ring model).

    The reduced buffer grows linearly with n2 from field_bytes_base, so
    the per-rank ring traffic is base * n2/total * 2(n2-1)/n2.
    """
    return vm.field_bytes_base * plan.n2 / plan.total_ranks * 2 * (plan.n2 - 1) / plan.n2


def _slots(n1: int, spread_nodes: int, u: int) -> tuple[int, int]:
    """(c1, q): a dim1 group of n1 takes c1 slots on each of its nodes, and q groups share them."""
    c1 = -(-n1 // spread_nodes)
    return c1, u // c1


def _layout(plan: CommPlan, topo: MachineTopology) -> tuple[int, int, int]:
    """The block layout, as (u, c1, q), with c1 and q from _slots.

    u ranks are active per node, each dim1 group takes c1 = ceil(n1/k)
    slots on each of its k = spread_nodes nodes, and q = u // c1 groups
    share a band of k nodes.  Rank (i, j) of the n1 x n2 grid sits on
    node (j//q)*k + i//c1, slot (j%q)*c1 + i%c1, GPU slot % gpus_per_node.
    """
    u = plan.ranks_per_node or min(plan.total_ranks, topo.ranks_per_node)
    if u > topo.ranks_per_node:
        raise ValueError(f"{u} ranks per node exceeds node capacity {topo.ranks_per_node}")
    c1, q = _slots(plan.n1, plan.spread_nodes, u)
    if q < 1:
        raise ValueError(f"dim1 group of {plan.n1} over {plan.spread_nodes} node(s) needs {c1} slots "
                         f"per node but only {u} are active")
    return u, c1, q


def _pair_class_fractions(kind: str, plan: CommPlan, c1: int, q: int, gpus: int):
    """Exact (same_gpu, same_node, cross_node) traffic fractions, as built-in floats.

    Counted under ``_layout``'s rule, for groups of more than one rank.
    An alltoall pair's class does not depend on its dim1 group j, so one
    group is counted from per-node and per-(node, GPU) histograms.  An
    allreduce ring edge j -> j+1 (mod n2) does not depend on i, so one
    column's n2 edges are counted and multiplied by n1.
    """
    if kind == "alltoall":
        i = np.arange(plan.n1)
        band = i // c1
        per_node = np.bincount(band)
        per_gpu = np.bincount(band * gpus + i % c1 % gpus)
        pairs = plan.n1 * (plan.n1 - 1)
        same_node = int(per_node @ per_node) - plan.n1
        same_gpu = int(per_gpu @ per_gpu) - plan.n1
    else:
        j = np.arange(plan.n2 + 1) % plan.n2  # the ring, closed: edge j joins j and j+1
        gpu = (j % q) * c1 % gpus
        node_edges = j[:-1] // q == j[1:] // q
        gpu_edges = node_edges & (gpu[:-1] == gpu[1:])
        pairs = plan.n1 * plan.n2
        same_node = plan.n1 * int(np.count_nonzero(node_edges))
        same_gpu = plan.n1 * int(np.count_nonzero(gpu_edges))
    f_sib = same_gpu / pairs
    f_node = same_node / pairs - f_sib
    return f_sib, f_node, 1.0 - f_sib - f_node


def collective_time(kind: str, bytes_per_rank: float, plan: CommPlan, topo: MachineTopology) -> float:
    """Predicted seconds for one collective step.

    Same-GPU traffic is free; the same-node share moves at the rank's
    slice of the intra fabric; the cross-node share at the slower of
    that slice and the rank's NIC share (contention-divided on a shared
    bus).  A shared bus additionally pays the per-message latency
    penalty on cross-node messages.  Nothing to send costs 0.0 exactly.
    """
    if kind not in ("alltoall", "allreduce"):
        raise ValueError(f"kind must be 'alltoall' or 'allreduce', got {kind!r}")
    if bytes_per_rank < 0:
        raise ValueError("bytes_per_rank must be >= 0")
    group = plan.n1 if kind == "alltoall" else plan.n2
    if bytes_per_rank == 0 or group == 1:
        return 0.0
    u, c1, q = _layout(plan, topo)
    _, f_node, f_inter = _pair_class_fractions(kind, plan, c1, q, topo.gpus_per_node)
    bw_intra = topo.intra_aggregate_gbps * GB / u
    bw_nic = topo.nic_pool_gbps * GB / u
    if topo.nic_layout == "shared_bus":
        bw_nic /= topo.shared_bus_contention
    bw_inter = min(bw_intra, bw_nic)
    seconds = bytes_per_rank * (f_node / bw_intra + f_inter / bw_inter)
    if topo.nic_layout == "shared_bus":
        messages = group - 1 if kind == "alltoall" else 2 * math.ceil(math.log2(group))
        seconds += topo.shared_bus_latency_penalty * messages * f_inter
    return seconds


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, int(math.isqrt(n)) + 1) if n % d == 0]
    return sorted({d for s in small for d in (s, n // s)})


def plan_decomposition(vm: VolumeModel, total_ranks: int, nodes: int, topo: MachineTopology) -> CommPlan:
    """Cheapest (n1, n2, spread_nodes) split of total_ranks over the nodes.

    Under a balanced fill of u = ceil(total/nodes) ranks per node, a split's
    predicted seconds depend on its spread k only through its slots per
    node, c1 = ceil(n1/k).  So each factor pair tries c1 = 1..min(n1, u) at
    its fewest nodes, k = ceil(n1/c1), and keeps the splits that fit.  Ties
    prefer larger n1, then fewer spread nodes (1 is the intra-node placement).
    """
    if total_ranks < 1 or nodes < 1:
        raise ValueError("total_ranks and nodes must be >= 1")
    if total_ranks > nodes * topo.ranks_per_node:
        raise ValueError(
            f"{total_ranks} ranks exceed {nodes} node(s) x {topo.ranks_per_node} ranks/node"
        )
    u = -(-total_ranks // nodes)
    candidates = []
    for n1 in _divisors(total_ranks):
        n2 = total_ranks // n1
        for k in {-(-n1 // c1) for c1 in range(1, min(n1, u) + 1)}:
            _, q = _slots(n1, k, u)  # q >= 1: ceil(n1/k) <= c1 <= u
            if -(-n2 // q) * k <= nodes:
                candidates.append(CommPlan(n1, n2, spread_nodes=k, ranks_per_node=u))
    if not candidates:
        raise ValueError(f"no feasible decomposition of {total_ranks} ranks on {nodes} node(s)")

    def score(plan: CommPlan):
        t = collective_time("alltoall", alltoall_volume(vm, plan), plan, topo) \
            + collective_time("allreduce", allreduce_volume(vm, plan), plan, topo)
        return (t, -plan.n1, plan.spread_nodes)

    return min(candidates, key=score)


@dataclass(frozen=True)
class CommPrediction:
    dimension: str
    kind: str
    bytes_per_rank: float
    seconds: float


def predict_report(case: GridShape, topo: MachineTopology, plan: CommPlan) -> list[CommPrediction]:
    """Per-dimension predicted volumes and seconds for one case.

    Row seconds sum to the total predicted communication time per step
    pair; a zero-volume case predicts zero everywhere.
    """
    vm = VolumeModel.from_shape(case)
    v1 = alltoall_volume(vm, plan)
    v2 = allreduce_volume(vm, plan)
    return [
        CommPrediction("dim1", "alltoall", v1, collective_time("alltoall", v1, plan, topo)),
        CommPrediction("dim2", "allreduce", v2, collective_time("allreduce", v2, plan, topo)),
    ]
