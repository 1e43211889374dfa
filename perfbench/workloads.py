"""The benchmark's workloads: set-up, one op, and the correctness checks.

A workload object lives for one run.  ``setup(seed)`` builds the inputs
and runs one untimed warm-up op (this is what ``setup_s`` times);
``validate(seed)`` checks the warm-up outputs against the oracles and is
not timed; ``start_cycle()`` runs before each cycle of ops; ``op(i)`` is
one timed operation; ``check(i, out)`` decides, outside the timed
interval, whether that op's output is correct.

Ops are grouped in cycles of ``cycle`` ops, and a run always ends on a
cycle boundary, so every run of a workload sees the same mix of ops.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from gyroproxy import commsim, grid, kernels, oracles

#: Relative tolerances the test suite uses for each kernel against its
#: oracle (tests/test_kernels.py, tests/test_acceptance.py).  shear is
#: pure data movement and must match exactly.
TOLERANCE = {"field": 1e-13, "stream": 1e-13, "shear": 0.0, "collision": 1e-12, "nonlinear": 1e-12}

#: Seeded (species, energy, xi, theta) slices checked against the direct
#: convolution oracle at set-up.
BRACKET_SAMPLES = 2


def rel_err(got, want) -> float:
    """max|got - want| / max|want|, the measure the tests use."""
    scale = np.max(np.abs(want))
    diff = np.max(np.abs(got - want))
    return float(diff / scale if scale else diff)


class StepWorkload:
    """A proxy step: the named kernels run in pipeline order on one state."""

    cycle = 1
    infeasible = 0

    def __init__(self, case: str, threads: int, nonlinear: bool):
        self.shape = grid.make_case(case)
        self.threads = threads
        self.kernel_names = tuple(k for k in kernels.KERNEL_NAMES if nonlinear or k != "nonlinear")

    def start_cycle(self):
        pass

    def setup(self, seed: int):
        self.h = grid.random_state(self.shape, seed)
        self.inputs = kernels.make_kernel_inputs(self.shape, seed)
        self.refs = self.op(0)

    def op(self, i: int) -> dict:
        return {
            k: kernels.run_kernel(k, self.h, self.inputs, threads=self.threads)
            for k in self.kernel_names
        }

    def validate(self, seed: int) -> list[str]:
        """Check the warm-up outputs against the oracles; returns failures.

        Also prepares the per-op check.  A complex difference d obeys
        |d| <= sqrt(2) * max(|Re d|, |Im d|), so bounding the components
        by tol * max|ref| / sqrt(2) keeps that check at least as strict as
        rel_err <= tol, without a complex abs over the whole output.
        """
        h, inp, refs = self.h, self.inputs, self.refs
        self._limits = {
            k: TOLERANCE[k] * float(np.max(np.abs(ref))) / math.sqrt(2) for k, ref in refs.items()
        }
        want = {
            "field": lambda: oracles.field_moment_oracle(h, inp["weights"]),
            "stream": lambda: oracles.stream_oracle(h, inp["stencil"]),
            "shear": lambda: oracles.shear_oracle(h, inp["shifts"]),
            "collision": lambda: oracles.collision_oracle(h, inp["matrices"]),
        }
        failures = []
        for k in self.kernel_names:
            if k == "nonlinear":
                gen = np.random.default_rng(seed)
                for _ in range(BRACKET_SAMPLES):
                    idx = tuple(int(gen.integers(n)) for n in h.shape[:4])
                    err = rel_err(refs[k][idx], oracles.bracket_convolution_oracle(h[idx], inp["phi"][idx[3]]))
                    if not err <= TOLERANCE[k]:
                        failures.append(f"nonlinear slice {idx}: rel err {err:.3e} > {TOLERANCE[k]:g}")
                continue
            err = rel_err(refs[k], want[k]())
            if not err <= TOLERANCE[k]:
                failures.append(f"{k}: rel err {err:.3e} > {TOLERANCE[k]:g}")
        return failures

    def check(self, i: int, out: dict) -> bool:
        for k, got in out.items():
            ref = self.refs[k]
            if got.shape != ref.shape:
                return False
            # Bitwise equality is within any tolerance and is cheaper to
            # test; the tolerance check runs only when it fails.
            if np.array_equal(got, ref):
                continue
            diff = np.subtract(got, ref, order="C").view(np.float64)
            if not max(diff.max(), -diff.min()) <= self._limits[k]:
                return False
        return True


@dataclass(frozen=True)
class Query:
    shape: grid.GridShape
    volumes: commsim.VolumeModel
    topology: commsim.MachineTopology
    ranks: int
    nodes: int


class PlanSweep:
    """Planner queries: plan_decomposition plus predict_report per query.

    The query set is case x builtin topology x ranks x node fill (full
    nodes, or twice as many nodes half filled).  Every cycle asks each
    query once, in a fresh order drawn from the seed.
    """

    CASES = ("sh03b", "em04b")
    TOPOLOGIES = ("perlmutter_like", "frontier_like")
    # Planner cost grows superlinearly with ranks, so p50 and p90 fall in
    # different rank classes: the median query is one of the 512-rank ones.
    RANKS = (16, 64, 512, 1024, 2048)
    FILLS = (1, 2)

    threads = 1
    cycle = len(CASES) * len(TOPOLOGIES) * len(RANKS) * len(FILLS)
    kernel_names = ()
    shape = h = inputs = None

    def setup(self, seed: int):
        self._order = random.Random(seed)
        queries = []
        for case in self.CASES:
            shape = grid.make_case(case)
            volumes = commsim.VolumeModel.from_shape(shape)
            for name in self.TOPOLOGIES:
                topo = commsim.builtin_topology(name)
                for ranks in self.RANKS:
                    for fill in self.FILLS:
                        nodes = -(-ranks // topo.ranks_per_node) * fill
                        queries.append(Query(shape, volumes, topo, ranks, nodes))
        # Warm up on one query per rank count (the first case, topology
        # and fill), so each path the timed loop takes has run once.
        for q in queries[: len(self.RANKS) * len(self.FILLS) : len(self.FILLS)]:
            self._ask(q)
        self.queries = queries
        self.infeasible = 0

    def start_cycle(self):
        """Reshuffle, so a run averages over many query orders."""
        self._order.shuffle(self.queries)

    def _ask(self, q: Query):
        plan = commsim.plan_decomposition(q.volumes, q.ranks, q.nodes, q.topology)
        return plan, commsim.predict_report(q.shape, q.topology, plan)

    def op(self, i: int):
        return self._ask(self.queries[i])

    def validate(self, seed: int) -> list[str]:
        return []

    def check(self, i: int, out) -> bool:
        """Invariants any correct planner keeps; no golden plans.

        The split covers exactly the ranks asked for, its layout fits the
        node count, and every prediction is finite and nonnegative.
        Answers the grid cannot hold evenly (n2 not dividing the toroidal
        modes, or n1 not dividing velocity space) are counted in
        ``infeasible`` but do not fail the op.
        """
        q = self.queries[i]
        plan, report = out
        if plan.n1 * plan.n2 != q.ranks:
            return False
        per_node = plan.ranks_per_node or min(q.ranks, q.topology.ranks_per_node)
        slots = per_node // -(-plan.n1 // plan.spread_nodes)
        if per_node > q.topology.ranks_per_node or slots < 1:
            return False
        if plan.spread_nodes * -(-plan.n2 // slots) > q.nodes:
            return False
        for row in report:
            if not (math.isfinite(row.bytes_per_rank) and row.bytes_per_rank >= 0):
                return False
            if not (math.isfinite(row.seconds) and row.seconds >= 0):
                return False
        if q.shape.n_toroidal % plan.n2 or q.shape.velocity_size % plan.n1:
            self.infeasible += 1
        return True
