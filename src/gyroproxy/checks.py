"""The correctness properties of the proxy, each stated once.

Each check is a function of ``(case, seed)`` that returns
``(value, limit, ok)``: the measured quantity, the bound it is held to,
and whether the property holds.  ``gyroproxy verify`` runs every entry of
:data:`CHECKS` at one case and seed; ``tests/test_acceptance.py`` runs the
same functions and sweeps the seed of :data:`KERNEL_CONTRACT_CHECKS`, each
kernel's :func:`kernel_contract` on one random state, over both desk cases.
The other checks draw their full sample (4096 padding sizes, 102 bracket
spectrum pairs, 50 transform fields, 13 communication volumes) on every
call; together they cost under a second.

A limit is an upper bound on the value unless the check says otherwise.
Every value is deterministic for a fixed case and seed, and no check
derives a seed from another, so any seed the CLI accepts works.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import asdict

import numpy as np

from . import oracles
from .commsim import (
    CommPlan,
    VolumeModel,
    allreduce_volume,
    alltoall_volume,
    builtin_topology,
    collective_time,
    plan_decomposition,
    predict_report,
)
from .grid import GridShape, component_mean_abs, make_case, random_state, substream
from .kernels import (KERNEL_NAMES, KERNEL_VARIANTS, blas_core, checksum, make_kernel_inputs, run_kernel,
                      time_calls)
from .padding import dealias_minimum, factorize, plan_padded_size
from .spectral import bracket, bracket_fields, to_real, to_spectrum

#: Relative tolerance of each kernel against its oracle: for nonlinear, of
#: the bracket against mode-sum convolution.  shear is pure data movement
#: and must match exactly.  perfbench/workloads.py keeps a copy that a test
#: holds equal to this one.
TOLERANCE = {"field": 1e-13, "stream": 1e-13, "shear": 0.0, "collision": 1e-12, "nonlinear": 1e-12}

#: Relative bound of the transform round trip and of Parseval's identity,
#: and the bound of |{f, f}|: a spectrum's bracket with itself is exactly zero.
TRANSFORM_TOLERANCE = 1e-13
SELF_BRACKET_LIMIT = 0.0

#: The reference of each kernel, as f(h, inputs): a loop oracle for a linear
#: kernel, and one spectral.bracket per velocity slice, against phi's fields, for nonlinear.
ORACLES = {
    "field": lambda h, inputs: oracles.field_moment_oracle(h, inputs["weights"]),
    "stream": lambda h, inputs: oracles.stream_oracle(h, inputs["stencil"]),
    "shear": lambda h, inputs: oracles.shear_oracle(h, inputs["shifts"]),
    "collision": lambda h, inputs: oracles.collision_oracle(h, inputs["matrices"]),
    "nonlinear": lambda h, inputs: np.stack([bracket(v, phi) for phi in [bracket_fields(inputs["phi"])]
                                             for v in h.reshape(-1, *h.shape[3:])]).reshape(h.shape),
}

#: Bracket grids (n_kx, n_ky): even and odd radial sizes, up to 16x8.
BRACKET_GRIDS = ((8, 4), (7, 3), (16, 8))


def rel_err(got, want) -> float:
    """max|got - want| / max|want|, or max|got| when want is all zero."""
    scale = float(np.max(np.abs(want)))
    if scale == 0.0:
        return float(np.max(np.abs(got)))
    return float(np.max(np.abs(got - want)) / scale)


def margin(value, limit, ok) -> float:
    """Distance from value to limit: positive when the check holds."""
    distance = abs(limit - value)
    return distance if ok else -distance


@functools.lru_cache(maxsize=1)
def _seeded(case: str, seed: int):
    """The case's state and kernel inputs at seed, built once for the kernel checks.

    The arrays are read-only, so no check can change another's input.
    """
    shape = make_case(case)
    h, inputs = random_state(shape, seed), make_kernel_inputs(shape, seed)
    for a in (h, *inputs.values()):
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return h, inputs


def _fields(seed: int):
    """50 random real 72x72 fields, each with its 37-row half spectrum."""
    gen = substream(seed, 5)
    for _ in range(50):
        field = gen.uniform(-1.0, 1.0, (72, 72))
        yield field, to_spectrum(field, 72, 72 // 2 + 1)


def _spectra(seed: int):
    """34 random spectrum pairs of each (n_kx, n_ky) in BRACKET_GRIDS."""
    gen = substream(seed, 5)
    for n_kx, n_ky in BRACKET_GRIDS:
        for _ in range(34):
            yield oracles.random_spectrum(n_kx, n_ky, gen), oracles.random_spectrum(n_kx, n_ky, gen)


def _comm_ratios():
    """Shared/dedicated-NIC time ratios (alltoall, allreduce) at identical bytes.

    The same 24-rank, 6-node plan is priced on both machines from 1 MB to
    10 GB, four active ranks per node either way, so only the NIC
    attachment differs.
    """
    shared = builtin_topology("perlmutter_like")
    dedicated = builtin_topology("frontier_like")
    plan = CommPlan(4, 6, spread_nodes=1, ranks_per_node=4)
    for volume in np.logspace(6, 10, 13):
        yield tuple(
            collective_time(kind, volume, plan, shared) / collective_time(kind, volume, plan, dedicated)
            for kind in ("alltoall", "allreduce")
        )


def padding_minimal(case, seed):
    """Mismatches among sizes 1..4096 against the smallest smooth size above the dealias minimum."""
    table = oracles.smooth_numbers(dealias_minimum(4096) + 128)
    bad = 0
    for n in range(1, 4097):
        plan = plan_padded_size(n)
        n_min = dealias_minimum(n)
        bad += (plan.n_min, plan.n_padded) != (n_min, table[bisect_left(table, n_min)])
    return bad, 0, bad == 0


def padding_overhead(case, seed):
    """Worst padded/minimum size ratio over sizes 8..4096."""
    worst = max(plan.n_padded / plan.n_min for plan in map(plan_padded_size, range(8, 4097)))
    return worst, 1.25, worst <= 1.25


def padding_examples(case, seed):
    """Failures among five worked examples, the naive scheme's 716 = 2*2*179 included."""
    results = (
        plan_padded_size(48).n_padded == 72,
        plan_padded_size(479).n_padded == 720,
        oracles.naive_padded_size(477) == 716 and factorize(716) == [2, 2, 179],
        plan_padded_size(477).n_padded == 720,
        plan_padded_size(48).cost_score == 12,
    )
    bad = results.count(False)
    return bad, 0, bad == 0


def factorize_product(case, seed):
    """Values among 200 random ones below 10^6 whose factors are not primes multiplying to it."""
    bad = 0
    for n in map(int, substream(seed, 5).integers(1, 10**6, 200)):
        factors = factorize(n)
        not_prime = any(f < 2 or any(f % d == 0 for d in range(2, math.isqrt(f) + 1)) for f in factors)
        bad += not_prime or math.prod(factors) != n
    return bad, 0, bad == 0


def rng_determinism(case, seed):
    """Component mean |value| of the state, which must lie strictly inside (0.3, 0.7).

    The state must also regenerate bit for bit and stay within [-1, 1].
    The limit reported is the nearer end of the interval.
    """
    shape = make_case(case)
    h = random_state(shape, seed)
    mean_abs = component_mean_abs(h)
    ok = np.array_equal(h, random_state(shape, seed)) and np.max(np.abs(h.view(float))) <= 1.0
    limit = 0.3 if mean_abs - 0.3 < 0.7 - mean_abs else 0.7
    return mean_abs, limit, bool(ok and 0.3 < mean_abs < 0.7)


def transform_roundtrip(case, seed):
    """Worst relative error of to_real(to_spectrum(field)) over 50 fields."""
    worst = max(rel_err(to_real(spec, 72, 72), field) for field, spec in _fields(seed))
    return worst, TRANSFORM_TOLERANCE, worst <= TRANSFORM_TOLERANCE


def transform_parseval(case, seed):
    """Worst relative gap between real-space and spectral power over 50 fields."""
    weights = np.full(72 // 2 + 1, 2.0)
    weights[0] = 1.0
    weights[-1] = 1.0  # unpaired y-Nyquist row of an even-length transform
    worst = 0.0
    for field, spec in _fields(seed):
        real_power = float(np.mean(field**2))
        spectral_power = float(weights @ np.sum(np.abs(spec) ** 2, axis=1))
        worst = max(worst, abs(spectral_power - real_power) / real_power)
    return worst, TRANSFORM_TOLERANCE, worst <= TRANSFORM_TOLERANCE


def bracket_oracle(case, seed):
    """Worst relative error of the bracket against direct mode-sum convolution."""
    worst = max(rel_err(bracket(f, g), oracles.bracket_convolution_oracle(f, g)) for f, g in _spectra(seed))
    return worst, TOLERANCE["nonlinear"], worst <= TOLERANCE["nonlinear"]


def bracket_self_zero(case, seed):
    """Largest |{f, f}| over the bracket sample; it must vanish."""
    worst = max(float(np.max(np.abs(bracket(f, f)))) for f, _ in _spectra(seed))
    return worst, SELF_BRACKET_LIMIT, worst <= SELF_BRACKET_LIMIT


def kernel_contract(kernel, h, inputs):
    """(error, limit, ok) of one kernel on one state and input set.

    The error is the worst rel_err of the one-thread optimized output
    against ORACLES[kernel] and every other variant.  The limit is
    TOLERANCE[kernel], but 0.0 for nonlinear: its reference runs the same
    per-matrix GEMMs and per-row FFTs, so it must give the same bits.  ok
    also needs two threads to give the one-thread output bit for bit.
    """
    got = run_kernel(kernel, h, inputs)
    wants = [ORACLES[kernel](h, inputs)]
    wants += [run_kernel(kernel, h, inputs, variant) for variant in KERNEL_VARIANTS[kernel] if variant != "optimized"]
    err = max(rel_err(got, want) for want in wants)
    limit = 0.0 if kernel == "nonlinear" else TOLERANCE[kernel]
    return err, limit, err <= limit and np.array_equal(got, run_kernel(kernel, h, inputs, threads=2))


def field_oracle(case, seed):
    """The field reduction's kernel_contract."""
    return kernel_contract("field", *_seeded(case, seed))


def stream_variants(case, seed):
    """The stream stencil's kernel_contract: its original variant and the loop oracle."""
    return kernel_contract("stream", *_seeded(case, seed))


def shear_variants(case, seed):
    """The shear gather's kernel_contract: its original variant and the oracle, exactly."""
    return kernel_contract("shear", *_seeded(case, seed))


def collision_oracle(case, seed):
    """The collision matvec's kernel_contract."""
    return kernel_contract("collision", *_seeded(case, seed))


def nonlinear_slices(case, seed):
    """The nonlinear kernel's kernel_contract: one bracket per velocity slice."""
    return kernel_contract("nonlinear", *_seeded(case, seed))


def comm_volumes(case, seed):
    """Relative error of two per-rank volumes against their closed forms."""
    vm = VolumeModel(state_bytes=96_000_000_000, field_bytes_base=8_000_000)
    v1 = alltoall_volume(vm, CommPlan(8, 3, spread_nodes=2, ranks_per_node=4))
    v2 = allreduce_volume(vm, CommPlan(4, 6, spread_nodes=1, ranks_per_node=4))
    err = max(abs(v1 - 3.5e9) / 3.5e9, abs(v2 - 1e7 / 3) / (1e7 / 3))
    return err, 1e-12, err <= 1e-12


def comm_alltoall_parity(case, seed):
    """Largest |shared/dedicated alltoall time ratio - 1|: intra-node traffic sees no NIC."""
    worst = max(abs(r_a2a - 1.0) for r_a2a, _ in _comm_ratios())
    return worst, 0.01, worst <= 0.01


def comm_nic_ordering(case, seed):
    """Smallest excess of the allreduce ratio over the alltoall ratio; must be above 0."""
    least = min(r_ar - r_a2a for r_a2a, r_ar in _comm_ratios())
    return least, 0.0, least > 0.0


def comm_planner_intra(case, seed):
    """Nodes one dim1 group of the sh03b plan spans at 24 ranks on 6 nodes; must be 1.

    Vacuous today: the plan is n1 = 1, n2 = 24 (pinned in golden.json), so it
    holds with no transpose to place, until the planner changes (ROADMAP item 6).
    """
    vm = VolumeModel.from_shape(make_case("sh03b"))
    plan = plan_decomposition(vm, 24, 6, builtin_topology("perlmutter_like"))
    return plan.spread_nodes, 1, plan.placement == "dim1_intra_node"


def kernel_checksums(case, seed):
    """Kernels whose timed-run checksum differs from a direct run's."""
    h, inputs = _seeded(case, seed)
    timed = time_calls({kernel: functools.partial(run_kernel, kernel, h, inputs) for kernel in KERNEL_NAMES}, 3)
    bad = sum(t.checksum != checksum(run_kernel(kernel, h, inputs)) for kernel, t in timed.items())
    return bad, 0, bad == 0


def golden() -> dict:
    """The document ``tests/data/golden.json`` holds, built from the running code.

    ``states`` (seeded states) and ``exact`` (plan-padding and comm-estimate
    answers) call no BLAS and hold on every host.  ``checksums``, keyed
    ``numpy-<version> <blas_core>``, digests each kernel variant's one-thread
    output at ``seed`` and holds the value of every check at seed 1234, as
    ``verify`` reports them.
    """
    seed = 9
    shapes = (GridShape(50, 10, 10, 10, 2, 1), make_case("sh03b-desk"), make_case("em04b-desk"))
    states = {"x".join(map(str, s.dims)): {str(k): checksum(random_state(s, k)) for k in (7, 1234, 2026)}
              for s in shapes}
    padding = {str(p.n_logical): {**asdict(p), "cost_score": p.cost_score}
               for p in map(plan_padded_size, (48, 479, 480, 719, 1000))}
    comm = {}
    for case, topo, ranks, nodes in (("sh03b", "perlmutter_like", 24, 6), ("sh03b", "frontier_like", 24, 6),
                                     ("em04b", "frontier_like", 256, 32)):
        shape, machine = make_case(case), builtin_topology(topo)
        plan = plan_decomposition(VolumeModel.from_shape(shape), ranks, nodes, machine)
        comm[f"{case} {topo} {ranks}/{nodes}"] = {
            "plan": asdict(plan), "rows": [asdict(row) for row in predict_report(shape, machine, plan)]}
    kernels = {}
    for case in ("sh03b-desk", "em04b-desk"):
        verify = {name: check(case, 1234)[0] for name, check in CHECKS.items()}
        kernels[case] = {**{f"{k}/{v}": checksum(run_kernel(k, *_seeded(case, seed), v))
                            for k in KERNEL_NAMES for v in KERNEL_VARIANTS[k]}, "verify": verify}
    return {"seed": seed, "states": states, "exact": {"plan-padding": padding, "comm-estimate": comm},
            "checksums": {f"numpy-{np.__version__} {blas_core()}": kernels}}


#: Every check by name, in report order.
CHECKS = {
    check.__name__: check
    for check in (
        padding_minimal,
        padding_overhead,
        padding_examples,
        factorize_product,
        rng_determinism,
        transform_roundtrip,
        transform_parseval,
        bracket_oracle,
        bracket_self_zero,
        field_oracle,
        stream_variants,
        shear_variants,
        collision_oracle,
        nonlinear_slices,
        comm_volumes,
        comm_alltoall_parity,
        comm_nic_ordering,
        comm_planner_intra,
        kernel_checksums,
    )
}

#: The checks of the five kernels' contracts.
KERNEL_CONTRACT_CHECKS = ("field_oracle", "stream_variants", "shear_variants", "collision_oracle", "nonlinear_slices")
