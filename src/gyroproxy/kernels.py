"""The five proxy kernels, their variants, and the timing harness.

Each kernel reproduces an operation class and memory pattern, not any
physics: a velocity-space reduction (field), a periodic stencil in theta
(stream), a per-mode radial gather (shear), a per-theta dense matvec over
velocity space (collision), and a batch of dealiased 2D spectral
convolutions (nonlinear).

Where a restructuring optimization exists, both sides of it are kept:

* ``shear`` original materializes the shifted table into scratch storage
  and then copies it out; optimized writes the gather straight into the
  output.  Pure data movement, so the variants agree bitwise.
* ``stream`` original accumulates into the output once per stencil offset
  (reduction-style update order); optimized multiplies by the stencil's
  real theta circulant in one batched real GEMM on the state's float view.
  Same terms in a different association, so agreement is to rounding.

``field``, ``collision`` and ``nonlinear`` have one implementation; both
variant labels run it so benchmark sweeps stay uniform.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .grid import GridShape, random_complex, random_state, substream
from .spectral import bracket, bracket_plans

KERNEL_NAMES = ("field", "stream", "shear", "collision", "nonlinear")
VARIANTS = ("original", "optimized")

#: Fourth-order centered first-derivative coefficients, the default theta
#: stencil; entry i applies at offset i - width//2.
DEFAULT_STENCIL = (1.0 / 12.0, -8.0 / 12.0, 0.0, 8.0 / 12.0, -1.0 / 12.0)


def field_kernel(h: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted reduction over (species, energy, xi).

    out[theta, ky, kx] = sum_{s,e,xi} w[s,e,xi] * h[s,e,xi,theta,ky,kx]
    """
    if weights.shape != h.shape[:3]:
        raise ValueError(f"weights shape {weights.shape} != velocity dims {h.shape[:3]}")
    return np.tensordot(weights, h, axes=3)


def stream_kernel(h: np.ndarray, stencil, variant: str = "optimized") -> np.ndarray:
    """Periodic stencil along theta.

    out[..., t, :, :] = sum_d c_d * h[..., (t+d) mod n_theta, :, :]
    with offsets d = -w//2 .. w//2 for an odd stencil width w <= n_theta.
    Optimized: circ[t, (t+d) mod n_theta] = c_d, applied to every theta
    column of h.view(float) as one batched real GEMM.
    """
    _check_variant(variant)
    stencil = np.asarray(stencil)
    w = stencil.shape[0]
    n_theta = h.shape[3]
    if w % 2 == 0 or np.iscomplexobj(stencil):
        raise ValueError(f"stencil must be real with odd width, got {stencil}")
    if w > n_theta:
        raise ValueError(f"stencil width {w} exceeds n_theta {n_theta}")
    half = w // 2
    if variant == "original":
        out = np.zeros_like(h)
        for i, c in enumerate(stencil):
            out += c * np.roll(h, half - i, axis=3)
        return out
    circ = sum(c * np.roll(np.eye(n_theta), i - half, axis=1) for i, c in enumerate(stencil))
    h = np.ascontiguousarray(h, dtype=complex)
    out = np.empty(h.shape, dtype=complex)
    np.matmul(circ, h.view(float).reshape(*h.shape[:4], -1), out=out.view(float).reshape(*h.shape[:4], -1))
    return out


def shear_kernel(h: np.ndarray, shifts, variant: str = "optimized") -> np.ndarray:
    """Radial gather, shifted per toroidal mode, zero-filled at the edges.

    out[..., ky, kx] = h[..., ky, kx + shift[ky]]  (zero outside the range)
    """
    _check_variant(variant)
    shifts = np.asarray(shifts, dtype=int)
    n_ky, n_kx = h.shape[-2:]
    if shifts.shape != (n_ky,):
        raise ValueError(f"need one shift per toroidal mode, got shape {shifts.shape}")
    if np.any(np.abs(shifts) > n_kx):
        raise ValueError("shifts exceed the radial extent")

    def gather(dst):
        for iy, s in enumerate(shifts):
            if s >= 0:
                dst[..., iy, : n_kx - s] = h[..., iy, s:]
            else:
                dst[..., iy, -s:] = h[..., iy, : n_kx + s]

    if variant == "original":
        scratch = np.zeros_like(h)
        gather(scratch)
        return scratch.copy()
    out = np.zeros_like(h)
    gather(out)
    return out


def collision_kernel(h: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """Per-theta dense matrix-vector multiply over flattened velocity space.

    The velocity vector index is the C-order flattening of
    (species, energy, xi), matching the state layout.  The real matrices
    multiply h.view(float) in one batched real GEMM, one per theta plane.
    """
    ns, ne, nxi, n_theta = h.shape[:4]
    m = ns * ne * nxi
    if matrices.shape != (n_theta, m, m) or np.iscomplexobj(matrices):
        raise ValueError(f"need real matrices of shape {(n_theta, m, m)}, got {matrices.dtype} {matrices.shape}")
    h = np.ascontiguousarray(h, dtype=complex)
    out = np.empty(h.shape, dtype=complex)
    hf, of = (a.view(float).reshape(m, n_theta, -1).transpose(1, 0, 2) for a in (h, out))
    np.matmul(matrices, hf, out=of)
    return out


def nonlinear_kernel(h: np.ndarray, phi: np.ndarray, plans, threads: int = 1) -> np.ndarray:
    """Dealiased bracket of every (species, energy, xi, theta) slice with phi.

    Args:
        h: distribution state.
        phi: field moment [theta][toroidal][radial], bracketed against each
            state slice at the matching theta.
        plans: (plan_x, plan_y) pair satisfying the dealias bounds, e.g.
            from spectral.bracket_plans.
        threads: slices are independent; values > 1 split the batch across
            a thread pool.  The result is identical for any thread count.
    """
    n_theta, n_ky, n_kx = h.shape[3:]
    if phi.shape != (n_theta, n_ky, n_kx):
        raise ValueError(f"phi shape {phi.shape} != field dims {(n_theta, n_ky, n_kx)}")
    batch = h.reshape(-1, n_theta, n_ky, n_kx)
    if threads <= 1 or len(batch) < 2 * threads:
        return bracket(batch, phi, *plans).reshape(h.shape)
    out = np.empty(batch.shape, dtype=complex)
    edges = [len(batch) * i // threads for i in range(threads + 1)]

    def chunk(lo, hi):
        out[lo:hi] = bracket(batch[lo:hi], phi, *plans)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(chunk, edges[:-1], edges[1:]))
    return out.reshape(h.shape)


def _check_variant(variant: str):
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def make_kernel_inputs(shape: GridShape, seed: int) -> dict:
    """Seeded auxiliary inputs for every kernel.

    Substreams (see grid.substream): 1 field weights, 2 shear shifts,
    3 collision matrices, 4 field moment.  The stencil is the fixed
    DEFAULT_STENCIL; it is a scheme constant, not data.
    """
    m = shape.velocity_size
    return {
        "weights": substream(seed, 1).uniform(-1.0, 1.0, (shape.n_species, shape.n_energy, shape.n_xi)),
        "stencil": np.asarray(DEFAULT_STENCIL),
        "shifts": substream(seed, 2).integers(-3, 4, shape.n_toroidal),
        "matrices": substream(seed, 3).uniform(-1.0, 1.0, (shape.n_theta, m, m)),
        "phi": random_complex(substream(seed, 4), shape.field_dims),
        "plans": bracket_plans(shape.n_radial, shape.n_toroidal),
    }


def run_kernel(kernel: str, h: np.ndarray, inputs: dict, variant: str = "optimized", threads: int = 1) -> np.ndarray:
    """Dispatch one kernel by name on a prepared state and input set."""
    _check_variant(variant)
    if kernel == "field":
        return field_kernel(h, inputs["weights"])
    if kernel == "stream":
        return stream_kernel(h, inputs["stencil"], variant)
    if kernel == "shear":
        return shear_kernel(h, inputs["shifts"], variant)
    if kernel == "collision":
        return collision_kernel(h, inputs["matrices"])
    if kernel == "nonlinear":
        return nonlinear_kernel(h, inputs["phi"], inputs["plans"], threads)
    raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNEL_NAMES}")


def checksum(values: np.ndarray) -> str:
    """Order-sensitive digest of an array, shape and payload included."""
    digest = hashlib.sha256()
    a = np.ascontiguousarray(values)
    digest.update(repr((a.shape, a.dtype.str)).encode())
    digest.update(a.tobytes())
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class KernelTiming:
    kernel: str
    variant: str
    reps: int
    median_s: float
    min_s: float
    checksum: str


def time_kernel(kernel: str, variant: str, shape: GridShape, reps: int, seed: int, threads: int = 1) -> KernelTiming:
    """Median/min wallclock of a kernel over seeded data.

    One untimed warm-up run precedes the measured repetitions.  The
    checksum of the final output defeats dead-code elimination and pins
    determinism: it depends only on (kernel, variant, shape, seed).
    """
    if reps < 3:
        raise ValueError(f"reps must be >= 3, got {reps}")
    h = random_state(shape, seed)
    inputs = make_kernel_inputs(shape, seed)
    out = run_kernel(kernel, h, inputs, variant, threads)
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        out = run_kernel(kernel, h, inputs, variant, threads)
        times.append(time.perf_counter() - start)
    return KernelTiming(
        kernel=kernel,
        variant=variant,
        reps=reps,
        median_s=statistics.median(times),
        min_s=min(times),
        checksum=checksum(out),
    )
