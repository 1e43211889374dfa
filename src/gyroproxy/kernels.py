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

``field``, ``collision`` and ``nonlinear`` have one implementation, which
runs as their ``optimized`` variant; they have no ``original``.

Every kernel splits its output over ``threads`` workers of one process-wide
pool per thread count: a linear kernel into equal disjoint slabs, nonlinear
into velocity rows claimed one at a time, so a slowed worker leaves its
rows to the others.  A slab or a row runs as on one thread, bit for bit.

A kernel returns a fresh ``np.empty`` array, written in full.  At import
the module sets glibc's malloc, through ``mallopt`` and two constants, to
serve blocks of up to 32 MiB from the heap and to keep up to 256 MiB free
at its top.  So freed outputs and temporaries stay mapped and serve later
allocations of any shape: as with device arrays created once, a step pays
next to no page faults after its first run.  On a libc with no ``mallopt``
the calls are skipped, and the kernels stay correct but pay the faults.

``time_calls`` is the one timing loop: ``bench``, ``fft-bench``, ``verify``
and the optimization gate all time through it.  It runs the callables it
is given interleaved, rep by rep, each timed call after an untimed call
of the same callable, and counts minor page faults around the timed
calls only, with the process CPU seconds they took.  ``alloc_peak``
traces one more call's allocation peak.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import itertools
import resource
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .grid import GridShape, random_complex, substream
from .spectral import bracket, bracket_fields, bracket_plans

KERNEL_NAMES = ("field", "stream", "shear", "collision", "nonlinear")
VARIANTS = ("original", "optimized")
#: The variants each kernel runs: both sides of an optimization where one
#: exists, the single implementation otherwise.
KERNEL_VARIANTS = {k: VARIANTS if k in ("stream", "shear") else ("optimized",) for k in KERNEL_NAMES}

#: Fourth-order centered first-derivative coefficients, the default theta
#: stencil; entry i applies at offset i - width//2.
DEFAULT_STENCIL = (1.0 / 12.0, -8.0 / 12.0, 0.0, 8.0 / 12.0, -1.0 / 12.0)


@functools.lru_cache(maxsize=None)
def _pool(threads: int) -> ThreadPoolExecutor:
    """The process-wide pool of ``threads`` workers, made on first use."""
    return ThreadPoolExecutor(threads, thread_name_prefix="gyroproxy")


def _keep_freed_memory() -> None:
    """Set glibc's malloc to keep freed blocks of up to 32 MiB mapped; a libc with no ``mallopt`` is left as it is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: larger blocks get a mapping of their own
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD: free memory at the heap top kept before it is returned


_keep_freed_memory()


def _fresh(shape, dtype=complex) -> np.ndarray:
    """An uninitialised C-order array: the kernels' one allocation point, so a test can hand out junk-filled memory."""
    return np.empty(shape, dtype)


def _split(n: int, threads: int, fn) -> None:
    """fn(lo, hi) over equal disjoint ranges covering 0..n, on min(threads, n) workers: a static split.

    A single range runs fn(0, n) on the calling thread, with no pool call.
    """
    parts = min(threads, n)
    if parts <= 1:
        return fn(0, n)
    edges = [n * i // parts for i in range(parts + 1)]
    list(_pool(threads).map(fn, edges[:-1], edges[1:]))


def field_kernel(h: np.ndarray, weights: np.ndarray, threads: int = 1) -> np.ndarray:
    """Weighted reduction over (species, energy, xi).

    out[theta, ky, kx] = sum_{s,e,xi} w[s,e,xi] * h[s,e,xi,theta,ky,kx]
    The real weights multiply h.view(float) as one GEMV per theta plane,
    split over theta: cut inside a plane, a GEMV rounds its edges differently.
    """
    if weights.shape != h.shape[:3] or np.iscomplexobj(weights):
        raise ValueError(f"need real weights of shape {h.shape[:3]}, got {weights.dtype} {weights.shape}")
    h = np.ascontiguousarray(h, dtype=complex)
    out = _fresh(h.shape[3:])
    hf = h.view(float).reshape(weights.size, h.shape[3], -1).transpose(1, 0, 2)
    of = out.view(float).reshape(h.shape[3], -1)
    _split(len(of), threads, lambda lo, hi: np.matmul(weights.reshape(-1), hf[lo:hi], out=of[lo:hi]))
    return out


def stream_kernel(h: np.ndarray, stencil, variant: str = "optimized", threads: int = 1) -> np.ndarray:
    """Periodic stencil along theta.

    out[..., t, :, :] = sum_d c_d * h[..., (t+d) mod n_theta, :, :]
    with offsets d = -w//2 .. w//2 for an odd stencil width w <= n_theta.
    Optimized: circ[t, (t+d) mod n_theta] = c_d, applied to every theta
    column of h.view(float) as one batched real GEMM, split over the
    flattened velocity rows.  The original runs on one thread.
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
        out = _fresh(h.shape, h.dtype)
        out[...] = 0
        for i, c in enumerate(stencil):
            out += c * np.roll(h, half - i, axis=3)
        return out
    circ = sum(c * np.roll(np.eye(n_theta), i - half, axis=1) for i, c in enumerate(stencil))
    h = np.ascontiguousarray(h, dtype=complex)
    out = _fresh(h.shape)
    hf, of = (a.view(float).reshape(-1, n_theta, 2 * h.shape[4] * h.shape[5]) for a in (h, out))
    _split(len(hf), threads, lambda lo, hi: np.matmul(circ, hf[lo:hi], out=of[lo:hi]))
    return out


def shear_kernel(h: np.ndarray, shifts, variant: str = "optimized", threads: int = 1) -> np.ndarray:
    """Radial gather, shifted per toroidal mode, zero-filled at the edges.

    out[..., ky, kx] = h[..., ky, kx + shift[ky]]  (zero outside the range)
    Split over the flattened (species, energy, xi, theta) rows.
    """
    _check_variant(variant)
    shifts = np.asarray(shifts, dtype=int)
    n_ky, n_kx = h.shape[-2:]
    if shifts.shape != (n_ky,):
        raise ValueError(f"need one shift per toroidal mode, got shape {shifts.shape}")
    if np.any(np.abs(shifts) > n_kx):
        raise ValueError("shifts exceed the radial extent")

    src = h.reshape(-1, n_ky, n_kx)
    dst = _fresh(src.shape, src.dtype)

    def gather(lo, hi):
        for iy, s in enumerate(shifts):
            if s >= 0:
                dst[lo:hi, iy, : n_kx - s] = src[lo:hi, iy, s:]
                dst[lo:hi, iy, n_kx - s :] = 0
            else:
                dst[lo:hi, iy, -s:] = src[lo:hi, iy, : n_kx + s]
                dst[lo:hi, iy, :-s] = 0

    _split(len(src), threads, gather)
    if variant == "original":  # gather into scratch storage, then copy it out
        out = _fresh(src.shape, src.dtype)
        np.copyto(out, dst)
        dst = out
    return dst.reshape(h.shape)


def collision_kernel(h: np.ndarray, matrices: np.ndarray, threads: int = 1) -> np.ndarray:
    """Per-theta dense matrix-vector multiply over flattened velocity space.

    The velocity vector index is the C-order flattening of
    (species, energy, xi), matching the state layout.  The real matrices
    multiply h.view(float) in one batched real GEMM, one per theta plane,
    split over theta.
    """
    ns, ne, nxi, n_theta = h.shape[:4]
    m = ns * ne * nxi
    if matrices.shape != (n_theta, m, m) or np.iscomplexobj(matrices):
        raise ValueError(f"need real matrices of shape {(n_theta, m, m)}, got {matrices.dtype} {matrices.shape}")
    h = np.ascontiguousarray(h, dtype=complex)
    out = _fresh(h.shape)
    hf, of = (a.view(float).reshape(m, n_theta, -1).transpose(1, 0, 2) for a in (h, out))
    _split(n_theta, threads, lambda lo, hi: np.matmul(matrices[lo:hi], hf[lo:hi], out=of[lo:hi]))
    return out


def nonlinear_kernel(h: np.ndarray, phi: np.ndarray, threads: int = 1) -> np.ndarray:
    """Dealiased bracket of every (species, energy, xi, theta) slice with phi.

    Args:
        h: distribution state.
        phi: field moment [theta][toroidal][radial], bracketed against each
            state slice at the matching theta on bracket's own padded grid.
        threads: workers that claim velocity rows one at a time and bracket
            each into the output against phi's fields, synthesized once per
            call.  Any thread count gives the same result.
    """
    n_theta, n_ky, n_kx = h.shape[3:]
    if phi.shape != (n_theta, n_ky, n_kx):
        raise ValueError(f"phi shape {phi.shape} != field dims {(n_theta, n_ky, n_kx)}")
    batch = h.reshape(-1, n_theta, n_ky, n_kx)
    out = _fresh(batch.shape)
    workers = min(threads, len(batch))
    if workers <= 1:
        bracket(batch, phi, out=out)
    else:
        fields, claims = bracket_fields(phi), itertools.count()  # next() on a count is atomic under the GIL
        claim = lambda _: bracket(batch, fields, out=out, rows=itertools.takewhile(len(batch).__gt__, claims))
        list(_pool(threads).map(claim, range(workers)))
    return out.reshape(h.shape)


def _check_variant(variant: str):
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def make_kernel_inputs(shape: GridShape, seed: int) -> dict:
    """Seeded auxiliary inputs for every kernel.

    Substreams (see grid.substream): 1 field weights, 2 shear shifts,
    3 collision matrices, 4 field moment.  The stencil is the fixed
    DEFAULT_STENCIL; it is a scheme constant, not data.  ``plans`` is
    the bracket's padded grid, for reports only: no kernel reads it.
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
    """Dispatch one kernel by name on a prepared state and input set.

    Raises ValueError for a kernel or variant that does not exist,
    ``original`` of a single-implementation kernel included, and for
    fewer than one thread.
    """
    if kernel not in KERNEL_VARIANTS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNEL_NAMES}")
    if variant not in KERNEL_VARIANTS[kernel]:
        raise ValueError(f"{kernel} has no variant {variant!r}; expected one of {KERNEL_VARIANTS[kernel]}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if kernel == "field":
        return field_kernel(h, inputs["weights"], threads)
    if kernel == "stream":
        return stream_kernel(h, inputs["stencil"], variant, threads)
    if kernel == "shear":
        return shear_kernel(h, inputs["shifts"], variant, threads)
    if kernel == "collision":
        return collision_kernel(h, inputs["matrices"], threads)
    return nonlinear_kernel(h, inputs["phi"], threads)


def checksum(values: np.ndarray) -> str:
    """Order-sensitive digest of an array, shape and payload included."""
    digest = hashlib.sha256()
    a = np.ascontiguousarray(values)
    digest.update(repr((a.shape, a.dtype.str)).encode())
    digest.update(a.tobytes())
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class Timing:
    """Seconds, minor page faults and CPU use over one callable's timed calls."""

    reps: int
    median_s: float
    min_s: float
    iqr_s: float
    minflt_per_call: float
    cpu_per_wall: float
    checksum: str


def time_calls(calls: dict, reps: int) -> dict:
    """Time zero-argument callables against each other: label -> Timing.

    The callables run interleaved, rep by rep, so host drift falls on all
    alike.  Each timed call follows an untimed call of the same callable:
    callables allocate differently, and a call timed straight after
    another pays page faults for the heap that one left behind.  Each
    output is dropped outside the timed interval, before the next call
    starts, so the heap serves the next output from its memory (see the
    module docstring).  Minor page faults and the process's CPU seconds
    (user plus system, every thread) are read with getrusage around each
    timed call only; ``cpu_per_wall`` divides the CPU seconds by the wall
    seconds of those calls, so it reads near the number of busy threads.  The checksum of the last rep's output pins
    what was timed.
    """
    if reps < 3:
        raise ValueError(f"reps must be >= 3, got {reps}")
    times = {label: [] for label in calls}
    faults = dict.fromkeys(calls, 0)
    cpu = dict.fromkeys(calls, 0.0)
    digests = {}
    for rep in range(reps):
        for label, call in calls.items():
            call()
            before = resource.getrusage(resource.RUSAGE_SELF)
            start = time.perf_counter()
            out = call()
            times[label].append(time.perf_counter() - start)
            after = resource.getrusage(resource.RUSAGE_SELF)
            faults[label] += after.ru_minflt - before.ru_minflt
            cpu[label] += after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
            if rep == reps - 1:
                digests[label] = checksum(out)
            del out
    timings = {}
    for label, t in times.items():
        q1, _, q3 = statistics.quantiles(t, n=4)
        timings[label] = Timing(reps, statistics.median(t), min(t), q3 - q1, faults[label] / reps,
                                cpu[label] / sum(t), digests[label])
    return timings


def alloc_peak(call) -> int:
    """Traced allocation peak of one call of a zero-argument callable, in bytes.

    What the call still holds when it returns, its output, is left out: the
    figure is the high-water mark of its temporaries, as tracemalloc sees
    numpy's buffers.  A trace already running is left running, with its
    peak reset to what is held now.
    """
    import tracemalloc  # here, not at the top: it loads pickle and tokenize, 0.1-0.2 MB resident

    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        out = call()  # held until current is read
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return peak - current


def _openblas(stem: str, restype):
    """OpenBLAS's ``stem`` function, found through numpy's core extension that links it, else None."""
    names = (f"scipy_openblas_{stem}64_", f"openblas_{stem}64_", f"openblas_{stem}")
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        fn = next(getattr(lib, name) for name in names if hasattr(lib, name))
    except (AttributeError, OSError, StopIteration):
        return None
    fn.argtypes, fn.restype = (), restype
    return fn


def blas_core() -> str:
    """Core type of the OpenBLAS numpy links (``SkylakeX``, ...), else ``unknown``; GEMM bits depend on it."""
    fn = _openblas("get_corename", ctypes.c_char_p)
    return fn().decode() if fn else "unknown"


def blas_threads() -> int | str:
    """Threads the OpenBLAS numpy links runs a BLAS call on, else ``unknown``."""
    fn = _openblas("get_num_threads", ctypes.c_int)
    return fn() if fn else "unknown"
