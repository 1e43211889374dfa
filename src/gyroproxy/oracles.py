"""Reference implementations for equivalence checking.

Everything here recomputes a kernel result by the most literal route
available: explicit loops, per-element gathers, direct mode-sum
convolution.  It shares only inputs with the package, no code under
test: the seeded generator (``grid.random_complex``) and the planner's
``dealias_minimum`` and ``DEFAULT_PRIMES``.  So an agreement with the
production paths is evidence, not tautology.  Speed is a non-goal.
"""

from __future__ import annotations

import numpy as np

from .grid import random_complex
from .padding import DEFAULT_PRIMES, dealias_minimum


def smooth_numbers(bound, primes=DEFAULT_PRIMES):
    """Every integer <= bound whose factors all lie in the prime set.

    Built by repeated multiplication, no factorization involved, so it is
    an independent oracle for the planner.
    """
    values = {1}
    for p in primes:
        grown = set()
        for v in values:
            while v <= bound:
                grown.add(v)
                v *= p
        values |= grown
    return sorted(v for v in values if v <= bound)


def naive_padded_size(n_logical: int) -> int:
    """The scheme the planner replaced: the 3/2 dealias minimum rounded up to even, factors ignored."""
    return -(-dealias_minimum(n_logical) // 2) * 2


def hermitian_ky0(spec: np.ndarray) -> np.ndarray:
    """A copy with the ky = 0 row projected onto its Hermitian part, the part complex-to-real can carry."""
    spec = np.array(spec, dtype=complex)
    n_kx = spec.shape[-1]
    rev = (-np.arange(n_kx)) % n_kx
    row = spec[..., 0, :]
    spec[..., 0, :] = 0.5 * (row + np.conj(row[..., rev]))
    return spec


def is_hermitian(spec: np.ndarray) -> bool:
    """True when the ky = 0 row is Hermitian in kx to within 1e-12."""
    spec = np.asarray(spec)
    n_kx = spec.shape[-1]
    rev = (-np.arange(n_kx)) % n_kx
    row = spec[..., 0, :]
    return bool(np.max(np.abs(row - np.conj(row[..., rev]))) <= 1e-12)


def random_spectrum(n_kx: int, n_ky: int, gen: np.random.Generator) -> np.ndarray:
    """Random spectrum of a real field: components uniform in [-1, 1], made
    representable by :func:`_c2r_representable`, so it survives a round trip."""
    return _c2r_representable(random_complex(gen, (n_ky, n_kx)))


def field_moment_oracle(h: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Velocity-space reduction, one explicit loop per velocity index."""
    ns, ne, nxi = h.shape[:3]
    out = np.zeros(h.shape[3:], dtype=h.dtype)
    for s in range(ns):
        for e in range(ne):
            for x in range(nxi):
                out = out + weights[s, e, x] * h[s, e, x]
    return out


def stream_oracle(h: np.ndarray, stencil) -> np.ndarray:
    """Periodic stencil application, index by index in theta."""
    stencil = np.asarray(stencil, dtype=float)
    half = len(stencil) // 2
    n_theta = h.shape[3]
    out = np.zeros_like(h)
    for t in range(n_theta):
        acc = np.zeros_like(h[:, :, :, 0])
        for i, c in enumerate(stencil):
            acc = acc + c * h[:, :, :, (t + i - half) % n_theta]
        out[:, :, :, t] = acc
    return out


def shear_oracle(h: np.ndarray, shifts) -> np.ndarray:
    """Radial gather with zero fill, one (ky, kx) element at a time."""
    n_ky, n_kx = h.shape[-2:]
    out = np.zeros_like(h)
    for iy in range(n_ky):
        s = int(shifts[iy])
        for ix in range(n_kx):
            src = ix + s
            if 0 <= src < n_kx:
                out[..., iy, ix] = h[..., iy, src]
    return out


def collision_oracle(h: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """Per-theta dense matvec over velocity space, accumulated scalar by scalar.

    Every row i of a theta plane accumulates matrices[t, i, j] * h[j, t]
    over j in order, all rows at once; one plane at a time keeps the
    accumulator in cache.
    """
    ns, ne, nxi, n_theta = h.shape[:4]
    m = ns * ne * nxi
    hs = h.reshape(m, n_theta, -1)
    out = np.empty_like(hs)
    for t in range(n_theta):
        acc = np.zeros_like(hs[:, t])
        for j in range(m):
            acc += matrices[t, :, j, None] * hs[j, t]
        out[:, t] = acc
    return out.reshape(h.shape)


def bracket_convolution_oracle(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Poisson bracket by direct quadratic mode-sum convolution.

    Both spectra are first reduced to what a complex-to-real synthesis can
    represent (Hermitian ky = 0 row, empty unpaired Nyquist column), then
    extended over the full signed-ky plane and convolved term by term:

        {f,g}(k) = -sum_{k1+k2=k} (k1x*k2y - k1y*k2x) f(k1) g(k2)

    The output is truncated to the same retained window the production
    bracket uses.  No transform of any kind is involved.
    """
    f = _c2r_representable(f)
    g = _c2r_representable(g)
    n_ky, n_kx = f.shape
    kxv = np.rint(np.fft.fftfreq(n_kx, 1 / n_kx)).astype(int)
    kxd = np.where(2 * kxv == -n_kx, 0.0, kxv)  # derivative wavenumbers: none at the unpaired Nyquist

    f_full, ky_full = _extend_half_plane(f)
    g_full, _ = _extend_half_plane(g)

    # Accumulator over every reachable sum mode, indexed by offset.
    ky_lo = 2 * ky_full.min()
    ky_hi = 2 * ky_full.max()
    kx_lo = 2 * int(kxv.min())
    kx_hi = 2 * int(kxv.max())
    acc = np.zeros((ky_hi - ky_lo + 1, kx_hi - kx_lo + 1), dtype=complex)

    gy = g_full * ky_full[:, None]
    gx = g_full * kxd[None, :]
    for i1, k1y in enumerate(ky_full):
        for j1, k1x in enumerate(kxv):
            c = f_full[i1, j1]
            if c == 0:
                continue
            # contribution of f(k1): -( k1x' * k2y - k1y * k2x' ) f g,
            # with derivative wavenumbers (Nyquist zeroed) on both factors
            term = -(kxd[j1] * gy - k1y * gx) * c
            acc[np.ix_(k1y + ky_full - ky_lo, k1x + kxv - kx_lo)] += term

    out = np.zeros((n_ky, n_kx), dtype=complex)
    for iy in range(n_ky):
        for jx, kx in enumerate(kxv):
            out[iy, jx] = acc[iy - ky_lo, kx - kx_lo]
    if n_kx % 2 == 0:
        out[:, n_kx // 2] = 0.0
    return out


def dft_oracle_2d(field: np.ndarray) -> np.ndarray:
    """Forward transform of a real field by direct summation.

    Returns the unscaled half spectrum: rows ky = 0 .. n_y//2, columns the
    full kx range in wrap order.  O(N^2) per output point by construction
    (dense exponential matrices, no FFT anywhere), so it serves as an
    independent oracle for the production transforms.  It uses the bare
    DFT convention: forward unscaled, inverse divided by n_x*n_y, so it
    differs from spectral.to_spectrum / to_real by the grid point count.
    """
    field = np.asarray(field, dtype=float)
    n_y, n_x = field.shape
    y = np.arange(n_y)
    x = np.arange(n_x)
    ky = np.arange(n_y // 2 + 1)
    wy = np.exp(-2j * np.pi * np.outer(ky, y) / n_y)
    wx = np.exp(-2j * np.pi * np.outer(np.arange(n_x), x) / n_x)
    return wy @ field.astype(complex) @ wx.T


def idft_oracle_2d(spec: np.ndarray, n_y: int) -> np.ndarray:
    """Inverse of :func:`dft_oracle_2d` by direct summation, divided by n_x*n_y.

    Rows beyond the stored half are reconstructed from conjugate symmetry
    before the sum; rows whose mirror is also missing stay zero, so a
    spectrum already embedded in a larger half grid inverts correctly.
    """
    spec = np.asarray(spec, dtype=complex)
    m, n_x = spec.shape
    if m > n_y // 2 + 1:
        raise ValueError(f"{m} spectral rows do not fit a grid of {n_y} points")
    neg = (-np.arange(n_x)) % n_x
    full = np.zeros((n_y, n_x), dtype=complex)
    full[:m] = spec
    for row in range(m, n_y):
        mirror = n_y - row
        if 1 <= mirror < m:
            full[row] = np.conj(spec[mirror][neg])
    y = np.arange(n_y)
    x = np.arange(n_x)
    ey = np.exp(2j * np.pi * np.outer(y, np.arange(n_y)) / n_y)
    ex = np.exp(2j * np.pi * np.outer(x, np.arange(n_x)) / n_x)
    out = ey @ full @ ex.T / (n_x * n_y)
    return out.real


def comm_pair_fractions_oracle(n1, n2, spread_nodes, ranks_per_node, gpus_per_node, kind):
    """(same_gpu, same_node, cross_node) traffic fractions, rank by rank.

    Places every rank (i, j) of the n1 x n2 grid, with k = spread_nodes,
    c1 = ceil(n1/k) and q = ranks_per_node // c1, on node (j//q)*k + i//c1
    and GPU ((j%q)*c1 + i%c1) % gpus_per_node, then classes every ordered
    pair that exchanges data: alltoall pairs within each dim1 group (one
    j), allreduce ring edges (i, j) -> (i, j+1 mod n2).
    """
    c1 = -(-n1 // spread_nodes)
    q = ranks_per_node // c1
    place = [[((j // q) * spread_nodes + i // c1, ((j % q) * c1 + i % c1) % gpus_per_node)
              for j in range(n2)] for i in range(n1)]
    if kind == "alltoall":
        # list.count matches a rank against its whole group, itself included
        groups = [[row[j] for row in place] for j in range(n2)]
        nodes = [[node for node, _ in group] for group in groups]
        pairs = n2 * n1 * (n1 - 1)
        same_gpu = sum(group.count(a) - 1 for group in groups for a in group)
        same_node = sum(group.count(a) - 1 for group in nodes for a in group)
    else:
        edges = [(row[j], row[(j + 1) % n2]) for row in place for j in range(n2)]
        pairs = len(edges)
        same_gpu = sum(a == b for a, b in edges)
        same_node = sum(a[0] == b[0] for a, b in edges)
    f_sib = same_gpu / pairs
    f_node = same_node / pairs - f_sib
    return f_sib, f_node, 1.0 - f_sib - f_node


def _c2r_representable(spec: np.ndarray) -> np.ndarray:
    """A copy with a Hermitian ky = 0 row and, for even n_kx, an empty unpaired Nyquist column."""
    spec = hermitian_ky0(spec)
    n_kx = spec.shape[-1]
    if n_kx % 2 == 0:
        spec[..., n_kx // 2] = 0.0
    return spec


def _extend_half_plane(spec: np.ndarray):
    """Rows over the full signed ky range, negative rows by conjugate symmetry."""
    n_ky, n_kx = spec.shape
    neg = (-np.arange(n_kx)) % n_kx
    ky_full = np.arange(-(n_ky - 1), n_ky)
    full = np.empty((len(ky_full), n_kx), dtype=complex)
    for i, ky in enumerate(ky_full):
        full[i] = spec[ky] if ky >= 0 else np.conj(spec[-ky][neg])
    return full, ky_full
