"""Reference implementations for equivalence checking.

Everything here recomputes a kernel result by the most literal route
available: explicit loops, per-element gathers, direct mode-sum
convolution.  None of it shares code with the production paths, so an
agreement between the two is evidence, not tautology.  Speed is a
non-goal; these run on desk-scale shapes only.
"""

from __future__ import annotations

import numpy as np

from .padding import DEFAULT_PRIMES
from .spectral import hermitian_ky0, kx_derivative_values, kx_values


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
    """Per-theta dense matvec over velocity space, accumulated scalar by scalar."""
    ns, ne, nxi, n_theta = h.shape[:4]
    m = ns * ne * nxi
    hs = h.reshape(m, n_theta, -1)
    out = np.zeros_like(hs)
    for t in range(n_theta):
        for i in range(m):
            acc = np.zeros(hs.shape[2], dtype=hs.dtype)
            for j in range(m):
                acc = acc + matrices[t, i, j] * hs[j, t]
            out[i, t] = acc
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
    kxv = kx_values(n_kx)
    kxd = kx_derivative_values(n_kx)

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


def _c2r_representable(spec: np.ndarray) -> np.ndarray:
    spec = hermitian_ky0(np.asarray(spec, dtype=complex))
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
