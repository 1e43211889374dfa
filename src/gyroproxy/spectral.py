"""2D half-spectrum transforms and the dealiased Poisson bracket.

Conventions
-----------
A spectrum is a complex array indexed ``[ky][kx]`` (leading batch axes
allowed).  Rows hold the nonnegative toroidal modes ky = 0 .. n_ky-1; the
negative-ky half plane is implied by conjugate symmetry, which is what a
complex-to-real transform pair encodes.  Columns hold the full signed
radial range in FFT wrap order::

    kx = 0, 1, ..., ceil(n_kx/2) - 1, -floor(n_kx/2), ..., -1

so each sign is one contiguous run, copied by one slice on a resize.  A
real field is a real array indexed ``[y][x]``.

Synthesis (:func:`to_real`) is the plain mode sum

    field(x, y) = sum_k c(k) exp(i k . x)

evaluated on the target grid, so a unit coefficient yields a
unit-amplitude wave no matter how far the grid is padded.  Analysis
(:func:`to_spectrum`) divides by the grid point count, making it the
exact inverse of synthesis on retained modes.  Both scale inside the
transforms (``norm="forward"``) and form only the n_ky retained rows: the
x-stage is a pruned FFT (Markel 1971), the y-stage a product with a small
real DFT matrix made by irfft/rfft of identity rows, so its ky = 0 and
Nyquist handling is pocketfft's own.  :func:`bracket` runs a batch in
cache-sized blocks of slices; the block size never changes a result.

The unpaired Nyquist column
---------------------------
For even n_kx the column kx = -n_kx/2 has no +n_kx/2 partner inside the
retained window, so complex content there cannot describe a real-valued
field.  Whenever a spectrum is embedded into a larger grid or truncated
out of one, that column is therefore zeroed; a same-size transform keeps
it (there it is self-paired).  Derivatives zero it unconditionally, which
is also what keeps the bracket's antisymmetry exact.
"""

from __future__ import annotations

import functools

import numpy as np

from .padding import PaddedPlan, dealias_minimum, plan_padded_size, DEFAULT_RULE


def kx_values(n_kx: int) -> np.ndarray:
    """Signed radial wavenumbers in FFT wrap order."""
    k = np.arange(n_kx)
    return np.where(k < (n_kx + 1) // 2, k, k - n_kx)


def kx_derivative_values(n_kx: int) -> np.ndarray:
    """Derivative wavenumbers: as kx_values but with the Nyquist entry zeroed."""
    k = kx_values(n_kx).astype(float)
    if n_kx % 2 == 0:
        k[n_kx // 2] = 0.0
    return k


def _kx_runs(n_kx, n_ky, n_x, n_y):
    """Check the modes fit the grid; return the lengths of the kx >= 0 and kx < 0 runs kept."""
    if n_kx > n_x:
        raise ValueError(f"{n_kx} radial modes do not fit a grid of {n_x} points")
    if n_ky > n_y // 2 + 1:
        raise ValueError(f"{n_ky} toroidal modes do not fit a grid of {n_y} points")
    return (n_kx + 1) // 2, n_kx // 2 - (n_kx % 2 == 0 and n_x > n_kx)


@functools.lru_cache(maxsize=16)
def _y_matrices(n_ky: int, n_y: int):
    """Cached read-only y-DFT matrices: synthesis (n_y, 2*n_ky), analysis (2*n_ky, n_y)."""
    unit = np.eye(n_ky, n_y // 2 + 1)
    synthesis = np.fft.irfft(np.concatenate((unit, 1j * unit)), n=n_y, norm="forward").T.copy()
    coef = np.fft.rfft(np.eye(n_y), norm="forward")[:, :n_ky].T
    analysis = np.concatenate((coef.real, coef.imag))
    synthesis.flags.writeable = analysis.flags.writeable = False
    return synthesis, analysis


def to_real(spec: np.ndarray, n_x: int, n_y: int) -> np.ndarray:
    """Synthesize a real field of shape (..., n_y, n_x) from retained modes.

    Slice-embeds the n_ky rows and x-transforms only those; the y-stage
    multiplies their stacked real and imaginary parts by the synthesis
    matrix.  Both are unscaled (norm="forward") so coefficients keep their
    amplitude.  Anti-Hermitian content in the ky = 0 row is not
    representable and is projected out, as irfft does.

    Raises:
        ValueError: target grid smaller than the spectrum.
    """
    spec = np.asarray(spec, dtype=complex)
    n_ky, n_kx = spec.shape[-2:]
    pos, neg = _kx_runs(n_kx, n_ky, n_x, n_y)
    rows = np.zeros(spec.shape[:-2] + (n_ky, n_x), dtype=complex)
    rows[..., :pos] = spec[..., :pos]
    rows[..., n_x - neg:] = spec[..., n_kx - neg:]
    rows = np.fft.ifft(rows, axis=-1, norm="forward")
    return _y_matrices(n_ky, n_y)[0] @ np.concatenate((rows.real, rows.imag), axis=-2)


def to_spectrum(field: np.ndarray, n_kx: int, n_ky: int) -> np.ndarray:
    """Retained modes of a real field, shape (..., n_ky, n_kx).

    The analysis matrix forms only the n_ky retained rows, then an x-FFT of
    those, both scaled by 1/n (norm="forward"), then a slice truncation that
    zeroes the unpaired Nyquist column when the grid is larger (see module
    docstring), so to_spectrum(to_real(S, nx, ny), n_kx, n_ky) == S on retained modes.

    Raises:
        ValueError: more modes requested than the field resolves.
    """
    field = np.asarray(field, dtype=float)
    n_y, n_x = field.shape[-2:]
    pos, neg = _kx_runs(n_kx, n_ky, n_x, n_y)
    parts = _y_matrices(n_ky, n_y)[1] @ field
    half = np.empty(field.shape[:-2] + (n_ky, n_x), dtype=complex)
    half.real = parts[..., :n_ky, :]
    half.imag = parts[..., n_ky:, :]
    rows = np.fft.fft(half, axis=-1, norm="forward")
    out = np.zeros(field.shape[:-2] + (n_ky, n_kx), dtype=complex)
    out[..., :pos] = rows[..., :pos]
    out[..., n_kx - neg:] = rows[..., n_x - neg:]
    return out


def min_padded_x(n_kx: int) -> int:
    """Alias-free transform size for the radial dimension (3/2 rule)."""
    return dealias_minimum(n_kx, DEFAULT_RULE)


def min_padded_y(n_ky: int) -> int:
    """Alias-free transform size for the toroidal dimension.

    The half spectrum spans 2*n_ky - 1 signed modes, so quadratic products
    reach |ky| = 2(n_ky - 1) and the grid must exceed 3(n_ky - 1) points.
    """
    return 3 * n_ky - 2


def bracket_plans(n_kx: int, n_ky: int):
    """Padded-size plans (plan_x, plan_y) for bracket on an n_kx x n_ky spectrum.

    The y plan is built from the full signed toroidal extent 2*n_ky - 1,
    which is what the dealias rule applies to for a half spectrum.
    """
    return plan_padded_size(n_kx), plan_padded_size(2 * n_ky - 1)


def _plan_size(plan) -> int:
    return plan.n_padded if isinstance(plan, PaddedPlan) else int(plan)


#: Padded-grid bytes per bracket block, at 32 bytes a point per slice (f's two derivatives,
#: their product and its temporary).  On a 2-core x86-64 host 1-8 MiB timed alike, 16+ slower.
_BLOCK_BYTES = 1 << 21


def bracket(f: np.ndarray, g: np.ndarray, plan_x, plan_y, out: np.ndarray | None = None) -> np.ndarray:
    """Dealiased Poisson bracket {f, g} = (dx f)(dy g) - (dy f)(dx g).

    Computed pseudo-spectrally: spectral derivatives (multiply by i*k with
    the radial Nyquist coefficient zeroed), synthesis on the padded grid,
    pointwise products, truncation back to retained modes.  With plans
    satisfying the dealias bounds the result equals the true quadratic
    convolution truncated to retained modes, with no aliased terms.

    Each operand's two derivatives come from one stacked to_real call, g's
    once per call.  The batch runs in blocks of leading-axis rows sized to
    _BLOCK_BYTES; slices never mix, so the block size never changes a result.

    Args:
        f, g: spectra of identical logical shape; leading batch dimensions
            broadcast against each other.
        plan_x: PaddedPlan (or plain size) with n_padded >= ceil(3*n_kx/2).
        plan_y: PaddedPlan (or plain size) with n_padded >= 3*n_ky - 2.
        out: optional C-contiguous complex array of the result's shape,
            written and returned in place of a fresh one.

    Raises:
        ValueError: shape mismatch, plan below its dealias bound, or an
            unusable ``out``.
    """
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    if f.shape[-2:] != g.shape[-2:]:
        raise ValueError(f"logical shapes differ: {f.shape[-2:]} vs {g.shape[-2:]}")
    n_ky, n_kx = f.shape[-2:]
    n_x = _plan_size(plan_x)
    n_y = _plan_size(plan_y)
    if n_x < min_padded_x(n_kx):
        raise ValueError(f"plan_x size {n_x} below dealias bound {min_padded_x(n_kx)}")
    if n_y < min_padded_y(n_ky):
        raise ValueError(f"plan_y size {n_y} below dealias bound {min_padded_y(n_ky)}")
    shape = np.broadcast_shapes(f.shape, g.shape)
    if out is None:
        out = np.empty(shape, dtype=complex)
    elif out.shape != shape or out.dtype != complex or not out.flags.c_contiguous:
        raise ValueError(f"out must be C-contiguous complex {shape}, got {out.dtype} {out.shape}")
    batch = shape[:-2] or (1,)
    f = np.broadcast_to(f, batch + (n_ky, n_kx))
    ikx = 1j * kx_derivative_values(n_kx)
    iky = 1j * np.arange(n_ky, dtype=float)[:, None]
    ik = np.stack(np.broadcast_arrays(ikx, iky))  # (2, n_ky, n_kx): d/dx, d/dy
    gd = np.broadcast_to(to_real(g[..., None, :, :] * ik, n_x, n_y), batch + (2, n_y, n_x))
    blocks = out.reshape(batch + (n_ky, n_kx))
    step = max(1, _BLOCK_BYTES // (32 * n_x * n_y * (int(np.prod(batch[1:])) or 1)))
    for lo in range(0, batch[0], step):
        rows = slice(lo, lo + step)
        fd = to_real(f[rows, ..., None, :, :] * ik, n_x, n_y)
        prod = fd[..., 0, :, :] * gd[rows, ..., 1, :, :]
        prod -= fd[..., 1, :, :] * gd[rows, ..., 0, :, :]
        blocks[rows] = to_spectrum(prod, n_kx, n_ky)
    return out
