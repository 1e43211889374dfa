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
Nyquist handling is pocketfft's own.  :func:`bracket` synthesizes g's
d/dx, d/dy pair once, then brackets f one leading-axis row per synthesis
and analysis pass, the product formed in place in f's two fields; slices
never mix, so results are the same as slice by slice.

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
from typing import NamedTuple

import numpy as np

from .padding import plan_padded_size


def kx_derivative_values(n_kx: int) -> np.ndarray:
    """Signed radial wavenumbers in FFT wrap order, the unpaired Nyquist entry zeroed."""
    k = np.arange(n_kx, dtype=float)
    k[(n_kx + 1) // 2:] -= n_kx
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
    parts = np.concatenate((rows.real, rows.imag), axis=-2)
    del rows
    return _y_matrices(n_ky, n_y)[0] @ parts


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


def bracket_plans(n_kx: int, n_ky: int):
    """Padded-size plans (plan_x, plan_y) of bracket's grid for an n_kx x n_ky spectrum.

    The y plan is built from the full signed toroidal extent 2*n_ky - 1,
    which is what the dealias rule applies to for a half spectrum: its
    products reach |ky| = 2(n_ky - 1), alias-free iff n_y > 3(n_ky - 1).
    """
    return plan_padded_size(n_kx), plan_padded_size(2 * n_ky - 1)


class Fields(NamedTuple):
    """g's shape, d/dx and d/dy factors (2, n_ky, n_kx) and fields (2, ..., n_y, n_x), from bracket_fields."""

    shape: tuple
    ik: np.ndarray
    pair: np.ndarray


def bracket_fields(g: np.ndarray) -> Fields:
    """g's d/dx, d/dy fields on bracket's padded grid, one to_real call, for bracket to take in place of g."""
    g = np.asarray(g, dtype=complex)
    n_ky, n_kx = g.shape[-2:]
    n_x, n_y = (plan.n_padded for plan in bracket_plans(n_kx, n_ky))
    ik = np.stack(np.broadcast_arrays(1j * kx_derivative_values(n_kx), 1j * np.arange(n_ky, dtype=float)[:, None]))
    return Fields(g.shape, ik, to_real(ik.reshape((2,) + (1,) * (g.ndim - 2) + ik.shape[1:]) * g, n_x, n_y))


def bracket(f: np.ndarray, g: np.ndarray | Fields, out: np.ndarray | None = None, *, rows=None) -> np.ndarray:
    """Dealiased Poisson bracket {f, g} = (dx f)(dy g) - (dy f)(dx g).

    Computed pseudo-spectrally: spectral derivatives (multiply by i*k with
    the radial Nyquist coefficient zeroed), synthesis on the padded grid,
    pointwise products, truncation back to retained modes.  On the grid of
    bracket_plans(n_kx, n_ky) the result equals the true quadratic
    convolution truncated to retained modes, with no aliased terms.

    Two steps: g's d/dx, d/dy pair is synthesized once (bracket_fields),
    then a per-row pass brackets f's leading-axis rows against it, each
    row's pair one to_real call.  The product is formed in place in f's
    two planes, released before the next row's synthesis, so a pass holds
    one row's temporaries.  Slices never mix, so a result is the same as
    slice by slice, and a row is the same whichever call brackets it.

    Args:
        f, g: spectra of identical logical shape; leading batch dimensions
            broadcast against each other.  g may be given as its Fields.
        out: optional C-contiguous complex array of the result's shape,
            written and returned in place of a fresh one.
        rows: iterable of the leading-axis rows to bracket, read as the
            pass goes; other rows of ``out`` are left as they are.

    Raises:
        ValueError: shape mismatch or an unusable ``out``.
    """
    f = np.asarray(f, dtype=complex)
    g = g if isinstance(g, Fields) else bracket_fields(g)
    if f.shape[-2:] != g.shape[-2:]:
        raise ValueError(f"logical shapes differ: {f.shape[-2:]} vs {g.shape[-2:]}")
    (n_ky, n_kx), (n_y, n_x) = f.shape[-2:], g.pair.shape[-2:]
    shape = np.broadcast_shapes(f.shape, g.shape)
    if out is None:
        out = np.empty(shape, dtype=complex)
    elif out.shape != shape or out.dtype != complex or not out.flags.c_contiguous:
        raise ValueError(f"out must be C-contiguous complex {shape}, got {out.dtype} {out.shape}")
    batch = shape[:-2] or (1,)
    f = np.broadcast_to(f, batch + (n_ky, n_kx))
    gx, gy = (np.broadcast_to(d, batch + (n_y, n_x)) for d in g.pair)
    ik = g.ik.reshape((2,) + (1,) * (len(batch) - 1) + (n_ky, n_kx))  # broadcasts against one row of f
    result = out.reshape(batch + (n_ky, n_kx))
    for row in range(batch[0]) if rows is None else rows:
        fx, fy = to_real(ik * f[row], n_x, n_y)  # the pair on a new leading axis
        prod = np.multiply(fx, gy[row], out=fx)
        prod -= np.multiply(fy, gx[row], out=fy)
        result[row] = to_spectrum(prod, n_kx, n_ky)
        del fx, fy, prod  # views of both planes: drop them before the next row's synthesis
    return out
