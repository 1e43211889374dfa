"""Test-case shapes and deterministic state generation.

The proxy state is a dense complex array indexed
``[species][energy][xi][theta][toroidal][radial]`` with radial fastest
(C order).  Every kernel and every oracle in this package assumes that
order, so a transposed array fails loudly instead of silently.

Random data comes from the Philox 4x64 counter-based bit generator keyed
by the seed (counter starting at zero), which is reproducible bit for bit
across platforms.  Auxiliary inputs draw from numbered substreams obtained
by jumping the generator; see :func:`substream` for the stream map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Case shapes as (n_radial, n_toroidal, n_theta, n_xi, n_energy, n_species).
#: sh03b and em04b are full-scale benchmark resolutions.  The -desk
#: variants keep the aspect ratios but shrink every axis so a full kernel
#: sweep runs in seconds on one workstation.
_CASES = {
    "sh03b": (480, 48, 32, 24, 8, 3),
    "em04b": (1344, 288, 24, 18, 8, 3),
    "sh03b-desk": (48, 8, 8, 6, 4, 3),
    "em04b-desk": (96, 16, 6, 6, 4, 3),
}

# Refuse shapes whose byte count could not be addressed or allocated even
# in principle; the product is computed in exact integer arithmetic first,
# so oversized requests are detected rather than wrapped.
_MAX_STATE_BYTES = 2**62

BYTES_PER_ELEMENT = 16  # complex double
_DRAW_BLOCK = 1 << 16  # doubles per random_complex scratch block (512 KiB)


@dataclass(frozen=True)
class GridShape:
    """Resolution of one test case.

    Attributes:
        n_radial: radial spectral modes (the fastest-varying index).
        n_toroidal: nonnegative toroidal modes.
        n_theta: poloidal grid points.
        n_xi: pitch-angle points.
        n_energy: energy points.
        n_species: kinetic species.
    """

    n_radial: int
    n_toroidal: int
    n_theta: int
    n_xi: int
    n_energy: int
    n_species: int

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.state_bytes > _MAX_STATE_BYTES:
            raise ValueError(
                f"state of {self.state_bytes} bytes exceeds the addressable bound"
            )

    @property
    def dims(self) -> tuple[int, int, int, int, int, int]:
        """State array dimensions in storage order (radial last)."""
        return (
            self.n_species,
            self.n_energy,
            self.n_xi,
            self.n_theta,
            self.n_toroidal,
            self.n_radial,
        )

    @property
    def cell_count(self) -> int:
        return math.prod(self.dims)

    @property
    def state_bytes(self) -> int:
        return self.cell_count * BYTES_PER_ELEMENT

    @property
    def field_dims(self) -> tuple[int, int, int]:
        """Field-moment dimensions [theta][toroidal][radial]."""
        return (self.n_theta, self.n_toroidal, self.n_radial)

    @property
    def field_bytes(self) -> int:
        return math.prod(self.field_dims) * BYTES_PER_ELEMENT

    @property
    def velocity_size(self) -> int:
        """Size of the flattened velocity space (species, energy, xi)."""
        return self.n_species * self.n_energy * self.n_xi


def case_names() -> tuple[str, ...]:
    return tuple(sorted(_CASES))


def make_case(name: str) -> GridShape:
    """Look up a named test-case shape.

    Raises:
        ValueError: unknown name (the message lists the valid ones).
    """
    try:
        dims = _CASES[name]
    except KeyError:
        valid = ", ".join(sorted(_CASES))
        raise ValueError(f"unknown case {name!r}; valid names: {valid}") from None
    return GridShape(*dims)


def substream(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic generator for one numbered substream of a seed.

    Stream assignments used by this package:
    0 distribution state, 1 field weights, 2 shear shifts,
    3 collision matrices, 4 field moment, 5 scratch fields.

    Substream k is Philox(key=seed) jumped k times, so streams never
    overlap and adding a stream never perturbs existing ones.
    """
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    if stream < 0:
        raise ValueError("stream must be nonnegative")
    bits = np.random.Philox(key=int(seed))
    if stream:
        bits = bits.jumped(stream)
    return np.random.Generator(bits)


def random_complex(gen: np.random.Generator, dims: tuple[int, ...]) -> np.ndarray:
    """Complex array with real and imaginary components uniform in [-1, 1].

    All real components are drawn first, then all the imaginary ones, so
    the layout is pinned for reproducibility.  The stream runs through one
    fixed 512 KiB scratch (``_DRAW_BLOCK`` doubles) whatever the result's
    size; each block is scaled into the result as ``2*d - 1``, bit for bit
    ``gen.uniform(-1, 1)``'s ``-1 + 2*d``.
    """
    flat = np.empty(math.prod(dims), np.complex128)
    scratch = np.empty(min(flat.size, _DRAW_BLOCK))
    for part in (flat.real, flat.imag):
        for lo in range(0, flat.size, _DRAW_BLOCK):
            d = gen.random(out=scratch[: flat.size - lo])
            np.subtract(np.multiply(d, 2.0, out=d), 1.0, out=part[lo : lo + _DRAW_BLOCK])
    return flat.reshape(dims)


def random_state(shape: GridShape, seed: int) -> np.ndarray:
    """Seeded proxy distribution state.

    A pure function of (shape, seed): same arguments give a bit-identical
    array on any platform.  Components lie in [-1, 1].  It allocates the
    state plus a fixed 512 KiB scratch, whatever the state size;
    allocation failures raise MemoryError.
    """
    return random_complex(substream(seed, 0), shape.dims)


def component_mean_abs(values: np.ndarray) -> float:
    """Mean absolute value over the real and imaginary components; uniform ones give 1/2."""
    return 0.5 * (float(np.mean(np.abs(values.real))) + float(np.mean(np.abs(values.imag))))
