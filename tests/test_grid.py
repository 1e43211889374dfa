import dataclasses
import functools
import math

import numpy as np
import pytest

from gyroproxy.grid import (
    GridShape,
    case_names,
    component_mean_abs,
    make_case,
    random_complex,
    random_state,
    substream,
)
from gyroproxy.kernels import alloc_peak


@pytest.mark.parametrize("name, expected", [
    ("sh03b", (480, 48, 32, 24, 8, 3)),
    ("em04b", (1344, 288, 24, 18, 8, 3)),
    ("sh03b-desk", (48, 8, 8, 6, 4, 3)),
    ("em04b-desk", (96, 16, 6, 6, 4, 3)),
])
def test_case_table(name, expected):
    shape = make_case(name)
    got = (shape.n_radial, shape.n_toroidal, shape.n_theta,
           shape.n_xi, shape.n_energy, shape.n_species)
    assert got == expected


def test_case_names_sorted():
    names = case_names()
    assert names == tuple(sorted(names))
    assert set(names) == {"sh03b", "em04b", "sh03b-desk", "em04b-desk"}


def test_make_case_unknown_lists_valid_names():
    with pytest.raises(ValueError, match="sh03b"):
        make_case("nope")


def test_dims_storage_order():
    # radial is the fastest (last) axis, species the slowest
    shape = make_case("sh03b-desk")
    assert shape.dims == (3, 4, 6, 8, 8, 48)
    assert shape.dims[-1] == shape.n_radial
    assert shape.cell_count == 221184
    assert shape.state_bytes == 221184 * 16


def test_field_dims_and_velocity_size():
    shape = GridShape(n_radial=5, n_toroidal=3, n_theta=4, n_xi=2, n_energy=2, n_species=2)
    assert shape.field_dims == (4, 3, 5)
    assert shape.field_bytes == 4 * 3 * 5 * 16
    assert shape.velocity_size == 8


@pytest.mark.parametrize("bad", [0, -1, 2.0, "3"])
def test_shape_rejects_nonpositive_and_nonint(bad):
    with pytest.raises(ValueError):
        GridShape(bad, 1, 1, 1, 1, 1)


def test_shape_rejects_unaddressable_product():
    # 2^60 cells of 16 bytes each overflows the addressable bound
    with pytest.raises(ValueError, match="bytes"):
        GridShape(2**20, 2**20, 2**10, 2**10, 1, 1)


def test_substream_seed_validation():
    with pytest.raises(ValueError):
        substream(-1)
    with pytest.raises(ValueError):
        substream(2**64)
    with pytest.raises(ValueError):
        substream(1.5)
    with pytest.raises(ValueError):
        substream(3, stream=-1)


def test_substream_streams_distinct():
    draws = [substream(7, s).uniform(-1, 1, 8) for s in range(6)]
    for a in range(6):
        for b in range(a + 1, 6):
            assert not np.array_equal(draws[a], draws[b])


def test_substream_reproducible():
    a = substream(1234, 3).uniform(-1, 1, 100)
    b = substream(1234, 3).uniform(-1, 1, 100)
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "dims",
    # (65536,) fills exactly one scratch block; (3, 65537) is three full
    # blocks plus 3 elements per component
    [(3, 4), (5,), (3, 5, 7), (1,), (65536,), (3, 65537)],
    ids=["3x4", "5", "3x5x7", "1", "65536", "3x65537"],
)
def test_random_complex_layout_pinned(dims):
    """Real block drawn first, imaginary block second, then interleaved."""
    count = math.prod(dims)
    ref = substream(9, 0)
    re = ref.uniform(-1.0, 1.0, count)
    im = ref.uniform(-1.0, 1.0, count)
    want = (re + 1j * im).reshape(dims)
    gen = substream(9, 0)
    got = random_complex(gen, dims)
    assert np.array_equal(got, want)
    # exactly 2*count doubles consumed: both streams continue in step
    assert gen.random() == ref.random()


def _random_state_extra_bytes(shape):
    """Traced peak of one random_state call beyond the state itself."""
    random_state(GridShape(1, 1, 1, 1, 1, 1), 1)  # numpy.random imports lazily
    return alloc_peak(functools.partial(random_state, shape, 1))


def test_random_state_memory_budget():
    # the state plus a fixed 512 KiB scratch; a component-sized scratch
    # block reads about +5.3 MB here
    shape = make_case("em04b-desk")
    extra = _random_state_extra_bytes(shape)
    assert extra <= 2**20, extra
    # the scratch does not grow with the state
    doubled = dataclasses.replace(shape, n_species=2 * shape.n_species)
    assert abs(_random_state_extra_bytes(doubled) - extra) <= 2**16


def test_random_state_deterministic():
    shape = GridShape(6, 3, 2, 2, 2, 1)
    a = random_state(shape, 42)
    b = random_state(shape, 42)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, random_state(shape, 43))
    assert a.shape == shape.dims
    assert a.dtype == np.complex128


def test_random_state_component_range():
    h = random_state(GridShape(16, 4, 4, 3, 2, 2), 5)
    assert np.max(np.abs(h.real)) <= 1.0
    assert np.max(np.abs(h.imag)) <= 1.0
    # uniform components have mean |x| = 1/2
    assert abs(component_mean_abs(h) - 0.5) < 0.02
