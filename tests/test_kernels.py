import functools
import sys
import threading
import weakref

import numpy as np
import pytest

from gyroproxy import kernels
from gyroproxy.checks import rel_err
from gyroproxy.grid import GridShape, make_case, random_state, substream
from gyroproxy.kernels import (
    DEFAULT_STENCIL,
    KERNEL_NAMES,
    KERNEL_VARIANTS,
    VARIANTS,
    Timing,
    checksum,
    collision_kernel,
    field_kernel,
    make_kernel_inputs,
    nonlinear_kernel,
    run_kernel,
    shear_kernel,
    stream_kernel,
    time_calls,
)
from gyroproxy.oracles import (
    bracket_convolution_oracle,
    collision_oracle,
    field_moment_oracle,
    is_hermitian,
    random_spectrum,
    shear_oracle,
    stream_oracle,
)
from gyroproxy.spectral import bracket, bracket_plans

SMALL = GridShape(n_radial=12, n_toroidal=4, n_theta=5, n_xi=3, n_energy=2, n_species=2)

#: Every (kernel, variant) pair run_kernel accepts.
KERNEL_CASES = [(k, v) for k in KERNEL_NAMES for v in KERNEL_VARIANTS[k]]


def seeded(shape, seed):
    return random_state(shape, seed), make_kernel_inputs(shape, seed)


# ---------------------------------------------------------------------------
# field


def test_field_uniform_weights_sum_velocity_space():
    h = np.ones(SMALL.dims, dtype=complex)
    w = np.ones(SMALL.dims[:3])
    out = field_kernel(h, w)
    assert out.shape == SMALL.dims[3:]
    assert np.all(out == SMALL.velocity_size)


def test_field_zero_weights():
    h, inputs = seeded(SMALL, 3)
    out = field_kernel(h, np.zeros_like(inputs["weights"]))
    assert np.all(out == 0.0)


def test_field_rejects_wrong_weight_shape():
    h = np.zeros(SMALL.dims, dtype=complex)
    with pytest.raises(ValueError):
        field_kernel(h, np.zeros((2, 2, 2)))


def test_field_matches_loop_oracle():
    for seed in (1, 2, 3):
        h, inputs = seeded(SMALL, seed)
        assert rel_err(field_kernel(h, inputs["weights"]),
                       field_moment_oracle(h, inputs["weights"])) < 1e-13


# ---------------------------------------------------------------------------
# stream


@pytest.mark.parametrize("variant", VARIANTS)
def test_stream_identity_stencil(variant):
    h = random_state(SMALL, 4)
    assert np.array_equal(stream_kernel(h, (1.0,), variant), h)


@pytest.mark.parametrize("variant", VARIANTS)
def test_stream_centered_difference_of_constant_is_zero(variant):
    h = np.full(SMALL.dims, 2.0 - 1.0j)
    out = stream_kernel(h, (-0.5, 0.0, 0.5), variant)
    assert np.all(out == 0.0)


def test_stream_rejects_bad_stencils():
    h = random_state(SMALL, 5)
    with pytest.raises(ValueError):
        stream_kernel(h, (0.5, 0.5))  # even width
    with pytest.raises(ValueError):
        stream_kernel(h, tuple(range(7)))  # wider than n_theta = 5
    with pytest.raises(ValueError):
        stream_kernel(h, DEFAULT_STENCIL, "fused")


def test_stream_wraps_periodically():
    # a single hot plane propagates to stencil-offset neighbours mod n_theta
    h = np.zeros(SMALL.dims, dtype=complex)
    h[..., 0, :, :] = 1.0
    out = stream_kernel(h, DEFAULT_STENCIL)
    hit = np.nonzero(np.any(out != 0.0, axis=(0, 1, 2, 4, 5)))[0]
    assert list(hit) == [1, 2, SMALL.n_theta - 2, SMALL.n_theta - 1]


def test_stream_variants_agree():
    shape = make_case("sh03b-desk")
    for seed in (1, 2, 3):
        h = random_state(shape, seed)
        a = stream_kernel(h, DEFAULT_STENCIL, "original")
        b = stream_kernel(h, DEFAULT_STENCIL, "optimized")
        assert rel_err(b, a) < 1e-13


def test_stream_matches_loop_oracle():
    h = random_state(SMALL, 6)
    want = stream_oracle(h, DEFAULT_STENCIL)
    for variant in VARIANTS:
        assert rel_err(stream_kernel(h, DEFAULT_STENCIL, variant), want) < 1e-13


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize(
    "stencil",
    [(0.25, 1.5, -0.75), (0.5, -1.25, 2.0, 0.375, -0.125)],
    ids=["asymmetric", "full-width"],
)
def test_stream_circulant_edges_match_loop_oracle(variant, stencil):
    # a nonzero centre, no symmetry to hide a transposed circulant, and a
    # width equal to n_theta = 5 so every theta plane feeds every output
    h = random_state(SMALL, 24)
    assert rel_err(stream_kernel(h, stencil, variant), stream_oracle(h, stencil)) < 1e-13


# ---------------------------------------------------------------------------
# shear


@pytest.mark.parametrize("variant", VARIANTS)
def test_shear_zero_shift_is_identity(variant):
    h = random_state(SMALL, 7)
    out = shear_kernel(h, np.zeros(SMALL.n_toroidal, dtype=int), variant)
    assert np.array_equal(out, h)
    assert out is not h


@pytest.mark.parametrize("variant", VARIANTS)
def test_shear_full_shift_clears_everything(variant):
    h = random_state(SMALL, 8)
    shifts = np.full(SMALL.n_toroidal, SMALL.n_radial)
    assert np.all(shear_kernel(h, shifts, variant) == 0.0)
    assert np.all(shear_kernel(h, -shifts, variant) == 0.0)


def test_shear_gathers_with_zero_fill():
    h = random_state(SMALL, 9)
    shifts = np.array([2, -1, 0, 3])
    out = shear_kernel(h, shifts)
    n = SMALL.n_radial
    assert np.array_equal(out[..., 0, : n - 2], h[..., 0, 2:])
    assert np.all(out[..., 0, n - 2 :] == 0.0)
    assert np.array_equal(out[..., 1, 1:], h[..., 1, : n - 1])
    assert np.all(out[..., 1, :1] == 0.0)


def test_shear_rejects_bad_shifts():
    h = random_state(SMALL, 10)
    with pytest.raises(ValueError):
        shear_kernel(h, np.zeros(3, dtype=int))  # one shift per ky required
    with pytest.raises(ValueError):
        shear_kernel(h, np.full(SMALL.n_toroidal, SMALL.n_radial + 1))


def test_shear_variants_agree_bitwise():
    # pure data movement: both variants and the oracle must match exactly
    shape = make_case("sh03b-desk")
    for seed in (1, 2, 3):
        h, inputs = seeded(shape, seed)
        a = shear_kernel(h, inputs["shifts"], "original")
        b = shear_kernel(h, inputs["shifts"], "optimized")
        assert np.array_equal(a, b)
        assert np.array_equal(a, shear_oracle(h, inputs["shifts"]))


# ---------------------------------------------------------------------------
# collision


def test_collision_identity_matrices():
    h = random_state(SMALL, 11)
    m = SMALL.velocity_size
    eye = np.broadcast_to(np.eye(m), (SMALL.n_theta, m, m)).copy()
    assert np.array_equal(collision_kernel(h, eye), h)


def test_collision_zero_matrices():
    h = random_state(SMALL, 12)
    m = SMALL.velocity_size
    out = collision_kernel(h, np.zeros((SMALL.n_theta, m, m)))
    assert np.all(out == 0.0)


def test_collision_rejects_wrong_matrix_shape():
    h = random_state(SMALL, 13)
    m = SMALL.velocity_size
    with pytest.raises(ValueError):
        collision_kernel(h, np.zeros((SMALL.n_theta, m, m + 1)))


def test_collision_matches_loop_oracle():
    for seed in (1, 2):
        h, inputs = seeded(SMALL, seed)
        got = collision_kernel(h, inputs["matrices"])
        assert rel_err(got, collision_oracle(h, inputs["matrices"])) < 1e-12


def test_collision_oracle_matches_scalar_triple_loop():
    # the oracle sums over j in the same order as one scalar loop per
    # (theta, row), so it must reproduce that loop bit for bit
    h, inputs = seeded(SMALL, 28)
    matrices = inputs["matrices"]
    m, n_theta = SMALL.velocity_size, SMALL.n_theta
    hs = h.reshape(m, n_theta, -1)
    want = np.zeros_like(hs)
    for t in range(n_theta):
        for i in range(m):
            acc = np.zeros(hs.shape[2], dtype=hs.dtype)
            for j in range(m):
                acc = acc + matrices[t, i, j] * hs[j, t]
            want[i, t] = acc
    assert np.array_equal(collision_oracle(h, matrices), want.reshape(h.shape))


# ---------------------------------------------------------------------------
# real coefficients on the state's float view (field, stream, collision)


@pytest.mark.parametrize("kernel,variant", [("field", "optimized"), ("stream", "original"), ("stream", "optimized"),
                                            ("collision", "optimized")])
def test_float_view_kernels_accept_any_layout(kernel, variant):
    # the product is written through a view of the output; a Fortran-order
    # or strided state must not turn that view into a discarded copy
    h, inputs = seeded(SMALL, 25)
    want = run_kernel(kernel, h, inputs, variant)
    strided = np.stack([h, random_state(SMALL, 26)], axis=-1)[..., 0]
    assert not strided.flags.c_contiguous
    for layout in (np.asfortranarray(h), strided):
        assert np.array_equal(run_kernel(kernel, layout, inputs, variant), want)


def test_float_view_kernels_reject_complex_coefficients():
    h, inputs = seeded(SMALL, 27)
    for variant in VARIANTS:
        with pytest.raises(ValueError):
            stream_kernel(h, (0.5j, 0.0, -0.5j), variant)
    with pytest.raises(ValueError):
        collision_kernel(h, inputs["matrices"].astype(complex))
    with pytest.raises(ValueError):
        field_kernel(h, inputs["weights"].astype(complex))


# ---------------------------------------------------------------------------
# nonlinear


def test_nonlinear_zero_field_moment():
    h, inputs = seeded(SMALL, 14)
    out = nonlinear_kernel(h, np.zeros_like(inputs["phi"]), inputs["plans"])
    assert np.all(out == 0.0)


def test_nonlinear_state_equal_to_moment_vanishes():
    # every slice brackets with itself: exactly zero
    _, inputs = seeded(SMALL, 15)
    h = np.broadcast_to(inputs["phi"], SMALL.dims).copy()
    out = nonlinear_kernel(h, inputs["phi"], inputs["plans"])
    assert np.all(out == 0.0)


def test_nonlinear_rejects_wrong_phi_shape():
    h, inputs = seeded(SMALL, 16)
    with pytest.raises(ValueError):
        nonlinear_kernel(h, inputs["phi"][:-1], inputs["plans"])


def test_nonlinear_is_per_slice_bracket():
    shape = GridShape(n_radial=16, n_toroidal=8, n_theta=2, n_xi=2, n_energy=1, n_species=1)
    h, inputs = seeded(shape, 17)
    out = nonlinear_kernel(h, inputs["phi"], inputs["plans"])
    for s in range(shape.n_species):
        for e in range(shape.n_energy):
            for x in range(shape.n_xi):
                for t in range(shape.n_theta):
                    want = bracket(h[s, e, x, t], inputs["phi"][t], *inputs["plans"])
                    assert rel_err(out[s, e, x, t], want) < 1e-13


def test_nonlinear_slice_matches_convolution_oracle():
    shape = GridShape(n_radial=16, n_toroidal=8, n_theta=2, n_xi=1, n_energy=1, n_species=1)
    gen = substream(18, 0)
    h = np.zeros(shape.dims, dtype=complex)
    for t in range(shape.n_theta):
        h[0, 0, 0, t] = random_spectrum(16, 8, gen)
    phi = np.stack([random_spectrum(16, 8, gen) for _ in range(shape.n_theta)])
    out = nonlinear_kernel(h, phi, bracket_plans(16, 8))
    for t in range(shape.n_theta):
        want = bracket_convolution_oracle(h[0, 0, 0, t], phi[t])
        assert rel_err(out[0, 0, 0, t], want) < 1e-12


def test_nonlinear_preserves_representability():
    shape = GridShape(n_radial=8, n_toroidal=4, n_theta=2, n_xi=2, n_energy=1, n_species=1)
    gen = substream(20, 0)
    h = np.zeros(shape.dims, dtype=complex)
    for idx in np.ndindex(shape.dims[:4]):
        h[idx] = random_spectrum(8, 4, gen)
    phi = np.stack([random_spectrum(8, 4, gen) for _ in range(shape.n_theta)])
    out = nonlinear_kernel(h, phi, bracket_plans(8, 4))
    for idx in np.ndindex(shape.dims[:4]):
        assert is_hermitian(out[idx])
        assert np.all(out[idx][:, 4] == 0.0)


# ---------------------------------------------------------------------------
# shared contracts


@pytest.mark.parametrize("kernel", ["field", "stream", "shear", "collision"])
def test_linear_kernels_are_linear(kernel):
    f, inputs = seeded(SMALL, 21)
    g = random_state(SMALL, 22)
    lhs = run_kernel(kernel, 2.0 * f - 0.5j * g, inputs)
    rhs = 2.0 * run_kernel(kernel, f, inputs) - 0.5j * run_kernel(kernel, g, inputs)
    assert rel_err(lhs, rhs) < 1e-12


@pytest.mark.parametrize("kernel,variant", KERNEL_CASES)
def test_thread_count_does_not_change_results(kernel, variant):
    # SMALL has 5 theta planes, so six threads is more workers than field
    # and collision can use
    h, inputs = seeded(SMALL, 19)
    one = run_kernel(kernel, h, inputs, variant, threads=1)
    for threads in (2, 4, 6):
        assert np.array_equal(run_kernel(kernel, h, inputs, variant, threads=threads), one)


def test_pool_persists_across_calls():
    # a two-party barrier makes the pool start both of its workers first
    barrier = threading.Barrier(2, timeout=30)
    kernels._split(2, 2, lambda lo, hi: barrier.wait())
    before = set(threading.enumerate())
    h, inputs = seeded(SMALL, 35)
    for _ in range(3):
        for kernel, variant in KERNEL_CASES:
            run_kernel(kernel, h, inputs, variant, threads=2)
    assert set(threading.enumerate()) == before
    assert threading.active_count() == len(before)
    assert kernels._pool(2) is kernels._pool(2)


def test_one_thread_makes_no_pool_call(monkeypatch):
    monkeypatch.setattr(kernels, "_pool", None)  # any call now raises TypeError
    h, inputs = seeded(SMALL, 36)
    for kernel, variant in KERNEL_CASES:
        run_kernel(kernel, h, inputs, variant, threads=1)


# ---------------------------------------------------------------------------
# recycled output buffers

#: Arrays derived from an output that keep its memory alive once the
#: output itself is dropped: strided, float view, one row, memoryview.
DERIVED = (lambda a: a.reshape(-1)[::3], lambda a: a.view(float), lambda a: a[0], memoryview)


def data_pointer(a):
    return a.__array_interface__["data"][0]


def buffer_count():
    return sum(map(len, kernels._buffers.values()))


@pytest.fixture
def no_buffers(monkeypatch):
    """An empty buffer set for one test, dropped with everything it made."""
    monkeypatch.setattr(kernels, "_buffers", {})


@pytest.mark.parametrize("kernel,variant", KERNEL_CASES)
def test_outputs_never_share_memory_with_live_arrays(kernel, variant, no_buffers):
    h, inputs = seeded(SMALL, 38)
    held = run_kernel(kernel, h, inputs, variant)
    assert not np.shares_memory(held, run_kernel(kernel, h, inputs, variant))
    for derive in DERIVED:
        kept = derive(run_kernel(kernel, h, inputs, variant))
        before = np.array(kept)
        assert not np.shares_memory(np.asarray(kept), run_kernel(kernel, h, inputs, variant))
        assert np.array_equal(np.asarray(kept), before)
    # fully dropped, an output's buffer serves the next call
    pointer = data_pointer(held)
    del held
    assert data_pointer(run_kernel(kernel, h, inputs, variant)) == pointer


def test_fresh_reuses_a_dropped_buffer(no_buffers):
    # fails if the interpreter's refcounts stop reading as the allocator
    # expects, so the reuse cannot stop without notice
    a = kernels._fresh((3, 4))
    pointer = data_pointer(a)
    b = kernels._fresh((3, 4))
    assert data_pointer(b) != pointer
    del a
    assert data_pointer(kernels._fresh((3, 4))) == pointer
    assert data_pointer(kernels._fresh((3, 4), float)) != pointer


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("shifts", [(2, -1, 0, 12), (-12, 3, -4, 0)], ids=["partial", "full"])
def test_shear_overwrites_recycled_memory(variant, shifts, no_buffers):
    h = random_state(SMALL, 39)
    rows = (-1, SMALL.n_toroidal, SMALL.n_radial)
    junk = [kernels._fresh(h.reshape(rows).shape) for _ in range(2)]  # scratch and output
    for a in junk:
        a[...] = np.nan
    del junk, a
    assert np.array_equal(shear_kernel(h, shifts, variant), shear_oracle(h, shifts))
    assert buffer_count() == 2


@pytest.mark.parametrize("variant", VARIANTS)
def test_shear_keeps_a_real_dtype(variant):
    h = random_state(SMALL, 40).real.copy()
    shifts = (2, -1, 0, 3)
    out = shear_kernel(h, shifts, variant)
    assert out.dtype == h.dtype
    assert np.array_equal(out, shear_oracle(h, shifts))


def test_concurrent_callers_never_share_memory(no_buffers):
    # more callers than cores, switching threads as often as the
    # interpreter allows, each holding every output it gets
    h, inputs = seeded(SMALL, 41)
    held = [[] for _ in range(4)]

    def call(outs):
        for i in range(50):
            kernel, variant = KERNEL_CASES[i % len(KERNEL_CASES)]
            outs.append(run_kernel(kernel, h, inputs, variant))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=call, args=(outs,)) for outs in held]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    outs = [out for outs in held for out in outs]
    assert len(outs) == 200
    assert len({data_pointer(out) for out in outs}) == 200


def test_fresh_waits_for_the_buffer_lock(no_buffers):
    # the stress test above cannot split _fresh's check-then-take under the
    # GIL, so this pins the lock itself: a caller blocks while it is held
    got = []
    with kernels._buffers_lock:
        caller = threading.Thread(target=lambda: got.append(kernels._fresh((3, 5))))
        caller.start()
        caller.join(0.2)
        assert caller.is_alive()
    caller.join(timeout=10)
    assert not caller.is_alive()
    assert len(got) == 1 and got[0].shape == (3, 5)
    assert buffer_count() == 1


@pytest.mark.parametrize("kernel,variant", KERNEL_CASES)
def test_buffer_set_grows_to_the_outputs_held(kernel, variant, no_buffers):
    # one more than the outputs held: shear's original gathers into scratch
    h, inputs = seeded(SMALL, 42)
    held = []
    for _ in range(8):
        held = held[-2:]
        held.append(run_kernel(kernel, h, inputs, variant))
        assert buffer_count() <= len(held) + 1


@pytest.mark.parametrize("kernel", ["stream", "shear", "collision"])
def test_timed_calls_reuse_their_output_memory(kernel):
    # each call drops its output before the next, which reuses it, so a
    # call faults in far fewer pages than its output covers
    shape = make_case("sh03b-desk")
    pages = np.prod(shape.dims) * 16 / 4096
    h, inputs = seeded(shape, 43)
    timed = time_calls({kernel: functools.partial(run_kernel, kernel, h, inputs)}, reps=3)
    assert timed[kernel].minflt_per_call < pages / 10


def test_run_kernel_rejects_unknown_names():
    h, inputs = seeded(SMALL, 23)
    with pytest.raises(ValueError):
        run_kernel("advect", h, inputs)
    with pytest.raises(ValueError):
        run_kernel("field", h, inputs, variant="fast")
    # only stream and shear have an original variant
    for kernel in ("field", "collision", "nonlinear"):
        with pytest.raises(ValueError):
            run_kernel(kernel, h, inputs, "original")


@pytest.mark.parametrize("threads", [0, -1])
def test_run_kernel_rejects_bad_thread_counts(threads):
    h, inputs = seeded(SMALL, 37)
    for kernel in KERNEL_NAMES:
        with pytest.raises(ValueError):
            run_kernel(kernel, h, inputs, threads=threads)


def test_make_kernel_inputs_shapes_and_determinism():
    a = make_kernel_inputs(SMALL, 31)
    b = make_kernel_inputs(SMALL, 31)
    assert a["weights"].shape == SMALL.dims[:3]
    assert a["shifts"].shape == (SMALL.n_toroidal,)
    assert np.all(np.abs(a["shifts"]) <= 3)
    assert a["matrices"].shape == (SMALL.n_theta, SMALL.velocity_size, SMALL.velocity_size)
    assert a["phi"].shape == SMALL.field_dims
    assert np.array_equal(a["weights"], b["weights"])
    assert np.array_equal(a["phi"], b["phi"])
    c = make_kernel_inputs(SMALL, 32)
    assert not np.array_equal(a["weights"], c["weights"])


def test_checksum_sensitivity():
    z23 = checksum(np.zeros((2, 3)))
    assert z23 == checksum(np.zeros((2, 3)))
    assert z23 != checksum(np.zeros((3, 2)))
    assert z23 != checksum(np.zeros((2, 3), dtype=complex))
    bumped = np.zeros((2, 3))
    bumped[1, 2] = 1e-300
    assert z23 != checksum(bumped)
    assert len(z23) == 16


def test_time_calls_contract():
    h, inputs = seeded(SMALL, 7)
    call = functools.partial(run_kernel, "shear", h, inputs, "optimized")
    t = time_calls({"shear": call}, reps=3)["shear"]
    assert isinstance(t, Timing)
    assert t.reps == 3
    assert t.median_s >= t.min_s > 0.0
    assert t.iqr_s >= 0.0
    assert t.minflt_per_call >= 0.0
    assert t.checksum == checksum(call())
    # checksum depends on the data, not on how often it was timed
    assert time_calls({"shear": call}, reps=4)["shear"].checksum == t.checksum


def test_time_calls_rejects_low_reps():
    with pytest.raises(ValueError):
        time_calls({"noop": lambda: None}, reps=2)


def test_time_calls_interleaves_and_releases_every_output():
    # each timed call follows an untimed one of the same callable, rep by
    # rep, and no output outlives the start of the next call
    order, outputs = [], []

    def recorder(label):
        def call():
            assert not any(f.alive for f in outputs), f"an output was still held when {label} started"
            order.append(label)
            out = np.full(4, float(len(order)))
            outputs.append(weakref.finalize(out, lambda: None))
            return out
        return call

    timed = time_calls({"a": recorder("a"), "b": recorder("b")}, reps=3)
    assert order == ["a", "a", "b", "b"] * 3
    assert not any(f.alive for f in outputs)
    assert list(timed) == ["a", "b"]
    # the checksum is the last rep's timed output: calls 10 (a) and 12 (b)
    assert timed["a"].checksum == checksum(np.full(4, 10.0))
    assert timed["b"].checksum == checksum(np.full(4, 12.0))


def test_kernel_names_cover_dispatch():
    h, inputs = seeded(SMALL, 34)
    for kernel in KERNEL_NAMES:
        out = run_kernel(kernel, h, inputs)
        expected = SMALL.dims[3:] if kernel == "field" else SMALL.dims
        assert out.shape == expected
