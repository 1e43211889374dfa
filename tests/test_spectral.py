import functools

import numpy as np
import pytest

from gyroproxy import oracles, spectral
from gyroproxy.checks import rel_err
from gyroproxy.grid import make_case, random_state, substream
from gyroproxy.kernels import alloc_peak, make_kernel_inputs, run_kernel
from gyroproxy.oracles import (
    dft_oracle_2d,
    hermitian_ky0,
    idft_oracle_2d,
    is_hermitian,
    random_spectrum,
)
from gyroproxy.padding import dealias_minimum
from gyroproxy.spectral import (
    bracket,
    bracket_plans,
    kx_derivative_values,
    to_real,
    to_spectrum,
)


def test_kx_values_wrap_order():
    kd = kx_derivative_values(8)
    assert list(kd[:4]) == [0, 1, 2, 3] and list(kd[5:]) == [-3, -2, -1]
    assert list(kx_derivative_values(7)) == [0, 1, 2, 3, -3, -2, -1]
    assert list(kx_derivative_values(1)) == [0]


def test_kx_derivative_zeroes_nyquist():
    assert kx_derivative_values(8)[4] == 0.0
    # odd sizes have no unpaired column
    assert np.all(kx_derivative_values(7)[1:] != 0.0)


# ---------------------------------------------------------------------------
# direct-summation oracle pair


def test_oracles_call_no_code_under_test():
    # agreement with an oracle is evidence only while the oracle does not reuse what it checks
    under_test = {"gyroproxy.spectral", "gyroproxy.kernels", "gyroproxy.commsim", "gyroproxy.checks"}
    shared = sorted(name for name, obj in vars(oracles).items()
                    if callable(obj) and getattr(obj, "__module__", None) in under_test)
    assert shared == []


def test_dft_oracle_constant_field():
    spec = dft_oracle_2d(np.full((6, 8), 2.5))
    assert spec[0, 0] == pytest.approx(2.5 * 48)
    spec[0, 0] = 0
    assert np.max(np.abs(spec)) < 1e-12


def test_dft_oracle_single_cosine():
    n_y, n_x = 6, 8
    y, x = np.meshgrid(np.arange(n_y), np.arange(n_x), indexing="ij")
    field = np.cos(2 * np.pi * (2 * x / n_x + y / n_y))
    spec = dft_oracle_2d(field)
    # unscaled forward: the (ky=1, kx=2) bin collects (n_x*n_y)/2
    assert spec[1, 2] == pytest.approx(24.0, abs=1e-10)
    spec[1, 2] = 0
    assert np.max(np.abs(spec)) < 1e-10


def test_oracle_pair_roundtrip():
    gen = substream(11, 0)
    field = gen.uniform(-1, 1, (6, 9))
    back = idft_oracle_2d(dft_oracle_2d(field), 6)
    assert rel_err(back, field) < 1e-13


def test_idft_oracle_rejects_excess_rows():
    with pytest.raises(ValueError):
        idft_oracle_2d(np.zeros((5, 8), dtype=complex), 6)


# ---------------------------------------------------------------------------
# production transforms


def test_to_real_zero_spectrum():
    assert np.all(to_real(np.zeros((3, 8), dtype=complex), 12, 12) == 0.0)


@pytest.mark.parametrize("n_x, n_y", [(8, 6), (12, 9), (16, 12)])
def test_to_real_single_mode_amplitude(n_x, n_y):
    """A unit coefficient synthesizes a unit cosine pair on any padded grid."""
    spec = np.zeros((3, 8), dtype=complex)
    spec[1, 2] = 1.0
    field = to_real(spec, n_x, n_y)
    y, x = np.meshgrid(np.arange(n_y), np.arange(n_x), indexing="ij")
    want = 2 * np.cos(2 * np.pi * (2 * x / n_x + y / n_y))
    assert rel_err(field, want) < 1e-13


def test_to_real_matches_oracle_scaled():
    # same-size synthesis equals the inverse-DFT oracle times n_x * n_y
    n_x, n_y = 7, 6
    spec = random_spectrum(n_x, n_y // 2 + 1, substream(3, 0))
    got = to_real(spec, n_x, n_y)
    want = idft_oracle_2d(spec, n_y) * (n_x * n_y)
    assert rel_err(got, want) < 1e-13


def test_to_spectrum_constant_field():
    spec = to_spectrum(np.full((9, 12), 1.5), 8, 4)
    assert spec[0, 0] == pytest.approx(1.5)
    spec[0, 0] = 0
    assert np.max(np.abs(spec)) < 1e-14


def test_to_spectrum_matches_oracle_scaled():
    n_y, n_x = 10, 9
    field = substream(4, 0).uniform(-1, 1, (n_y, n_x))
    got = to_spectrum(field, n_x, n_y // 2 + 1)
    want = dft_oracle_2d(field) / (n_x * n_y)
    assert rel_err(got, want) < 1e-13


@pytest.mark.parametrize("n_kx, n_ky", [(8, 3), (7, 4), (16, 8), (1, 1)])
def test_transform_roundtrip_padded(n_kx, n_ky):
    spec = random_spectrum(n_kx, n_ky, substream(n_kx * 31 + n_ky, 0))
    plan_x, plan_y = bracket_plans(n_kx, n_ky)
    field = to_real(spec, plan_x.n_padded, plan_y.n_padded)
    back = to_spectrum(field, n_kx, n_ky)
    assert rel_err(back, spec) < 1e-13


def test_transforms_accept_batch_axes():
    spec = np.stack([random_spectrum(8, 3, substream(s, 0)) for s in range(4)]).reshape(2, 2, 3, 8)
    field = to_real(spec, 12, 9)
    assert field.shape == (2, 2, 9, 12)
    back = to_spectrum(field, 8, 3)
    assert rel_err(back, spec) < 1e-13


def test_size_checks_raise():
    spec = np.zeros((3, 8), dtype=complex)
    with pytest.raises(ValueError):
        to_real(spec, 7, 12)  # grid narrower than the spectrum
    with pytest.raises(ValueError):
        to_real(spec, 12, 3)  # 3 toroidal rows need n_y//2 + 1 >= 3
    with pytest.raises(ValueError):
        to_spectrum(np.zeros((6, 8)), 9, 3)
    with pytest.raises(ValueError):
        to_spectrum(np.zeros((6, 8)), 8, 5)


def test_nyquist_column_dropped_on_size_change():
    spec = np.zeros((3, 8), dtype=complex)
    spec[1, 4] = 1 + 2j  # unpaired kx = -4 column
    # embedding into a wider grid zeroes it on the way in
    assert np.max(np.abs(to_real(spec, 12, 9))) == 0.0
    # a same-size transform keeps it
    assert np.max(np.abs(to_real(spec, 8, 9))) > 0.1
    # truncation out of a wider grid zeroes it on the way out
    field = substream(6, 0).uniform(-1, 1, (9, 12))
    out = to_spectrum(field, 8, 3)
    assert np.all(out[:, 4] == 0.0)


@pytest.mark.parametrize("n_kx, n_x", [(8, 8), (8, 12), (7, 7), (7, 12)])
def test_roundtrip_keeps_nyquist_only_at_same_size(n_kx, n_x):
    # nonzero Nyquist column for even n_kx; the ky = 0 row made representable
    gen = substream(n_kx * 13 + n_x, 0)
    spec = hermitian_ky0(gen.uniform(-1, 1, (3, n_kx)) + 1j * gen.uniform(-1, 1, (3, n_kx)))
    back = to_spectrum(to_real(spec, n_x, 9), n_kx, 3)
    if n_kx % 2 == 0 and n_x > n_kx:
        assert np.array_equal(back[:, n_kx // 2], np.zeros(3))
        spec[:, n_kx // 2] = 0.0
    assert rel_err(back, spec) < 1e-13


def test_hermitian_projection():
    gen = substream(12, 0)
    spec = gen.uniform(-1, 1, (3, 8)) + 1j * gen.uniform(-1, 1, (3, 8))
    assert not is_hermitian(spec)
    fixed = hermitian_ky0(spec)
    assert is_hermitian(fixed)
    # projection touches only the ky = 0 row
    assert np.array_equal(fixed[1:], spec[1:])
    # and is idempotent
    assert np.array_equal(hermitian_ky0(fixed), fixed)


def test_random_spectrum_is_representable():
    for n_kx in (7, 8):
        spec = random_spectrum(n_kx, 4, substream(2, 0))
        assert is_hermitian(spec)
        if n_kx % 2 == 0:
            assert np.all(spec[:, n_kx // 2] == 0.0)
        # such a spectrum survives the synthesis round trip exactly
        back = to_spectrum(to_real(spec, n_kx, 8), n_kx, 4)
        assert rel_err(back, spec) < 1e-13


# ---------------------------------------------------------------------------
# DFT-matrix y-stage against the irfft/rfft pipeline it replaced


def _kx_runs(n_kx, n_x):
    return (n_kx + 1) // 2, n_kx // 2 - (n_kx % 2 == 0 and n_x > n_kx)


def fft_to_real(spec, n_x, n_y):
    """to_real with its y-stage as irfft over a zeroed n_y//2 + 1 row half grid."""
    n_ky, n_kx = spec.shape[-2:]
    pos, neg = _kx_runs(n_kx, n_x)
    rows = np.zeros(spec.shape[:-2] + (n_ky, n_x), dtype=complex)
    rows[..., :pos] = spec[..., :pos]
    rows[..., n_x - neg:] = spec[..., n_kx - neg:]
    half = np.zeros(spec.shape[:-2] + (n_y // 2 + 1, n_x), dtype=complex)
    half[..., :n_ky, :] = np.fft.ifft(rows, axis=-1, norm="forward")
    return np.fft.irfft(half, n=n_y, axis=-2, norm="forward")


def fft_to_spectrum(field, n_kx, n_ky):
    """to_spectrum with its y-stage as rfft along the strided axis."""
    n_x = field.shape[-1]
    pos, neg = _kx_runs(n_kx, n_x)
    half = np.fft.rfft(field, axis=-2, norm="forward")
    rows = np.fft.fft(half[..., :n_ky, :], axis=-1, norm="forward")
    out = np.zeros(field.shape[:-2] + (n_ky, n_kx), dtype=complex)
    out[..., :pos] = rows[..., :pos]
    out[..., n_kx - neg:] = rows[..., n_x - neg:]
    return out


@pytest.mark.parametrize("n_y", [12, 13])
@pytest.mark.parametrize("n_ky", [1, 2, "n_y//2+1"])
def test_matrix_y_stage_matches_fft(n_y, n_ky):
    # n_ky = n_y//2 + 1 holds the self-paired Nyquist row when n_y is even
    n_ky = n_y // 2 + 1 if n_ky == "n_y//2+1" else n_ky
    n_kx, n_x = 8, 12
    gen = substream(30 + n_y, n_ky)
    # no Hermitian projection: the ky = 0 row carries anti-Hermitian content
    spec = gen.uniform(-1, 1, (2, n_ky, n_kx)) + 1j * gen.uniform(-1, 1, (2, n_ky, n_kx))
    assert not is_hermitian(spec)
    want = fft_to_real(spec, n_x, n_y)
    assert rel_err(to_real(spec, n_x, n_y), want) < 1e-13
    assert rel_err(to_real(hermitian_ky0(spec), n_x, n_y), want) < 1e-13
    field = gen.uniform(-1, 1, (2, n_y, n_x))
    assert rel_err(to_spectrum(field, n_kx, n_ky), fft_to_spectrum(field, n_kx, n_ky)) < 1e-13


def test_batched_transforms_equal_per_slice():
    gen = substream(31, 0)
    spec = gen.uniform(-1, 1, (5, 3, 4, 8)) + 1j * gen.uniform(-1, 1, (5, 3, 4, 8))
    field = to_real(spec, 12, 10)
    assert np.array_equal(field, np.stack([[to_real(s, 12, 10) for s in row] for row in spec]))
    back = to_spectrum(field, 8, 4)
    assert np.array_equal(back, np.stack([[to_spectrum(f, 8, 4) for f in row] for row in field]))


def test_y_matrices_are_cached_and_read_only():
    synthesis, analysis = spectral._y_matrices(4, 10)
    assert spectral._y_matrices(4, 10)[0] is synthesis
    assert synthesis.shape == (10, 8) and analysis.shape == (8, 10)
    for matrix in (synthesis, analysis):
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0


# ---------------------------------------------------------------------------
# dealiased bracket


def test_min_padded_sizes():
    plan_x, plan_y = bracket_plans(48, 8)
    assert (plan_x.n_min, plan_y.n_logical, plan_y.n_min) == (72, 15, 23)
    assert plan_y.n_padded >= 3 * 8 - 2


def test_bracket_plans_clear_dealias_bounds():
    # bracket takes its grid from bracket_plans and checks no bound itself
    for n_kx in range(1, 513):
        assert bracket_plans(n_kx, 1)[0].n_padded >= dealias_minimum(n_kx)
    for n_ky in range(1, 257):
        n_y = bracket_plans(1, n_ky)[1].n_padded
        assert n_y >= 3 * n_ky - 2 and n_y // 2 + 1 >= n_ky, n_ky


def test_bracket_of_unit_cosines():
    # f = cos x, g = cos y: {f, g} = sin x sin y = (cos(x-y) - cos(x+y)) / 2
    n_kx, n_ky = 8, 3
    f = np.zeros((n_ky, n_kx), dtype=complex)
    f[0, 1] = 0.5
    f[0, -1] = 0.5
    g = np.zeros((n_ky, n_kx), dtype=complex)
    g[1, 0] = 0.5
    out = bracket(f, g)
    want = np.zeros((n_ky, n_kx), dtype=complex)
    want[1, 1] = -0.25
    want[1, -1] = 0.25
    assert rel_err(out, want) < 1e-13


def test_bracket_antisymmetric():
    gen = substream(22, 0)
    f = random_spectrum(8, 4, gen)
    g = random_spectrum(8, 4, gen)
    assert np.array_equal(bracket(f, g), -bracket(g, f))


def test_bracket_bilinear():
    gen = substream(23, 0)
    f1 = random_spectrum(7, 3, gen)
    f2 = random_spectrum(7, 3, gen)
    g = random_spectrum(7, 3, gen)
    lhs = bracket(2.0 * f1 - 0.5 * f2, g)
    rhs = 2.0 * bracket(f1, g) - 0.5 * bracket(f2, g)
    assert rel_err(lhs, rhs) < 1e-12


def test_bracket_output_stays_representable():
    gen = substream(25, 0)
    f = random_spectrum(8, 4, gen)
    g = random_spectrum(8, 4, gen)
    out = bracket(f, g)
    assert is_hermitian(out)
    assert np.all(out[:, 4] == 0.0)


def test_bracket_rejects_shape_mismatch():
    f = random_spectrum(8, 4, substream(27, 0))
    g = random_spectrum(8, 3, substream(27, 0))
    with pytest.raises(ValueError):
        bracket(f, g)


def test_bracket_writes_into_out():
    gen = substream(30, 0)
    f = np.stack([random_spectrum(8, 4, gen) for _ in range(3)])
    g = random_spectrum(8, 4, gen)
    out = np.full(f.shape, np.nan, dtype=complex)
    assert bracket(f, g, out=out) is out
    assert np.array_equal(out, bracket(f, g))
    # a wrong shape or dtype, or a strided view whose reshape would be a copy
    for bad in (out[:2], out.real.copy(), np.empty((3, 4, 16), dtype=complex)[..., ::2]):
        with pytest.raises(ValueError):
            bracket(f, g, out=bad)


def _to_real_batches(monkeypatch, f, g):
    """bracket(f, g) and the batch shape of each spectrum stack it synthesized."""
    batches = []
    to_real = spectral.to_real

    def spy(spec, n_x, n_y):
        batches.append(spec.shape[1:-2])  # less the leading pair of derivatives
        return to_real(spec, n_x, n_y)

    monkeypatch.setattr(spectral, "to_real", spy)
    out = bracket(f, g)
    monkeypatch.setattr(spectral, "to_real", to_real)
    return out, batches


# the ids name the batch sizes of the old block rule; f now runs one row per pass
@pytest.mark.parametrize("n", [5, 1], ids=["two blocks and a part", "under one block"])
def test_batched_bracket_equals_per_slice(n, monkeypatch):
    n_kx, n_ky = 48, 8
    gen = substream(28, 0)
    batch = lambda: np.stack([random_spectrum(n_kx, n_ky, gen) for _ in range(n)])
    f, g = batch(), batch()
    got, batches = _to_real_batches(monkeypatch, f, g)
    assert batches == [(n,)] + [()] * n  # g's once, then f's one leading-axis row at a time
    assert np.array_equal(got, np.stack([bracket(f[i], g[i]) for i in range(n)]))


def test_bracket_broadcast_equals_explicit_batch(monkeypatch):
    # g varies along the trailing batch axis only, as phi does in the nonlinear kernel
    n_kx, n_ky, n, n_t = 48, 8, 5, 3
    gen = substream(29, 0)
    g = np.stack([random_spectrum(n_kx, n_ky, gen) for _ in range(n_t)])
    f = np.stack([random_spectrum(n_kx, n_ky, gen) for _ in range(n * n_t)]).reshape(n, n_t, n_ky, n_kx)
    got, batches = _to_real_batches(monkeypatch, f, g)
    assert batches == [(n_t,)] * (1 + n)  # g's once, then f's one leading-axis row at a time
    assert np.array_equal(got, bracket(f, np.broadcast_to(g, f.shape).copy()))
    assert np.array_equal(got[-1, 2], bracket(f[-1, 2], g[2]))
    # a single f against a batch of g broadcasts the other way
    assert np.array_equal(bracket(f[0, 0], g)[1], bracket(f[0, 0], g[1]))


@pytest.mark.parametrize("case", ["sh03b-desk", "em04b-desk"], ids=["sh03b-desk-None", "em04b-desk-None"])
def test_bracket_block_memory_budget(case):
    # a pass holds one leading-axis row of temporaries, counted here to within
    # array headers; its peak is in to_real's y-GEMM (f's two derivative
    # spectra, their x-transformed rows split into real and imaginary parts,
    # the two fields being formed) or in to_spectrum (the two fields, the
    # product formed in place in them, its analysed rows split and joined,
    # their x-transform and the truncated spectrum), whichever is larger
    shape = make_case(case)
    inputs = make_kernel_inputs(shape, 1)
    call = functools.partial(run_kernel, "nonlinear", random_state(shape, 1), inputs)
    call()  # fills the cached y-DFT matrices, which the traced call only reads
    n_kx, n_ky = shape.n_radial, shape.n_toroidal
    n_x, n_y = (plan.n_padded for plan in bracket_plans(n_kx, n_ky))
    row = shape.n_theta * 8 * max(4 * n_ky * (n_kx + n_x) + 2 * n_x * n_y,
                                  2 * n_x * n_y + 6 * n_ky * n_x + 2 * n_ky * n_kx)
    # held for the whole call: g's two derivative fields and the factors i*k
    fixed = 8 * shape.n_theta * 2 * n_x * n_y + 16 * 2 * n_ky * n_kx
    assert row <= alloc_peak(call) - fixed <= row + 2**14
