"""Per-layer metrics from the traced pass, plus computed work counts.

Layers are the package's modules.  Times are per op (total over the
traced ops divided by their number) unless the name says otherwise;
set-up layers (grid, padding) come from the one traced set-up.  Self
time is a span's duration minus the part its child spans cover.

Work counts are computed from array shapes, never measured:

* bytes are compulsory traffic: every input array read once and the
  output written once (16 bytes per complex, 8 per real element);
* flops count 8 per complex multiply-add (numpy promotes the real
  weights, stencil and collision matrices to complex), 5 N log2 N per
  complex FFT of length N and half that per real FFT, and 3 per padded
  grid point for the bracket's pointwise products.

Both desk states fit in the last-level cache and no bandwidth or peak
rate is measured in the run, so flop/byte and achieved rates are
reported without a roofline ratio.
"""

from __future__ import annotations

import math
import statistics

from gyroproxy.grid import BYTES_PER_ELEMENT
from gyroproxy.kernels import KERNEL_NAMES

from tracing import SpanIndex, covered


def _fft_flops(n: int, complex_input: bool) -> float:
    return (5.0 if complex_input else 2.5) * n * math.log2(n)


def bracket_work(shape, plans, threads: int):
    """(fft_flops, pointwise_flops) of one nonlinear_kernel call.

    Mirrors nonlinear_kernel/bracket: each pool chunk synthesizes two
    derivatives of its state slices and two of phi, then analyses one
    product per state slice.
    """
    n_x, n_y = plans[0].n_padded, plans[1].n_padded
    batch = shape.velocity_size
    chunks = threads if threads > 1 and batch >= 2 * threads else 1
    slices = batch * shape.n_theta
    transforms = 2 * slices + 2 * chunks * shape.n_theta + slices
    rows = n_y // 2 + 1
    per_transform = rows * _fft_flops(n_x, True) + n_x * _fft_flops(n_y, False)
    return transforms * per_transform, 3.0 * n_x * n_y * slices


def kernel_work(kernel: str, shape, inputs, threads: int):
    """(bytes, flops) of one call of a kernel, computed from shapes."""
    n = shape.cell_count
    m = shape.velocity_size
    state = shape.state_bytes
    if kernel == "field":
        return state + 8 * m + BYTES_PER_ELEMENT * n // m, 8.0 * n
    if kernel == "stream":
        return 2 * state, 8.0 * len(inputs["stencil"]) * n
    if kernel == "shear":
        return 2 * state, 0.0
    if kernel == "collision":
        return 2 * state + 8 * shape.n_theta * m * m, 8.0 * m * n
    if kernel == "nonlinear":
        fft, pointwise = bracket_work(shape, inputs["plans"], threads)
        return 2 * state + shape.field_bytes, fft + pointwise
    raise ValueError(kernel)


def per_layer(spans, workload, extra) -> dict:
    """Every per-layer metric as name -> (value, unit).

    ``extra`` carries what the spans cannot: ``overhead_frac``,
    ``nonlinear_t1_s`` (threads=1 nonlinear call seconds, or None) and
    ``cycles`` (whole op cycles run in the traced and untraced passes).
    """
    index = SpanIndex(spans)
    ops = index.under("op")
    n_ops = max(len(ops), 1)
    op_time = sum(index.by_id[i].duration for i in ops) or 1.0
    op_spans = [s for group in ops.values() for s in group]
    setup_spans = [s for group in index.under("setup").values() for s in group]
    ran = workload.kernel_names
    plans = workload.inputs["plans"] if workload.inputs else (None, None)

    def named(name, pool=op_spans):
        return [s for s in pool if s.name == name]

    def self_s(name, pool=op_spans):
        return sum(index.self_time(s) for s in named(name, pool))

    def incl_s(name):
        return sum(s.duration for s in named(name))

    def share(names):
        return sum(
            covered(((s.start, s.end) for s in group if s.name in names),
                    index.by_id[i].start, index.by_id[i].end)
            for i, group in ops.items()
        ) / op_time

    out = {
        "grid.random_state_s": (self_s("grid.random_state", setup_spans), "s"),
        "grid.state_mb": (workload.h.nbytes / 1e6 if workload.h is not None else 0.0, "MB"),
        "padding.plan_s": (self_s("padding.plan_padded_size", setup_spans), "s"),
    }
    for axis, plan in zip("xy", plans):
        out[f"padding.n_{axis}"] = (plan.n_padded if plan else 0, "count")
        out[f"padding.overhead_{axis}"] = (plan.n_padded / plan.n_min if plan else 0.0, "ratio")

    fft_s = incl_s("spectral.to_real") + incl_s("spectral.to_spectrum")
    fft_flops = bracket_work(workload.shape, plans, workload.threads)[0] if "nonlinear" in ran else 0.0
    out.update({
        "spectral.bracket_calls": (len(named("spectral.bracket")) / n_ops, "count"),
        "spectral.bracket_s": (self_s("spectral.bracket") / n_ops, "s"),
        "spectral.to_real_calls": (len(named("spectral.to_real")) / n_ops, "count"),
        "spectral.to_real_s": (incl_s("spectral.to_real") / n_ops, "s"),
        "spectral.to_spectrum_s": (incl_s("spectral.to_spectrum") / n_ops, "s"),
        "spectral.fft_gflops": (fft_flops * n_ops / fft_s / 1e9 if fft_s else 0.0, "GFLOP/s"),
        "spectral.share": (share({"spectral.bracket"}), "frac"),
    })

    for k in KERNEL_NAMES:
        name = f"kernels.{k}"
        incl = incl_s(name)
        nbytes, flops = kernel_work(k, workload.shape, workload.inputs, workload.threads) if k in ran else (0, 0.0)
        out[f"{name}_s"] = (self_s(name) / n_ops, "s")
        out[f"{name}_gbps"] = (nbytes * len(named(name)) / incl / 1e9 if incl else 0.0, "GB/s")
        out[f"{name}_flop_per_byte"] = (flops / nbytes if nbytes else 0.0, "flop/B")

    nonlinear = named("kernels.nonlinear")
    imbalance = []
    for s in nonlinear:
        chunks = [c.duration for c in index.children.get(s.id, ()) if c.name == "spectral.bracket"]
        if chunks:
            imbalance.append(max(chunks) / statistics.fmean(chunks))
    t1 = extra["nonlinear_t1_s"]
    tn = statistics.median(s.duration for s in nonlinear) if nonlinear else 0.0
    out.update({
        "kernels.nonlinear.chunk_imbalance": (statistics.median(imbalance) if imbalance else 0.0, "ratio"),
        "kernels.nonlinear.scaling_eff": (t1 / (workload.threads * tn) if t1 and tn else 0.0, "ratio"),
        "kernels.share": (sum(self_s(f"kernels.{k}") for k in KERNEL_NAMES) / op_time, "frac"),
    })

    out.update({
        "commsim.plan_s": (self_s("commsim.plan_decomposition") / n_ops, "s"),
        "commsim.collective_calls": (len(named("commsim.collective_time")) / n_ops, "count"),
        "commsim.collective_s": (incl_s("commsim.collective_time") / n_ops, "s"),
        "commsim.predict_s": (incl_s("commsim.predict_report") / n_ops, "s"),
        "commsim.infeasible_plans": (workload.infeasible / extra["cycles"], "count"),
        "commsim.share": (share({"commsim.plan_decomposition", "commsim.predict_report"}), "frac"),
        "trace.overhead_frac": (extra["overhead_frac"], "frac"),
    })
    return out
