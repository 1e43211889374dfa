"""Command-line entry point.

Subcommands:

* ``plan-padding``   transform-size planning for one or more logical sizes
* ``fft-bench``      wallclock comparison of batched transforms by size
* ``bench``          kernel timing report (median/min + output checksums)
* ``verify``         deterministic correctness battery, nonzero exit on failure
* ``comm-estimate``  communication plan search and per-dimension predictions
* ``compare``        before/after speedup table from two bench reports

Each subparser validates its own arguments and names its handler, a
``_run_*`` function that takes the parsed Namespace and returns a
``Report``.  All file output is UTF-8 CSV with a single ``#`` metadata
header line, written via a temp file and atomic rename so a failed run
leaves nothing behind.  ``_EPILOG`` states the exit codes; ``--help``
prints it.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import io
import math
import os
import platform
import sys
import tempfile
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import __version__, checks
from .commsim import (VolumeModel, builtin_topology, load_topology, plan_decomposition,
                      predict_report, topology_names)
from .grid import make_case, case_names, random_state, substream
from .kernels import KERNEL_NAMES, KERNEL_VARIANTS, VARIANTS, make_kernel_inputs, run_kernel, time_calls
from .padding import DEFAULT_PRIMES, factorize, plan_padded_size

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_IO = 4

_EPILOG = """\
exit codes:
  0  success
  2  invalid configuration or arguments
  3  verification failure
  4  I/O failure
"""


class ConfigError(ValueError):
    """A request rejected while running, after the arguments parsed; exit 2."""


@dataclass
class Report:
    """A table plus the metadata that identifies the run that made it."""

    columns: tuple
    rows: list
    meta: dict

    def _cells(self) -> list:
        return [[_fmt(v) for v in row] for row in self.rows]

    def csv_text(self) -> str:
        buf = io.StringIO()
        pairs = " ".join(f"{k}={v}" for k, v in self.meta.items())
        buf.write(f"# {pairs}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows(self._cells())
        return buf.getvalue()

    def write(self, path: str):
        text = self.csv_text()
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gyroproxy-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def markdown(self) -> str:
        head = "| " + " | ".join(self.columns) + " |"
        sep = "|" + "|".join(" --- " for _ in self.columns) + "|"
        body = ["| " + " | ".join(row) + " |" for row in self._cells()]
        return "\n".join([head, sep] + body)

    def plain(self) -> str:
        table = self._cells()
        widths = [len(c) for c in self.columns]
        for row in table:
            widths = [max(w, len(v)) for w, v in zip(widths, row)]
        lines = ["  ".join(c.ljust(w) for c, w in zip(self.columns, widths)).rstrip()]
        for row in table:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
        return "\n".join(lines)


def _blas_core() -> str:
    """Core type of the OpenBLAS numpy links, found through numpy's core extension, else ``unknown``."""
    symbols = ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename")
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        corename = next(getattr(lib, name) for name in symbols if hasattr(lib, name))
    except (AttributeError, OSError, StopIteration):
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def _meta(args: argparse.Namespace, **extra) -> dict:
    meta = {
        "tool": "gyroproxy",
        "version": __version__,
        "command": args.command,
        "seed": getattr(args, "seed", None),
        "timestamp": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    }
    if meta["seed"] is None:
        del meta["seed"]
    meta.update(extra)
    meta["host"] = f"{platform.node()} {platform.system()} {platform.machine()} numpy-{np.__version__}"
    meta["blas_core"] = _blas_core()
    meta["cores"] = os.cpu_count()
    return meta


def _fmt(x) -> str:
    """Text of one report cell; every printed or written cell passes here.

    Real floats, numpy scalars included, become the shortest decimal that
    round-trips.  Since numpy 2.0 the repr of a numpy scalar reads
    ``np.float64(...)``, which float() and CSV readers cannot parse.
    """
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


# ---------------------------------------------------------------------------
# argument parsing and validation
#
# Each type= callable rejects a bad value with argparse.ArgumentTypeError,
# so every argument error prints the subcommand's usage and exits 2.


def _int_in(low: int, high: int | None = None):
    """argparse type: an integer in [low, high), or >= low without high."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low or (high is not None and value >= high):
            bound = f">= {low}" if high is None else f"in [{low}, {high})"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value
    return parse


def _int_list(low: int):
    """argparse type: a non-empty comma-separated list of integers >= low."""
    parse_one = _int_in(low)

    def parse(text: str) -> tuple:
        values = tuple(parse_one(part) for part in text.split(",") if part.strip())
        if not values:
            raise argparse.ArgumentTypeError("must not be empty")
        return values
    return parse


def _name_list(allowed: tuple):
    """argparse type: a non-empty comma-separated list of distinct names from allowed."""
    def parse(text: str) -> tuple:
        names = tuple(part.strip() for part in text.split(",") if part.strip())
        if not names:
            raise argparse.ArgumentTypeError("must not be empty")
        unknown = [name for name in names if name not in allowed]
        if unknown:
            raise argparse.ArgumentTypeError(f"unknown {unknown}; expected from {allowed}")
        if len(set(names)) != len(names):
            raise argparse.ArgumentTypeError(f"duplicate entries: {text!r}")
        return names
    return parse


def _rule(text: str) -> Fraction:
    """argparse type: a padding rule, a fraction >= 1."""
    try:
        rule = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from None
    if rule < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {rule}")
    return rule


_SEED = _int_in(0, 2**64)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gyroproxy",
        description=__doc__.split("\n\n")[0],
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"gyroproxy {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan-padding", help="plan padded transform sizes")
    p.set_defaults(run=_run_plan_padding)
    p.add_argument("--n", type=_int_list(1), required=True, help="logical size(s), comma separated")
    p.add_argument("--rule", type=_rule, default="3/2", help="padding rule as a fraction (default 3/2)")
    p.add_argument("--primes", type=_int_list(2), default=DEFAULT_PRIMES, help="allowed prime factors")

    p = sub.add_parser("fft-bench", help="time batched transforms by size")
    p.set_defaults(run=_run_fft_bench)
    p.add_argument("--sizes", type=_int_list(2), default="719,720", help="transform lengths, comma separated")
    p.add_argument("--batch", type=_int_in(1), default=256, help="transforms per call (default 256)")
    p.add_argument("--reps", type=_int_in(3), default=9, help="timed repetitions (default 9, min 3)")
    p.add_argument("--seed", type=_SEED, default=1234)

    p = sub.add_parser("bench", help="time the proxy kernels")
    p.set_defaults(run=_run_bench)
    p.add_argument("--case", required=True, choices=case_names())
    p.add_argument("--kernels", type=_name_list(KERNEL_NAMES), default=KERNEL_NAMES)
    p.add_argument("--variants", type=_name_list(VARIANTS), default=VARIANTS)
    p.add_argument("--reps", type=_int_in(3), default=5, help="timed repetitions (default 5, min 3)")
    p.add_argument("--seed", type=_SEED, default=1234)
    p.add_argument("--threads", type=_int_in(1), default=1, help="worker threads (default 1)")

    p = sub.add_parser("verify", help="run the deterministic correctness battery")
    p.set_defaults(run=_run_verify)
    p.add_argument("--case", default="sh03b-desk", choices=case_names(), help="grid case for sized checks")
    p.add_argument("--seed", type=_SEED, default=1234)

    p = sub.add_parser("comm-estimate", help="plan and price the communication split")
    p.set_defaults(run=_run_comm_estimate)
    p.add_argument("--case", required=True, choices=case_names())
    topo = p.add_mutually_exclusive_group(required=True)
    topo.add_argument("--topo", choices=topology_names(), help="builtin topology name")
    topo.add_argument("--topo-file", help="topology key=value file")
    p.add_argument("--ranks", type=_int_in(1), required=True)
    p.add_argument("--nodes", type=_int_in(1), required=True)

    p = sub.add_parser("compare", help="speedups between two bench reports")
    p.set_defaults(run=_run_compare)
    p.add_argument("--before", required=True, help="bench CSV taken first")
    p.add_argument("--after", required=True, help="bench CSV taken second")

    for p in sub.choices.values():
        p.add_argument("--out", help="CSV output path")
        p.add_argument("--markdown", action="store_true", help="print the table as markdown")
    return parser


# ---------------------------------------------------------------------------
# subcommand implementations


def _run_plan_padding(args: argparse.Namespace) -> Report:
    rows = []
    for n in args.n:
        plan = plan_padded_size(n, rule=args.rule, allowed_primes=args.primes)
        rows.append((
            n,
            plan.n_min,
            plan.n_padded,
            "*".join(str(f) for f in plan.factors),
            plan.cost_score,
        ))
    columns = ("n_logical", "n_min", "n_padded", "factors", "score")
    meta = _meta(args, rule=args.rule, primes="*".join(map(str, args.primes)))
    return Report(columns, rows, meta)


def _run_fft_bench(args: argparse.Namespace) -> Report:
    calls = []
    for size in args.sizes:
        gen = substream(args.seed, 5)
        bins = (args.batch, size // 2 + 1)
        spec = gen.standard_normal(bins) + 1j * gen.standard_normal(bins)
        calls.append(functools.partial(np.fft.irfft, spec, n=size, axis=-1))
    timings = time_calls(dict(enumerate(calls)), args.reps)
    rows = [(size, "*".join(str(f) for f in factorize(size)), t.median_s, t.min_s, t.iqr_s)
            for size, t in zip(args.sizes, timings.values())]
    columns = ("size", "factors", "median_seconds", "min_seconds", "iqr_seconds")
    return Report(columns, rows, _meta(args, batch=args.batch, reps=args.reps))


def _run_bench(args: argparse.Namespace) -> Report:
    pairs = [(kernel, variant) for kernel in args.kernels for variant in args.variants
             if variant in KERNEL_VARIANTS[kernel]]
    if not pairs:
        raise ConfigError(f"no kernel in {args.kernels} has a variant in {args.variants}; " + "; ".join(
            f"only {' and '.join(k for k in KERNEL_NAMES if v in KERNEL_VARIANTS[k])} have {v!r}"
            for v in args.variants))
    shape = make_case(args.case)
    h = random_state(shape, args.seed)
    inputs = make_kernel_inputs(shape, args.seed)
    calls = {(k, v): functools.partial(run_kernel, k, h, inputs, v, args.threads) for k, v in pairs}
    rows = [(args.case, kernel, variant, args.reps, t.median_s, t.min_s, t.iqr_s, t.minflt_per_call, t.checksum)
            for (kernel, variant), t in time_calls(calls, args.reps).items()]
    columns = ("case", "kernel", "variant", "reps", "median_s", "min_s", "iqr_s", "minflt_per_call", "checksum")
    meta = _meta(args, case=args.case, reps=args.reps, threads=args.threads)
    return Report(columns, rows, meta)


def _run_comm_estimate(args: argparse.Namespace) -> Report:
    shape = make_case(args.case)
    try:
        topo = load_topology(args.topo_file) if args.topo_file else builtin_topology(args.topo)
        plan = plan_decomposition(VolumeModel.from_shape(shape), args.ranks, args.nodes, topo)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    rows = [
        (p.dimension, p.kind, p.bytes_per_rank, p.seconds)
        for p in predict_report(shape, topo, plan)
    ]
    meta = _meta(
        args,
        case=args.case,
        topology=topo.name,
        ranks=args.ranks,
        nodes=args.nodes,
        n1=plan.n1,
        n2=plan.n2,
        placement=plan.placement,
        spread_nodes=plan.spread_nodes,
        ranks_per_node=plan.ranks_per_node,
    )
    return Report(("dimension", "kind", "bytes", "seconds"), rows, meta)


def _read_bench_medians(path: str) -> dict:
    """(case, kernel, variant) -> median seconds from a bench report CSV; a bad row names its line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        numbered = [(n, line) for n, line in enumerate(fh, 1) if not line.startswith("#")]
    reader = csv.DictReader(line for _, line in numbered)
    need = ("case", "kernel", "variant", "median_s")
    if reader.fieldnames is None or not set(need).issubset(reader.fieldnames):
        raise ConfigError(f"{path}: not a bench report (missing columns {sorted(need)})")
    medians: dict = {}
    for row in reader:
        where = f"{path}:{numbered[reader.line_num - 1][0]}"
        if missing := [col for col in need if not row[col]]:
            raise ConfigError(f"{where}: missing {', '.join(missing)}")
        try:
            median = float(row["median_s"])
        except ValueError:
            median = math.nan
        if not 0 < median < math.inf:
            raise ConfigError(f"{where}: median_s {row['median_s']!r} is not a finite positive number")
        key = (row["case"], row["kernel"], row["variant"])
        if key in medians:
            raise ConfigError(f"{where}: duplicate rows for {key}")
        medians[key] = median
    if not medians:
        raise ConfigError(f"{path}: no rows found")
    return medians


def summarize(before: dict, after: dict) -> list:
    """Per-(case, kernel, variant) before/after ratios plus an overall row (ratio of sums)."""
    gaps = {"after": sorted(set(before) - set(after)), "before": sorted(set(after) - set(before))}
    parts = [f"missing from {side}: {keys}" for side, keys in gaps.items() if keys]
    if parts:
        raise ConfigError("reports do not cover the same (case, kernel, variant) set; " + "; ".join(parts))
    rows = []
    for case, kernel, variant in sorted(before):
        b = before[(case, kernel, variant)]
        a = after[(case, kernel, variant)]
        rows.append((case, kernel, variant, b, a, b / a))
    total_b = sum(before.values())
    total_a = sum(after.values())
    rows.append(("all", "overall", "", total_b, total_a, total_b / total_a))
    return rows


def _run_compare(args: argparse.Namespace) -> Report:
    before = _read_bench_medians(args.before)
    after = _read_bench_medians(args.after)
    rows = summarize(before, after)
    columns = ("case", "kernel", "variant", "before_s", "after_s", "ratio")
    return Report(columns, rows, _meta(args, before=args.before, after=args.after))


def _run_verify(args: argparse.Namespace) -> Report:
    """Run every check in checks.CHECKS, one row each.

    Wallclock goes in its own column, so the reports of two runs with one
    case and seed differ nowhere else.
    """
    rows = []
    for name, check in checks.CHECKS.items():
        start = time.perf_counter()
        value, limit, ok = check(args.case, args.seed)
        seconds = time.perf_counter() - start
        rows.append((name, args.case, "pass" if ok else "fail", value, limit,
                     checks.margin(value, limit, ok), f"{seconds:.6f}"))
    columns = ("check", "case", "status", "value", "limit", "margin", "seconds")
    return Report(columns, rows, _meta(args, case=args.case, checks=len(rows)))


# ---------------------------------------------------------------------------
# driver


def main(argv=None) -> int:
    """Run one subcommand; an argument error exits 2 from inside argparse."""
    args = build_parser().parse_args(argv)
    try:
        report = args.run(args)
    except ConfigError as exc:
        print(f"gyroproxy: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"gyroproxy: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(report.markdown() if args.markdown else report.plain())
    code = EXIT_OK
    if args.command == "verify":
        passed = sum(row[2] == "pass" for row in report.rows)
        code = EXIT_OK if passed == len(report.rows) else EXIT_VERIFY
        print(f"{'PASS' if code == EXIT_OK else 'FAIL'} ({passed}/{len(report.rows)} checks)")
    if args.out:
        try:
            report.write(args.out)
        except OSError as exc:
            print(f"gyroproxy: I/O error: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"wrote {args.out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
