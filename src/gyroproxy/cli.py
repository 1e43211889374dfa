"""Command-line entry point.

Subcommands:

* ``plan-padding``   transform-size planning for one or more logical sizes
* ``fft-bench``      wallclock comparison of batched transforms by size
* ``bench``          kernel timing report (median/min + output checksums)
* ``verify``         deterministic correctness battery, nonzero exit on failure
* ``comm-estimate``  communication plan search and per-dimension predictions
* ``compare``        before/after speedup table from two bench reports

All file output is UTF-8 CSV with a single ``#`` metadata header line,
written via a temp file and atomic rename so a failed run leaves nothing
behind.  Exit codes: 0 success, 2 invalid configuration or arguments,
3 verification failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import platform
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import __version__, checks
from .commsim import VolumeModel, builtin_topology, load_topology, plan_decomposition, predict_report
from .grid import make_case, case_names, substream
from .kernels import KERNEL_NAMES, KERNEL_VARIANTS, VARIANTS, time_kernel
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

GYROPROXY_THREADS sets the worker count for batched spectral work;
a --threads flag takes precedence over the environment.
"""


class ConfigError(ValueError):
    """Invalid configuration; rejected before any work or output."""


@dataclass(frozen=True)
class RunConfig:
    """Fully validated inputs for one subcommand invocation."""

    command: str
    case: str | None = None
    kernels: tuple = ()
    variants: tuple = ()
    reps: int = 0
    seed: int = 1234
    out: str | None = None
    topo: str | None = None
    topo_file: str | None = None
    ranks: int = 0
    nodes: int = 0
    rule: Fraction = Fraction(3, 2)
    primes: tuple = DEFAULT_PRIMES
    n_values: tuple = ()
    sizes: tuple = ()
    batch: int = 0
    threads: int = 1
    markdown: bool = False
    before: str | None = None
    after: str | None = None


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


def _meta(config: RunConfig, **extra) -> dict:
    host = f"{platform.node()} {platform.system()} {platform.machine()} numpy-{np.__version__}"
    meta = {
        "tool": "gyroproxy",
        "version": __version__,
        "command": config.command,
        "seed": config.seed,
        "timestamp": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    }
    meta.update(extra)
    meta["host"] = host
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


def _parse_int_list(text: str, what: str) -> tuple:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"{what} must be a comma-separated integer list, got {text!r}") from None
    if not values:
        raise ConfigError(f"{what} must not be empty")
    return values


def _parse_name_list(text: str, what: str, allowed: tuple) -> tuple:
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    if not names:
        raise ConfigError(f"{what} must not be empty")
    for name in names:
        if name not in allowed:
            raise ConfigError(f"unknown {what} {name!r}; expected from {allowed}")
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate entries in {what}: {text!r}")
    return names


def _resolve_threads(flag) -> int:
    if flag is not None:
        value = flag
    else:
        env = os.environ.get("GYROPROXY_THREADS")
        if env is None:
            return 1
        try:
            value = int(env)
        except ValueError:
            raise ConfigError(f"GYROPROXY_THREADS must be an integer, got {env!r}") from None
    if value < 1:
        raise ConfigError(f"thread count must be >= 1, got {value}")
    return value


def _check_case(name: str) -> str:
    try:
        make_case(name)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return name


def _check_seed(seed: int) -> int:
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be in [0, 2^64), got {seed}")
    return seed


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
    p.add_argument("--n", required=True, help="logical size(s), comma separated")
    p.add_argument("--rule", default="3/2", help="padding rule as a fraction (default 3/2)")
    p.add_argument("--primes", default="2,3,5,7", help="allowed prime factors")
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--markdown", action="store_true", help="print the table as markdown")

    p = sub.add_parser("fft-bench", help="time batched transforms by size")
    p.add_argument("--sizes", default="719,720", help="transform lengths, comma separated")
    p.add_argument("--batch", type=int, default=256, help="transforms per call (default 256)")
    p.add_argument("--reps", type=int, default=9, help="timed repetitions (default 9, min 3)")
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--markdown", action="store_true")

    p = sub.add_parser("bench", help="time the proxy kernels")
    p.add_argument("--case", required=True, help=f"grid case: {', '.join(case_names())}")
    p.add_argument("--kernels", default=",".join(KERNEL_NAMES))
    p.add_argument("--variants", default=",".join(VARIANTS))
    p.add_argument("--reps", type=int, default=5, help="timed repetitions (default 5, min 3)")
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--markdown", action="store_true")

    p = sub.add_parser("verify", help="run the deterministic correctness battery")
    p.add_argument("--case", default="sh03b-desk", help="grid case for sized checks")
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--markdown", action="store_true")

    p = sub.add_parser("comm-estimate", help="plan and price the communication split")
    p.add_argument("--case", required=True)
    p.add_argument("--topo", help="builtin topology name")
    p.add_argument("--topo-file", help="topology key=value file")
    p.add_argument("--ranks", type=int, required=True)
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--markdown", action="store_true")

    p = sub.add_parser("compare", help="speedups between two bench reports")
    p.add_argument("--before", required=True, help="bench CSV taken first")
    p.add_argument("--after", required=True, help="bench CSV taken second")
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--markdown", action="store_true")

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """Validate parsed arguments into a RunConfig; no work happens here."""
    cmd = args.command
    if cmd == "plan-padding":
        values = _parse_int_list(args.n, "--n")
        if any(v < 1 for v in values):
            raise ConfigError("--n values must be >= 1")
        try:
            rule = Fraction(args.rule)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"--rule must be a fraction, got {args.rule!r}") from None
        if rule < 1:
            raise ConfigError(f"--rule must be >= 1, got {rule}")
        primes = _parse_int_list(args.primes, "--primes")
        if any(p < 2 for p in primes):
            raise ConfigError("--primes entries must be >= 2")
        return RunConfig(command=cmd, n_values=values, rule=rule, primes=primes,
                         out=args.out, markdown=args.markdown)
    if cmd == "fft-bench":
        sizes = _parse_int_list(args.sizes, "--sizes")
        if any(s < 2 for s in sizes):
            raise ConfigError("--sizes values must be >= 2")
        if args.batch < 1:
            raise ConfigError(f"--batch must be >= 1, got {args.batch}")
        if args.reps < 3:
            raise ConfigError(f"--reps must be >= 3, got {args.reps}")
        return RunConfig(command=cmd, sizes=sizes, batch=args.batch, reps=args.reps,
                         seed=_check_seed(args.seed), out=args.out, markdown=args.markdown)
    if cmd == "bench":
        if args.reps < 3:
            raise ConfigError(f"--reps must be >= 3, got {args.reps}")
        kernels = _parse_name_list(args.kernels, "kernel", KERNEL_NAMES)
        variants = _parse_name_list(args.variants, "variant", VARIANTS)
        if not any(v in KERNEL_VARIANTS[k] for k in kernels for v in variants):
            raise ConfigError(f"no kernel in {kernels} has a variant in {variants}; "
                              "only stream and shear have 'original'")
        return RunConfig(
            command=cmd,
            case=_check_case(args.case),
            kernels=kernels,
            variants=variants,
            reps=args.reps,
            seed=_check_seed(args.seed),
            threads=_resolve_threads(args.threads),
            out=args.out,
            markdown=args.markdown,
        )
    if cmd == "verify":
        return RunConfig(command=cmd, case=_check_case(args.case),
                         seed=_check_seed(args.seed), out=args.out, markdown=args.markdown)
    if cmd == "comm-estimate":
        if bool(args.topo) == bool(args.topo_file):
            raise ConfigError("give exactly one of --topo or --topo-file")
        if args.topo:
            try:
                builtin_topology(args.topo)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        if args.ranks < 1 or args.nodes < 1:
            raise ConfigError("--ranks and --nodes must be >= 1")
        return RunConfig(command=cmd, case=_check_case(args.case), topo=args.topo,
                         topo_file=args.topo_file, ranks=args.ranks, nodes=args.nodes,
                         out=args.out, markdown=args.markdown)
    if cmd == "compare":
        return RunConfig(command=cmd, before=args.before, after=args.after,
                         out=args.out, markdown=args.markdown)
    raise ConfigError(f"unknown command {cmd!r}")


# ---------------------------------------------------------------------------
# subcommand implementations


def _run_plan_padding(config: RunConfig) -> Report:
    rows = []
    for n in config.n_values:
        plan = plan_padded_size(n, rule=config.rule, allowed_primes=config.primes)
        rows.append((
            n,
            plan.n_min,
            plan.n_padded,
            "*".join(str(f) for f in plan.factors),
            plan.cost_score,
        ))
    columns = ("n_logical", "n_min", "n_padded", "factors", "score")
    meta = _meta(config, rule=config.rule, primes="*".join(map(str, config.primes)))
    return Report(columns, rows, meta)


def _time_batched_fft(size: int, batch: int, reps: int, seed: int):
    gen = substream(seed, 5)
    spec = gen.standard_normal((batch, size // 2 + 1)) + 1j * gen.standard_normal((batch, size // 2 + 1))
    np.fft.irfft(spec, n=size, axis=-1)
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        np.fft.irfft(spec, n=size, axis=-1)
        times.append(time.perf_counter() - start)
    return statistics.median(times), min(times)


def _run_fft_bench(config: RunConfig) -> Report:
    rows = []
    for size in config.sizes:
        median_s, min_s = _time_batched_fft(size, config.batch, config.reps, config.seed)
        factors = factorize(size)
        rows.append((
            size,
            "*".join(str(f) for f in factors),
            median_s,
            min_s,
        ))
    columns = ("size", "factors", "median_seconds", "min_seconds")
    return Report(columns, rows, _meta(config, batch=config.batch, reps=config.reps))


def _run_bench(config: RunConfig) -> Report:
    shape = make_case(config.case)
    rows = []
    for kernel in config.kernels:
        for variant in (v for v in config.variants if v in KERNEL_VARIANTS[kernel]):
            t = time_kernel(kernel, variant, shape, config.reps, config.seed, config.threads)
            rows.append((config.case, kernel, variant, config.reps,
                         t.median_s, t.min_s, t.checksum))
    columns = ("case", "kernel", "variant", "reps", "median_s", "min_s", "checksum")
    meta = _meta(config, case=config.case, reps=config.reps, threads=config.threads)
    return Report(columns, rows, meta)


def _run_comm_estimate(config: RunConfig) -> Report:
    shape = make_case(config.case)
    if config.topo:
        topo = builtin_topology(config.topo)
    else:
        try:
            topo = load_topology(config.topo_file)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    vm = VolumeModel.from_shape(shape)
    try:
        plan = plan_decomposition(vm, config.ranks, config.nodes, topo)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    rows = [
        (p.dimension, p.kind, p.bytes_per_rank, p.seconds)
        for p in predict_report(shape, topo, plan)
    ]
    meta = _meta(
        config,
        case=config.case,
        topology=topo.name,
        ranks=config.ranks,
        nodes=config.nodes,
        n1=plan.n1,
        n2=plan.n2,
        placement=plan.placement,
        spread_nodes=plan.spread_nodes,
        ranks_per_node=plan.ranks_per_node,
    )
    return Report(("dimension", "kind", "bytes", "seconds"), rows, meta)


def _read_bench_medians(path: str) -> dict:
    """(case, kernel, variant) -> median seconds from a bench report CSV."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    reader = csv.DictReader(lines)
    need = {"case", "kernel", "variant", "median_s"}
    if reader.fieldnames is None or not need.issubset(reader.fieldnames):
        raise ConfigError(f"{path}: not a bench report (missing columns {sorted(need)})")
    medians: dict = {}
    for row in reader:
        key = (row["case"], row["kernel"], row["variant"])
        if key in medians:
            raise ConfigError(f"{path}: duplicate rows for {key}")
        medians[key] = float(row["median_s"])
    if not medians:
        raise ConfigError(f"{path}: no rows found")
    return medians


def summarize(before: dict, after: dict) -> list:
    """Per-(case, kernel, variant) before/after ratios plus an overall row (ratio of sums)."""
    missing_after = sorted(set(before) - set(after))
    missing_before = sorted(set(after) - set(before))
    if missing_after or missing_before:
        parts = []
        if missing_after:
            parts.append(f"missing from after: {missing_after}")
        if missing_before:
            parts.append(f"missing from before: {missing_before}")
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


def _run_compare(config: RunConfig) -> Report:
    before = _read_bench_medians(config.before)
    after = _read_bench_medians(config.after)
    rows = summarize(before, after)
    columns = ("case", "kernel", "variant", "before_s", "after_s", "ratio")
    return Report(columns, rows, _meta(config, before=config.before, after=config.after))


def _run_verify(config: RunConfig) -> tuple:
    """Run every check in checks.CHECKS; returns (report, failures).

    Wallclock goes in its own column, so the reports of two runs with one
    case and seed differ nowhere else.
    """
    rows = []
    for name, check in checks.CHECKS.items():
        start = time.perf_counter()
        value, limit, ok = check(config.case, config.seed)
        seconds = time.perf_counter() - start
        rows.append((name, config.case, "pass" if ok else "fail", value, limit,
                     checks.margin(value, limit, ok), f"{seconds:.6f}"))
    columns = ("check", "case", "status", "value", "limit", "margin", "seconds")
    report = Report(columns, rows, _meta(config, case=config.case, checks=len(rows)))
    return report, sum(row[2] == "fail" for row in rows)


# ---------------------------------------------------------------------------
# driver


def run(config: RunConfig) -> tuple:
    """Execute a validated config; returns (report, exit_code)."""
    if config.command == "plan-padding":
        return _run_plan_padding(config), EXIT_OK
    if config.command == "fft-bench":
        return _run_fft_bench(config), EXIT_OK
    if config.command == "bench":
        return _run_bench(config), EXIT_OK
    if config.command == "verify":
        report, failures = _run_verify(config)
        return report, EXIT_VERIFY if failures else EXIT_OK
    if config.command == "comm-estimate":
        return _run_comm_estimate(config), EXIT_OK
    if config.command == "compare":
        return _run_compare(config), EXIT_OK
    raise ConfigError(f"unknown command {config.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        report, code = run(config)
    except ConfigError as exc:
        print(f"gyroproxy: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"gyroproxy: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(report.markdown() if config.markdown else report.plain())
    if config.command == "verify":
        passed = sum(1 for row in report.rows if row[2] == "pass")
        status = "PASS" if code == EXIT_OK else "FAIL"
        print(f"{status} ({passed}/{len(report.rows)} checks)")
    if config.out:
        try:
            report.write(config.out)
        except OSError as exc:
            print(f"gyroproxy: I/O error: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"wrote {config.out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
