import csv
import io
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gyroproxy
from gyroproxy.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    Report,
    _blas_core,
    build_parser,
    main,
    summarize,
)


def parse_args(argv):
    return build_parser().parse_args(argv)


def exit_code(argv):
    """main's exit status, whether it returns or argparse raises SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def read_report(path):
    """(meta line, list of row dicts) from a written report CSV."""
    with open(path, newline="") as fh:
        first = fh.readline()
        rows = list(csv.DictReader(fh))
    assert first.startswith("# ")
    return first, rows


# ---------------------------------------------------------------------------
# argument validation


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--version"])
    assert exc.value.code == 0
    assert "gyroproxy" in capsys.readouterr().out


def test_module_entry_point_runs():
    # python -m gyroproxy from a source tree, without an install; an argument
    # error leaves main as argparse's SystemExit(2)
    env = dict(os.environ, PYTHONPATH=str(Path(gyroproxy.__file__).resolve().parents[1]))
    for argv, code, stream, text in [
        (["plan-padding", "--n", "480"], EXIT_OK, "stdout", "720"),
        (["bench", "--case", "nope"], EXIT_CONFIG, "stderr", "error"),
    ]:
        proc = subprocess.run([sys.executable, "-m", "gyroproxy", *argv],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == code, proc.stderr
        assert text in getattr(proc, stream)


def test_verify_passes_under_another_blas_core_type(tmp_path):
    # numpy's bundled OpenBLAS picks its kernel set per process from
    # OPENBLAS_CORETYPE; the battery must hold on a non-default one too,
    # and the report header must name the core type that ran
    env = dict(os.environ, PYTHONPATH=str(Path(gyroproxy.__file__).resolve().parents[1]),
               OPENBLAS_CORETYPE="Nehalem")
    out = tmp_path / "verify.csv"
    proc = subprocess.run([sys.executable, "-m", "gyroproxy", "verify", "--case", "sh03b-desk", "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stdout + proc.stderr
    assert "PASS (19/19 checks)" in proc.stdout
    meta, _ = read_report(out)
    assert " blas_core=Nehalem " in meta


def test_blas_core_unknown_without_a_corename_symbol(monkeypatch):
    monkeypatch.setattr("ctypes.CDLL", lambda path: object())
    assert _blas_core() == "unknown"


def test_subcommand_required():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([])
    assert exc.value.code == 2


def test_plan_padding_args_roundtrip():
    args = parse_args(["plan-padding", "--n", "48,479", "--rule", "5/3", "--primes", "2,3"])
    assert args.n == (48, 479)
    assert args.rule == Fraction(5, 3)
    assert args.primes == (2, 3)


@pytest.mark.parametrize("argv", [
    ["plan-padding", "--n", "0"],
    ["plan-padding", "--n", "ten"],
    ["plan-padding", "--n", ""],
    ["plan-padding", "--n", "48", "--rule", "1/2"],
    ["plan-padding", "--n", "48", "--rule", "fast"],
    ["plan-padding", "--n", "48", "--primes", "1,2"],
    ["fft-bench", "--sizes", "1,720"],
    ["fft-bench", "--batch", "0"],
    ["fft-bench", "--reps", "2"],
    ["bench", "--case", "nope"],
    ["bench", "--case", "sh03b-desk", "--reps", "1"],
    ["bench", "--case", "sh03b-desk", "--kernels", "field,warp"],
    ["bench", "--case", "sh03b-desk", "--kernels", "field,field"],
    ["bench", "--case", "sh03b-desk", "--variants", "debug"],
    ["bench", "--case", "sh03b-desk", "--kernels", "field,collision", "--variants", "original"],
    ["bench", "--case", "sh03b-desk", "--seed", "-1"],
    ["bench", "--case", "sh03b-desk", "--threads", "0"],
    ["verify", "--case", "bogus"],
    ["comm-estimate", "--case", "sh03b", "--ranks", "24", "--nodes", "6"],
    ["comm-estimate", "--case", "sh03b", "--topo", "summit", "--ranks", "24", "--nodes", "6"],
    ["comm-estimate", "--case", "sh03b", "--topo", "perlmutter_like", "--ranks", "0", "--nodes", "6"],
])
def test_invalid_configurations_rejected(argv, capsys):
    assert exit_code(argv) == EXIT_CONFIG
    assert "error" in capsys.readouterr().err


def test_invalid_configuration_exit_code(capsys):
    # a rejection found while running returns 2 from main; argparse is not involved
    assert main(["bench", "--case", "sh03b-desk", "--kernels", "collision",
                 "--variants", "original"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("gyroproxy: error: ")
    assert "only stream and shear have 'original'" in err


def test_topo_and_topo_file_mutually_exclusive(capsys):
    assert exit_code(["comm-estimate", "--case", "sh03b", "--topo", "perlmutter_like",
                      "--topo-file", "x.topo", "--ranks", "24", "--nodes", "6"]) == EXIT_CONFIG
    assert "not allowed with" in capsys.readouterr().err


def test_threads_default_is_one():
    assert parse_args(["bench", "--case", "sh03b-desk"]).threads == 1
    assert parse_args(["bench", "--case", "sh03b-desk", "--threads", "2"]).threads == 2


# ---------------------------------------------------------------------------
# report plumbing


def test_report_csv_layout():
    report = Report(("a", "b"), [(1, "x"), (2, "y")], {"tool": "gyroproxy", "seed": 7})
    text = report.csv_text()
    lines = text.splitlines()
    assert lines[0] == "# tool=gyroproxy seed=7"
    assert lines[1] == "a,b"
    assert lines[2:] == ["1,x", "2,y"]


def test_report_markdown_and_plain():
    report = Report(("name", "value"), [("alpha", 1)], {})
    md = report.markdown()
    assert md.splitlines()[0] == "| name | value |"
    assert "| alpha | 1 |" in md
    plain = report.plain()
    assert plain.splitlines()[0].split() == ["name", "value"]


def test_report_write_replaces_atomically(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("old\n")
    report = Report(("a",), [(1,)], {"tool": "gyroproxy"})
    report.write(str(target))
    assert target.read_text().endswith("a\n1\n")
    leftovers = [p for p in os.listdir(tmp_path) if p != "out.csv"]
    assert leftovers == []


def test_write_failure_exit_code(tmp_path, capsys):
    missing_dir = tmp_path / "nowhere" / "out.csv"
    code = main(["plan-padding", "--n", "48", "--out", str(missing_dir)])
    assert code == EXIT_IO
    assert "I/O error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# subcommands end to end


def test_plan_padding_row_values(tmp_path, capsys):
    out = tmp_path / "plan.csv"
    assert main(["plan-padding", "--n", "479,48", "--out", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert f"wrote {out}" in stdout
    meta, rows = read_report(out)
    assert "command=plan-padding" in meta
    # plan-padding takes no seed, so its report names none
    assert "seed=" not in meta
    assert meta.rstrip().endswith(f" cores={os.cpu_count()}")
    assert rows[0] == {"n_logical": "479", "n_min": "719", "n_padded": "720",
                       "factors": "2*2*2*2*3*3*5", "score": "19"}
    assert rows[1]["n_padded"] == "72"


def test_plan_padding_markdown(capsys):
    assert main(["plan-padding", "--n", "48", "--markdown"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "| n_logical | n_min | n_padded | factors | score |"


def test_fft_bench_report(tmp_path, capsys):
    out = tmp_path / "fft.csv"
    code = main(["fft-bench", "--sizes", "30,32", "--batch", "4", "--reps", "3",
                 "--out", str(out)])
    assert code == EXIT_OK
    meta, rows = read_report(out)
    assert "batch=4" in meta and "reps=3" in meta
    assert [r["size"] for r in rows] == ["30", "32"]
    assert rows[0]["factors"] == "2*3*5"
    assert rows[1]["factors"] == "2*2*2*2*2"
    for r in rows:
        assert float(r["median_seconds"]) >= float(r["min_seconds"]) > 0.0
        assert float(r["iqr_seconds"]) >= 0.0


def test_bench_report_schema_and_determinism(tmp_path):
    argv = ["bench", "--case", "sh03b-desk", "--kernels", "field,shear",
            "--variants", "optimized", "--reps", "3", "--seed", "99"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == EXIT_OK
    assert main(argv + ["--out", str(b)]) == EXIT_OK
    meta, rows_a = read_report(a)
    _, rows_b = read_report(b)
    assert "case=sh03b-desk" in meta
    assert list(rows_a[0]) == ["case", "kernel", "variant", "reps",
                               "median_s", "min_s", "iqr_s", "minflt_per_call", "checksum"]
    assert [r["kernel"] for r in rows_a] == ["field", "shear"]
    # timings move between runs; checksums must not
    for ra, rb in zip(rows_a, rows_b):
        assert ra["checksum"] == rb["checksum"]
        assert ra["variant"] == "optimized"


def test_bench_checksums_do_not_depend_on_threads(tmp_path):
    rows = {}
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.csv"
        assert main(["bench", "--case", "sh03b-desk", "--reps", "3", "--threads", threads,
                     "--out", str(out)]) == EXIT_OK
        rows[threads] = {(r["kernel"], r["variant"]): r["checksum"] for r in read_report(out)[1]}
    assert len(rows["1"]) == 7
    assert rows["2"] == rows["1"]


def test_compare_of_identical_reports_is_unity(tmp_path, capsys):
    bench = tmp_path / "bench.csv"
    main(["bench", "--case", "sh03b-desk", "--kernels", "shear", "--variants",
          "original", "--reps", "3", "--out", str(bench)])
    capsys.readouterr()
    out = tmp_path / "cmp.csv"
    code = main(["compare", "--before", str(bench), "--after", str(bench),
                 "--out", str(out)])
    assert code == EXIT_OK
    _, rows = read_report(out)
    assert [r["kernel"] for r in rows] == ["shear", "overall"]
    assert all(float(r["ratio"]) == 1.0 for r in rows)
    assert rows[-1]["case"] == "all"


def test_compare_rejects_mismatched_coverage(tmp_path, capsys):
    before = tmp_path / "before.csv"
    after = tmp_path / "after.csv"
    main(["bench", "--case", "sh03b-desk", "--kernels", "shear", "--variants",
          "original", "--reps", "3", "--out", str(before)])
    main(["bench", "--case", "sh03b-desk", "--kernels", "field", "--reps", "3",
          "--out", str(after)])
    capsys.readouterr()
    code = main(["compare", "--before", str(before), "--after", str(after)])
    assert code == EXIT_CONFIG
    assert "cover" in capsys.readouterr().err


def test_compare_pairs_two_variant_reports_by_variant(tmp_path, capsys):
    # the default variants: both for shear, field's one optimized row
    bench = tmp_path / "both.csv"
    main(["bench", "--case", "sh03b-desk", "--kernels", "field,shear", "--reps", "3",
          "--out", str(bench)])
    capsys.readouterr()
    out = tmp_path / "cmp.csv"
    code = main(["compare", "--before", str(bench), "--after", str(bench), "--out", str(out)])
    assert code == EXIT_OK
    _, rows = read_report(out)
    assert [(r["kernel"], r["variant"]) for r in rows] == [
        ("field", "optimized"), ("shear", "optimized"), ("shear", "original"), ("overall", "")]
    assert all(float(r["ratio"]) == 1.0 for r in rows)


def test_compare_rejects_duplicate_rows(tmp_path, capsys):
    bench = tmp_path / "dup.csv"
    main(["bench", "--case", "sh03b-desk", "--kernels", "shear", "--variants",
          "original", "--reps", "3", "--out", str(bench)])
    lines = bench.read_text().splitlines(keepends=True)
    bench.write_text("".join(lines) + lines[-1])
    capsys.readouterr()
    code = main(["compare", "--before", str(bench), "--after", str(bench)])
    assert code == EXIT_CONFIG
    assert "duplicate" in capsys.readouterr().err


def test_compare_rejects_foreign_csv(tmp_path):
    alien = tmp_path / "alien.csv"
    alien.write_text("x,y\n1,2\n")
    code = main(["compare", "--before", str(alien), "--after", str(alien)])
    assert code == EXIT_CONFIG


_BENCH_HEAD = "# tool=gyroproxy command=bench\ncase,kernel,variant,reps,median_s\n"


@pytest.mark.parametrize("row, problem", [
    ("sh03b-desk,shear,original,3,fast", "median_s 'fast' is not a finite positive number"),
    ("sh03b-desk,shear,original,3,0", "median_s '0' is not a finite positive number"),
    ("sh03b-desk,shear,original,3,-0.01", "median_s '-0.01' is not a finite positive number"),
    ("sh03b-desk,shear,original,3,nan", "median_s 'nan' is not a finite positive number"),
    ("sh03b-desk,shear,original,3,inf", "median_s 'inf' is not a finite positive number"),
    ("sh03b-desk,shear", "missing variant, median_s"),
    ("sh03b-desk,shear,,3,0.01", "missing variant"),
])
def test_compare_rejects_malformed_rows(tmp_path, capsys, row, problem):
    good = tmp_path / "good.csv"
    good.write_text(_BENCH_HEAD + "sh03b-desk,shear,original,3,0.01\n")
    bad = tmp_path / "bad.csv"
    bad.write_text(_BENCH_HEAD + row + "\n")
    code = main(["compare", "--before", str(good), "--after", str(bad)])
    assert code == EXIT_CONFIG
    assert f"{bad}:3: {problem}" in capsys.readouterr().err


def test_summarize_overall_is_ratio_of_sums():
    before = {("c", "k1", "original"): 2.0, ("c", "k2", "original"): 6.0}
    after = {("c", "k1", "original"): 1.0, ("c", "k2", "original"): 1.0}
    rows = summarize(before, after)
    assert rows[-1] == ("all", "overall", "", 8.0, 2.0, 4.0)


def test_comm_estimate_records_chosen_plan(tmp_path, capsys):
    out = tmp_path / "comm.csv"
    code = main(["comm-estimate", "--case", "sh03b", "--topo", "perlmutter_like",
                 "--ranks", "24", "--nodes", "6", "--out", str(out)])
    assert code == EXIT_OK
    meta, rows = read_report(out)
    assert "placement=dim1_intra_node" in meta
    assert "topology=perlmutter_like" in meta
    assert [r["dimension"] for r in rows] == ["dim1", "dim2"]
    assert [r["kind"] for r in rows] == ["alltoall", "allreduce"]
    for r in rows:
        assert float(r["seconds"]) >= 0.0


# command -> (arguments, columns whose every cell is a number); "BENCH"
# stands for a single-variant bench report made first, and verify's
# report is the one the verify_main fixture wrote
NUMERIC_COLUMNS = {
    "plan-padding": (["--n", "48,479"], ("n_logical", "n_min", "n_padded", "score")),
    "fft-bench": (["--sizes", "30,32", "--batch", "4", "--reps", "3"],
                  ("size", "median_seconds", "min_seconds", "iqr_seconds")),
    "bench": (["--case", "sh03b-desk", "--kernels", "field,shear", "--reps", "3"],
              ("reps", "median_s", "min_s", "iqr_s", "minflt_per_call")),
    "verify": ([], ("value", "limit", "margin", "seconds")),
    "comm-estimate": (["--case", "sh03b", "--topo", "perlmutter_like",
                       "--ranks", "24", "--nodes", "6"], ("bytes", "seconds")),
    "compare": (["--before", "BENCH", "--after", "BENCH"], ("before_s", "after_s", "ratio")),
}


@pytest.mark.parametrize("command", list(NUMERIC_COLUMNS))
def test_report_cells_are_plain_numbers(command, tmp_path, request):
    """Numeric cells parse with float(); no cell holds a numpy repr."""
    args, numeric = NUMERIC_COLUMNS[command]
    bench = tmp_path / "bench.csv"
    if "BENCH" in args:
        assert main(["bench", "--case", "sh03b-desk", "--kernels", "shear", "--variants",
                     "optimized", "--reps", "3", "--out", str(bench)]) == EXIT_OK
    args = [str(bench) if a == "BENCH" else a for a in args]
    out = tmp_path / "report.csv"
    if command == "verify":
        out = request.getfixturevalue("verify_main").out
    else:
        assert main([command, *args, "--out", str(out)]) == EXIT_OK
    _, rows = read_report(out)
    assert rows
    for row in rows:
        for column in numeric:
            float(row[column])
        assert not [cell for cell in row.values() if "np." in cell]


def test_comm_estimate_accepts_topology_file(tmp_path):
    topo = tmp_path / "box.topo"
    topo.write_text(
        "name=box\ngpus_per_node=4\nintra_node_links=4\nintra_link_gbps=25\n"
        "nic_layout=per_gpu\nnics_per_node=4\nnic_bandwidth=25\n"
    )
    out = tmp_path / "comm.csv"
    code = main(["comm-estimate", "--case", "sh03b-desk", "--topo-file", str(topo),
                 "--ranks", "8", "--nodes", "2", "--out", str(out)])
    assert code == EXIT_OK
    meta, _ = read_report(out)
    assert "topology=box" in meta


def test_comm_estimate_infeasible_request(capsys):
    code = main(["comm-estimate", "--case", "sh03b", "--topo", "perlmutter_like",
                 "--ranks", "25", "--nodes", "6"])
    assert code == EXIT_CONFIG


def test_comm_estimate_bad_topology_file(tmp_path, capsys):
    topo = tmp_path / "broken.topo"
    topo.write_text("gpus_per_node=4\n")
    code = main(["comm-estimate", "--case", "sh03b", "--topo-file", str(topo),
                 "--ranks", "4", "--nodes", "1"])
    assert code == EXIT_CONFIG


def test_comm_estimate_missing_topology_file(tmp_path):
    code = main(["comm-estimate", "--case", "sh03b", "--topo-file",
                 str(tmp_path / "absent.topo"), "--ranks", "4", "--nodes", "1"])
    assert code == EXIT_IO


# ---------------------------------------------------------------------------
# verify battery (the session's runs, from conftest.py)


def test_verify_all_checks_pass(verify_outcome):
    assert all(row[2] == "pass" for row in verify_outcome.report.rows)


def test_verify_main_prints_summary(verify_main):
    assert verify_main.code == EXIT_OK
    assert "PASS (19/19 checks)" in verify_main.stdout


def test_verify_report_schema(verify_outcome):
    report = verify_outcome.report
    assert report.columns == ("check", "case", "status", "value", "limit", "margin", "seconds")
    _, rows = read_report(verify_outcome.out)
    assert [r["check"] for r in rows] == [
        "padding_minimal", "padding_overhead", "padding_examples", "factorize_product",
        "rng_determinism", "transform_roundtrip", "transform_parseval", "bracket_oracle",
        "bracket_self_zero", "field_oracle", "stream_variants", "shear_variants",
        "collision_oracle", "nonlinear_slices", "comm_volumes", "comm_alltoall_parity",
        "comm_nic_ordering", "comm_planner_intra", "kernel_checksums",
    ]
    # a passing check keeps a nonnegative distance to its limit
    assert all(float(r["margin"]) >= 0.0 for r in rows)
