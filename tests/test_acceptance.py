"""End-to-end acceptance battery.

The correctness properties live in ``gyroproxy/checks.py``, where
``gyroproxy verify`` runs them too; here every check runs on sh03b-desk
at the top seed, the kernel-contract checks also at seeds 0-19, and the
kernel-contract checks run on em04b-desk at seeds 0-2 and the top seed.
The exact nonlinear contract also runs under four other BLAS core types,
one child process each.
Each test prints one PASS/FAIL line with the numbers it gated on, so a
bare ``pytest -s tests/test_acceptance.py`` reads as a checklist.  The
thresholds are the contract for this package; loosening them here is the
same as shipping a regression.
"""

import argparse
import csv
import functools
import importlib.util
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from gyroproxy import checks
from gyroproxy.grid import make_case, random_state
from gyroproxy.kernels import KERNEL_NAMES, KERNEL_VARIANTS, blas_core, make_kernel_inputs, run_kernel, time_calls
from gyroproxy.cli import build_parser

DATA = Path(__file__).parent / "data"

#: Every check runs at the largest seed verify accepts: no check may derive
#: a seed beyond it.
TOP_SEED = 2**64 - 1

#: Wallclock gates (seconds) on the checks whose cost grows with their sample.
ELAPSED_LIMIT_S = {"padding_minimal": 10.0, "bracket_oracle": 60.0}


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def run_check(name, case, seed):
    start = time.perf_counter()
    value, limit, ok = checks.CHECKS[name](case, seed)
    elapsed = time.perf_counter() - start
    budget = ELAPSED_LIMIT_S.get(name)
    timing = f"{elapsed:.2f}s" + (f" (limit {budget}s)" if budget else "")
    report(name, ok and (budget is None or elapsed < budget),
           f"{case} seed {seed}: value {value!r}, limit {limit!r}, {timing}")


# Seed-major, so the kernel-contract checks of one seed share the state
# checks._seeded builds once.
@pytest.mark.parametrize("name, seed", [
    (name, seed) for seed in range(20) for name in checks.KERNEL_CONTRACT_CHECKS
] + [(name, TOP_SEED) for name in checks.CHECKS])
def test_check(name, seed):
    run_check(name, "sh03b-desk", seed)


# em04b-desk is the case two benchmark workloads run: n_theta = 6 and a
# 144x48 padded bracket grid, where sh03b-desk has 8 and 72x24.
@pytest.mark.parametrize("name, seed", [
    (name, seed) for seed in (0, 1, 2, TOP_SEED) for name in checks.KERNEL_CONTRACT_CHECKS])
def test_kernel_check_em04b(name, seed):
    run_check(name, "em04b-desk", seed)


#: OpenBLAS core types besides the host's own that an AVX-512 x86-64 CPU can
#: select through OPENBLAS_CORETYPE; Prescott reports itself as Katmai.
CORE_TYPES = ("Haswell", "Sandybridge", "Nehalem", "Prescott")


def _contract_under(core_type):
    """(the core type OpenBLAS reports, nonlinear_slices' error on both desk cases) in a child process."""
    code = ("from gyroproxy import checks, kernels; print(kernels.blas_core(), "
            "*(checks.nonlinear_slices(case, 0)[0] for case in ('sh03b-desk', 'em04b-desk')))")
    env = dict(os.environ, PYTHONPATH=str(Path(checks.__file__).resolve().parents[1]),
               OPENBLAS_CORETYPE=core_type, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    core, *errors = proc.stdout.split()
    return core, [float(e) for e in errors]


@pytest.fixture(scope="module")
def core_type_contracts():
    """CORE_TYPES -> _contract_under each, two children at a time."""
    with ThreadPoolExecutor(2) as pool:
        return dict(zip(CORE_TYPES, pool.map(_contract_under, CORE_TYPES)))


@pytest.mark.parametrize("core_type", CORE_TYPES)
def test_nonlinear_contract_is_exact_under_core_type(core_type, core_type_contracts):
    """The kernel and its per-slice reference give the same bits on every BLAS backend, not only the host's."""
    ran = {blas_core(): "this process"}
    for earlier in CORE_TYPES[:CORE_TYPES.index(core_type)]:
        ran.setdefault(core_type_contracts[earlier][0], earlier)
    core, errors = core_type_contracts[core_type]
    if core in ran:
        pytest.skip(f"{core_type} falls back to {core}, which {ran[core]} already ran")
    report(f"nonlinear contract under {core_type}", errors == [0.0, 0.0],
           f"blas_core {core}, error {errors} on sh03b-desk and em04b-desk at seed 0, limit 0.0")


def test_seeded_inputs_are_shared_and_read_only():
    h, inputs = checks._seeded("sh03b-desk", 3)
    assert checks._seeded("sh03b-desk", 3)[0] is h
    for a in (h, inputs["weights"], inputs["stencil"], inputs["shifts"], inputs["matrices"], inputs["phi"]):
        with pytest.raises(ValueError):
            a.flat[0] = 0
    assert np.array_equal(h, random_state(make_case("sh03b-desk"), 3))


@pytest.fixture(scope="module")
def golden():
    """(the committed golden document, the one checks.golden builds now), as JSON reads both."""
    return json.loads((DATA / "golden.json").read_text()), json.loads(json.dumps(checks.golden()))


def _leaves(doc, path=""):
    """(path, value) of every entry of a golden document; a list is one value."""
    if not isinstance(doc, dict):
        yield path, doc
        return
    for key, value in doc.items():
        yield from _leaves(value, f"{path}/{key}")


def report_golden(name, want, got, golden):
    """Fail on entries that moved, are stale (no longer built) or are new, and print the regenerated document.

    The printed document keeps the file's checksums under other keys: a
    change that moves an output on purpose rewrites the file from it, so
    the diff shows what moved.
    """
    want, got = dict(_leaves(want)), dict(_leaves(got))
    moved = sorted(path for path in want.keys() & got.keys() if want[path] != got[path])
    stale, new = sorted(want.keys() - got.keys()), sorted(got.keys() - want.keys())
    if moved or stale or new:
        committed, built = golden
        print(json.dumps({**built, "checksums": {**committed["checksums"], **built["checksums"]}}, indent=2))
    report(name, not (moved or stale or new), f"moved {moved}, stale {stale}, new {new}")


def test_golden_document(golden):
    """The seeded states and the exact plan-padding and comm-estimate entries hold bitwise on every host."""
    committed, built = ({k: v for k, v in doc.items() if k != "checksums"} for doc in golden)
    report_golden("golden document", committed, built, golden)


@pytest.mark.parametrize("case", ["sh03b-desk", "em04b-desk"])
def test_golden_checksums(case, golden):
    """Every kernel variant's one-thread output, and every verify value, is what the golden document holds.

    They are compared only under the numpy version and BLAS core type they
    were taken with; under another key the test skips and names it.
    """
    committed, built = golden
    (key, kernels), = built["checksums"].items()
    if key not in committed["checksums"]:
        pytest.skip(f"no golden checksums for {key!r} (the file holds {sorted(committed['checksums'])})")
    report_golden(f"golden checksums, {case} under {key!r}", committed["checksums"][key].get(case, {}),
                  kernels[case], golden)


def test_perfbench_tolerances_match_checks(monkeypatch):
    # perfbench keeps its own copy of the kernel tolerances; hold it to this one
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    assert workloads.TOLERANCE == checks.TOLERANCE


@pytest.mark.parametrize("workload", ["step-sh03b", "plan-sweep"])
def test_perfbench_traced_run(workload, monkeypatch):
    # the traced pass reaches into the package: the tracer wraps kernels.bracket
    # and spectral.plan_padded_size, and layers.py reads inputs["plans"]
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    try:
        run = importlib.import_module("run")
        result, table, _ = run.run(argparse.Namespace(workload=workload, seed=1, seconds=0.05, trace=1))
    finally:
        for name in ("run", "workloads", "tracing", "layers"):
            sys.modules.pop(name, None)
    assert result["correct"] and result["failed"] == 0, result
    assert "padding.n_x" in table


def test_prime_size_elimination():
    """Batched transforms on 720 beat 719, and the factor report tells them apart."""
    args = build_parser().parse_args(["fft-bench", "--sizes", "719,720", "--batch", "256", "--reps", "9"])
    rep = args.run(args)
    rows = {row[0]: row for row in rep.rows}
    t719 = float(rows[719][2])
    t720 = float(rows[720][2])
    factors_differ = rows[719][1] == "719" and rows[720][1] == "2*2*2*2*3*3*5"
    ok = t720 <= t719 and factors_differ
    report("prime-size elimination", ok,
           f"median 720 = {t720:.2e}s <= median 719 = {t719:.2e}s, "
           f"factors {rows[719][1]} vs {rows[720][1]}")


def test_optimization_direction():
    """Each optimized kernel with an original at least matches it on this
    machine, with the committed reference floors as the hard gate."""
    floors = json.loads((DATA / "reference_floors.json").read_text())
    paired = [kernel for kernel in KERNEL_NAMES if "original" in KERNEL_VARIANTS[kernel]]
    assert sorted(floors["floors"]) == sorted(paired)
    shape = make_case(floors["case"])
    reps, seed = floors["reps"], floors["seed"]
    h = random_state(shape, seed)
    inputs = make_kernel_inputs(shape, seed)
    lines = []
    ok = True
    for kernel in paired:
        timed = time_calls({variant: functools.partial(run_kernel, kernel, h, inputs, variant)
                            for variant in ("original", "optimized")}, reps)
        orig, opt = timed["original"].median_s, timed["optimized"].median_s
        floor = floors["floors"][kernel]
        within_noise = opt <= 1.10 * orig
        above_floor = orig / opt >= floor
        ok = ok and within_noise and above_floor
        lines.append(f"{kernel} {orig / opt:.2f}x (floor {floor}, "
                     f"opt<=1.10*orig {within_noise}, original {timed['original'].minflt_per_call:.0f} faults/call)")
    report("optimization direction", ok, "; ".join(lines))


def test_verify_report_is_deterministic(verify_outcome, verify_main):
    """The handler's and main()'s verify runs with one seed differ only in the timing column."""
    def rows(path):
        with open(path, newline="") as fh:
            next(fh)  # metadata line
            return [{k: v for k, v in row.items() if k != "seconds"} for row in csv.DictReader(fh)]

    same = rows(verify_outcome.out) == rows(verify_main.out)
    ok = same and verify_main.code == 0
    report("verify determinism", ok,
           f"main exit code {verify_main.code}, non-timing columns identical: {same}")
