"""The session's two verify runs, shared by the CLI and acceptance tests.

The battery is the slowest thing the CLI does, so it runs once through
``run()`` and once through ``main()``; the determinism test compares the
two reports.
"""

import contextlib
import io
from types import SimpleNamespace

import pytest

from gyroproxy.cli import RunConfig, main, run


@pytest.fixture(scope="session")
def verify_outcome(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify") / "verify.csv"
    report, code = run(RunConfig(command="verify", case="sh03b-desk", seed=1234))
    report.write(str(out))
    return SimpleNamespace(report=report, code=code, out=out)


@pytest.fixture(scope="session")
def verify_main(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify-main") / "verify.csv"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["verify", "--case", "sh03b-desk", "--out", str(out)])
    return SimpleNamespace(code=code, stdout=stdout.getvalue(), out=out)
