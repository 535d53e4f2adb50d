"""Every benchmark case runs once at seed 0 and passes the benchmark's own
report checks, so a budget or exit-code change that would make the benchmark
count failed calls shows up here first."""

import sys
from pathlib import Path

import pytest

from framedisc import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_every_case_passes_its_check(tmp_path, workload):
    checker = checks.Checker()
    failures = {}
    for case in workloads.build(workload, 0, tmp_path):
        reason = checker.check(case, run.run_call(cli, case, tmp_path, "smoke", False))
        if reason is not None:
            failures[case.name] = reason
    assert failures == {}
