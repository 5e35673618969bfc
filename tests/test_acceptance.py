"""Acceptance gate: runs every shipped criterion at its stated tolerance.

Each criterion goes through `run_all`, the judge `edsim selftest` uses,
and prints one pass/fail line; run with `pytest -s` to watch them stream.
From the CLI, `edsim selftest --format csv` prints one row per criterion
and `edsim selftest` the JSON report; each exits 1 if a criterion fails.
"""

import pytest

from edsim.selftest import CRITERIA, run_all


@pytest.mark.parametrize("cid", [cid for cid, _, _ in CRITERIA],
                         ids=[f"criterion_{cid:02d}" for cid, _, _ in CRITERIA])
def test_acceptance_criterion(cid):
    (result,) = run_all({cid})
    line = f"{'PASS' if result.passed else 'FAIL'} {cid:>2}  {result.description}  [{result.details}]"
    print(line)
    assert result.passed, line
