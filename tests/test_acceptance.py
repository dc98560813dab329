"""Acceptance suite: every criterion runs at its pinned tolerance.

Each test prints one pass/fail line (run pytest with -s to see them all
live; the same lines come from the ``verify`` CLI subcommand).  Criteria
are evaluated at the package's fixed default seed so results are exactly
reproducible: each result file must match, byte for byte, the one in
``tests/golden/verify/`` that ``smpsim verify --out-dir`` wrote.
"""

from pathlib import Path

import pytest

from smpsim import DEFAULT_MASTER_SEED, io
from smpsim.verify import CRITERIA, criterion_result_file, run_criterion

GOLDEN = Path(__file__).parent / "golden" / "verify"


@pytest.mark.parametrize("criterion", sorted(CRITERIA))
def test_criterion(criterion, tmp_path):
    result = run_criterion(criterion, seed=DEFAULT_MASTER_SEED, workers=1)
    status = "PASS" if result.passed else "FAIL"
    print(
        f"criterion {criterion:2d} ({result.title}): {status} "
        f"[{result.elapsed_seconds:.1f}s] {result.details}"
    )
    assert result.passed, f"criterion {criterion} failed: {result.details}"
    path = tmp_path / "result.json"
    io.write_results(criterion_result_file(result, DEFAULT_MASTER_SEED), "json", path)
    assert path.read_bytes() == (GOLDEN / f"criterion_{criterion:02d}.json").read_bytes()


@pytest.mark.parametrize("criterion", [0, len(CRITERIA) + 1])
def test_unknown_criterion_refused(criterion):
    with pytest.raises(ValueError, match=f"^unknown criterion {criterion}, expected 1"):
        run_criterion(criterion)
