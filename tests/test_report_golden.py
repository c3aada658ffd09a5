"""Behaviour gates: the `all --seed 0` JSON report, numeric suite excluded,
and the `numeric --seed 0 --points 2000` report are byte-identical to their
committed golden copies.

The all-suites copy drops the numeric suite because its `%.3e` float details
may differ between numpy builds; every other suite is exact.  The numeric copy
pins those details for the numpy build the repository is tested with, so a
change to the oracle's arithmetic shows as a diff.  After an intended report
change, regenerate both golden files with `python tests/test_report_golden.py`.
"""

import json
from pathlib import Path

from edsverify.cli import main

GOLDEN = Path(__file__).parent / "data" / "all-seed0.symbolic.json"
NUMERIC_GOLDEN = Path(__file__).parent / "data" / "numeric-seed0-2000.json"


def symbolic_report(path: Path) -> str:
    """`all --seed 0` written to `path`, without the numeric suite, in the
    CLI's own JSON layout."""
    assert main(["all", "--seed", "0", "--json", str(path)]) == 0
    report = json.loads(path.read_text(encoding="utf-8"))
    report["suites"] = [s for s in report["suites"] if s["suite"] != "numeric"]
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def numeric_report(path: Path) -> str:
    """`numeric --seed 0 --points 2000` as the CLI writes it to `path`."""
    assert main(["numeric", "--seed", "0", "--points", "2000", "--json", str(path)]) == 0
    return path.read_text(encoding="utf-8")


def test_all_seed0_report_matches_golden(tmp_path):
    assert symbolic_report(tmp_path / "all.json") == GOLDEN.read_text(encoding="utf-8")


def test_numeric_seed0_report_matches_golden(tmp_path):
    assert numeric_report(tmp_path / "numeric.json") == NUMERIC_GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(symbolic_report(Path(tmp) / "all.json"), encoding="utf-8")
        NUMERIC_GOLDEN.write_text(numeric_report(Path(tmp) / "numeric.json"), encoding="utf-8")
