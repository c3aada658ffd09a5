"""Behaviour gate: the `all --seed 0` JSON report, numeric suite excluded,
is byte-identical to the committed golden copy.

The numeric suite is dropped because its `%.3e` float details may differ
between numpy builds; every other suite is exact.  After an intended report
change, regenerate the golden file with `python tests/test_report_golden.py`.
"""

import json
from pathlib import Path

from edsverify.cli import main

GOLDEN = Path(__file__).parent / "data" / "all-seed0.symbolic.json"


def symbolic_report(path: Path) -> str:
    """`all --seed 0` written to `path`, without the numeric suite, in the
    CLI's own JSON layout."""
    assert main(["all", "--seed", "0", "--json", str(path)]) == 0
    report = json.loads(path.read_text(encoding="utf-8"))
    report["suites"] = [s for s in report["suites"] if s["suite"] != "numeric"]
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_all_seed0_report_matches_golden(tmp_path):
    assert symbolic_report(tmp_path / "all.json") == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(symbolic_report(Path(tmp) / "all.json"), encoding="utf-8")
