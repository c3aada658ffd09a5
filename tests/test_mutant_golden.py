"""Rejection-path gate: `all --eds <mutant>` exits 1 and writes, numeric suite
excluded, the committed golden report byte for byte.

The two mutants change one term of one `d` rule: `F.1.double` doubles the
first coefficient of `d F`, `L.1.flip` flips the sign of the first term of
`d L`.  Their reports carry multi-term residual polynomials, so the monomial
order and the normal form of localized fractions show in the bytes.  The
numeric suite is dropped for the reason given in `test_report_golden.py`.
After an intended report change, regenerate the golden files with
`python tests/test_mutant_golden.py`.
"""

import json
from pathlib import Path

import pytest

from edsverify.cli import main

DATA = Path(__file__).parent / "data"
MUTANTS = ("F.1.double", "L.1.flip")


def rejected_report(eds: Path, path: Path) -> str:
    """`all --eds eds` written to `path`, without the numeric suite, in the
    CLI's own JSON layout; the run must reject the system."""
    assert main(["all", "--eds", str(eds), "--json", str(path)]) == 1
    report = json.loads(path.read_text(encoding="utf-8"))
    assert report["overall"] == "fail"
    report["suites"] = [s for s in report["suites"] if s["suite"] != "numeric"]
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("label", MUTANTS)
def test_mutant_report_matches_golden(label, tmp_path):
    golden = (DATA / f"mutant-{label}.symbolic.json").read_text(encoding="utf-8")
    assert "residual" in golden
    assert rejected_report(DATA / f"mutant-{label}.eds", tmp_path / "all.json") == golden


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for label in MUTANTS:
            report = rejected_report(DATA / f"mutant-{label}.eds", Path(tmp) / "all.json")
            (DATA / f"mutant-{label}.symbolic.json").write_text(report, encoding="utf-8")
