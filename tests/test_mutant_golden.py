"""Rejection-path gate: `all --eds <mutant>` exits 1 and writes, numeric suite
excluded, the committed golden report byte for byte.

The two mutants change one term of one `d` rule: `F.1.double` doubles the
first coefficient of `d F`, `L.1.flip` flips the sign of the first term of
`d L`.  Their reports carry multi-term residual polynomials, so the monomial
order and the normal form of localized fractions show in the bytes.  The
numeric suite is dropped for the reason given in `test_report_golden.py`.

The report of every one of the 54 mutants of `data/mutants.tsv` is pinned
by its SHA-256 in `data/mutant-reports.sha256`, one `label  digest` line
each, in the order of `mutants.tsv`.

After an intended report change, regenerate the golden files and the
digests with `python tests/test_mutant_golden.py`.
"""

import hashlib
import json
from pathlib import Path

import pytest

from edsverify.cli import main
from test_derivation import MUTANTS as RULE_MUTANTS, mutant_text

DATA = Path(__file__).parent / "data"
MUTANTS = ("F.1.double", "L.1.flip")
DIGESTS = DATA / "mutant-reports.sha256"


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


def report_digests(tmp: Path) -> list:
    """`label  sha256` of each mutant's `rejected_report`, in mutants.tsv order."""
    eds = tmp / "system.eds"
    lines = []
    for label in RULE_MUTANTS:
        eds.write_text(mutant_text(label), encoding="utf-8")
        report = rejected_report(eds, tmp / "all.json")
        lines.append(f"{label}  {hashlib.sha256(report.encode('utf-8')).hexdigest()}")
    return lines


def test_every_mutant_report_matches_its_digest(tmp_path):
    assert report_digests(tmp_path) == DIGESTS.read_text(encoding="utf-8").splitlines()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for label in MUTANTS:
            report = rejected_report(DATA / f"mutant-{label}.eds", Path(tmp) / "all.json")
            (DATA / f"mutant-{label}.symbolic.json").write_text(report, encoding="utf-8")
        lines = report_digests(Path(tmp))
    DIGESTS.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
