from fractions import Fraction

import pytest

from edsverify import structure
from edsverify.forms import wedge
from edsverify.structure import DATA_FILE, EdsParseError, parse_eds, serialize

HEADER = """frame A B C D
scalars lambda sigma
oneforms F G L S
nonzero lambda sigma mu+ mu- lambda3
"""


def shipped_text():
    from importlib import resources

    return resources.files("edsverify").joinpath("data", DATA_FILE).read_text()


def test_shipped_file_round_trips():
    text = shipped_text()
    assert serialize(parse_eds(text)) == text


def test_round_trip_stable_under_reparse():
    text = shipped_text()
    once = serialize(parse_eds(text))
    assert serialize(parse_eds(once)) == once


def test_macro_E_supported():
    text = HEADER + (
        "macro E = 1/2 S + 1/2 L\n"
        "d A = B^E + C^F + D^G\n"
    )
    sys_ = parse_eds(text)
    B, C, D, F, G, L, S = (sys_.one_form(n) for n in "BCDFGLS")
    E = (S + L).scale(Fraction(1, 2))
    assert sys_.d_rule("A") == wedge(B, E) + wedge(C, F) + wedge(D, G)


def test_scalar_coefficients_and_signs():
    text = HEADER + "d L = -lambda A^B - lambda C^D - 4 F^G\n"
    sys_ = parse_eds(text)
    lam = sys_.ctx.symbol("lam")
    rule = sys_.d_rule("L")
    assert rule.coefficient("A", "B") == -lam
    assert rule.coefficient("F", "G") == -4


def test_nonzero_atoms_registered():
    sys_ = parse_eds(shipped_text())
    assert sys_.nonzero == ("lam", "sig", "mu+", "mu-", "lam3")


def test_comments_and_blank_lines():
    text = "# header comment\n\n" + HEADER + "d S = -lambda A^B + lambda C^D  # trailing\n"
    sys_ = parse_eds(text)
    assert not sys_.d_rule("S").is_zero()


MALFORMED = [
    ("dangling wedge", HEADER + "d A = B^\n", 5, "dangling wedge"),
    ("missing equals", HEADER + "d A B^F\n", 5, "expected '='"),
    ("unknown 1-form", HEADER + "d A = B^Q\n", 5, "unknown 1-form"),
    ("degree mismatch", HEADER + "d A = B\n", 5, "degree"),
    ("unknown directive", HEADER + "twist A B\n", 5, "unknown directive"),
    ("rule for undeclared form", HEADER + "d Q = A^B\n", 5, "undeclared"),
    ("duplicate rule", HEADER + "d A = B^F\nd A = C^G\n", 6, "duplicate"),
    ("unknown nonzero atom", "frame A B C D\nscalars lambda sigma\noneforms F\nnonzero tau\n", 4, "unknown nonzero atom"),
    ("bad character", HEADER + "d A = B^F + ?\n", 5, "unexpected character"),
    ("empty expression", HEADER + "d A =\n", 5, "empty expression"),
    ("duplicate 1-form", "frame A B C D\noneforms F G L S F\n", 2, "declared twice"),
    ("1-form named as coframe", "frame A B C D\noneforms F G L S A\n", 2, "declared twice"),
    ("1-form named as scalar", "frame A B C D\noneforms F G L S lambda\n", 2, "named after a scalar"),
    ("zero denominator", HEADER + "d S = -lambda A^B + 1/0 C^D\n", 5, "zero denominator"),
]


@pytest.mark.parametrize("name,text,line,fragment", MALFORMED, ids=[m[0] for m in MALFORMED])
def test_malformed_inputs_are_located(name, text, line, fragment):
    with pytest.raises(EdsParseError) as err:
        parse_eds(text)
    assert err.value.line == line
    assert err.value.column >= 1
    assert fragment in str(err.value)


def test_dangling_wedge_column_points_past_caret():
    text = HEADER + "d A = B^\n"
    with pytest.raises(EdsParseError) as err:
        parse_eds(text)
    # the caret is at column 8; the report points at the missing operand
    assert err.value.column == 9


@pytest.mark.parametrize("word", ["lambd", "non"])
def test_unknown_nonzero_atom_column_is_where_the_word_starts(word):
    """The column is the unknown word's own start, not the first place its
    text occurs in the line (inside `lambda` or `nonzero`)."""
    with pytest.raises(EdsParseError) as err:
        parse_eds(f"frame A B C D\nnonzero lambda sigma {word}\n")
    assert (err.value.line, err.value.column) == (2, 22)


def test_shipped_file_and_eds_path_decode_alike(monkeypatch, tmp_path):
    """Both the shipped file and a given path are read as bytes and decoded
    by `_decode` (strict UTF-8, a bad byte located)."""
    decoded = []

    def spy(data):
        decoded.append(data)
        return real(data)

    real = structure._decode
    monkeypatch.setattr(structure, "_decode", spy)
    path = tmp_path / "copy.eds"
    path.write_text(shipped_text(), encoding="utf-8")
    assert serialize(structure.load_system()) == serialize(structure.load_system(str(path)))
    assert decoded == [path.read_bytes()] * 2


def test_missing_frame_reported():
    with pytest.raises(EdsParseError) as err:
        parse_eds("scalars lambda sigma\n")
    assert "frame" in str(err.value)


def test_load_system_default(system):
    assert system.basis.names == ("A", "B", "C", "D", "F", "G", "L", "S")
    assert set(system.d_rules) == set(system.basis.names)
