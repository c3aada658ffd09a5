"""Single-term mutants of an EDS text.

A mutant changes one term of one ``d`` rule: its coefficient is doubled
("double") or its sign is flipped ("flip").  The generator works on the text
alone, so the mutants do not depend on the program's own serializer; every
mutant is then parsed with ``structure.parse_eds`` and compared with the
unmutated system, so a mutant that does not parse, or that parses to the
unmutated rule, stops the benchmark.
"""

from __future__ import annotations

import re
from fractions import Fraction

_NUMBER = re.compile(r"\d+(/\d+)?")
# A sign written against its operand ("-1/2", "-A^F") becomes its own token.
_ATTACHED_SIGN = re.compile(r"(?<!\S)([+-])(?=\S)")


def _split_terms(rhs: str) -> list:
    """``-1/2 A^L + sigma B^D`` -> [[-1, Fraction(1, 2), ["A^L"]], [1, 1, ["sigma", "B^D"]]]."""
    terms, sign, factors = [], 1, []
    for tok in _ATTACHED_SIGN.sub(r"\1 ", rhs).split():
        if tok in ("+", "-"):
            sign = -1 if tok == "-" else 1
            continue
        factors.append(tok)
        if "^" in tok:  # the wedge ends a term
            q = Fraction(1)
            if _NUMBER.fullmatch(factors[0]):
                q = Fraction(factors.pop(0))
            terms.append([sign, q, factors])
            sign, factors = 1, []
    if factors:
        raise ValueError(f"d-rule ends inside a term: {rhs!r}")
    return terms


def _join_terms(terms: list) -> str:
    parts = []
    for k, (sign, q, factors) in enumerate(terms):
        body = " ".join(([str(q)] if q != 1 else []) + factors)
        if k == 0:
            parts.append(("-" if sign < 0 else "") + body)
        else:
            parts.append(("- " if sign < 0 else "+ ") + body)
    return " ".join(parts)


def enumerate_mutants(text: str) -> list:
    """Every single-term double and sign-flip mutant of ``text``, in file
    order, as (label, mutant text) pairs."""
    lines = text.splitlines()
    out = []
    for lineno, line in enumerate(lines):
        if not line.startswith("d "):
            continue
        head, rhs = line.split("=", 1)
        terms = _split_terms(rhs)
        if f"{head}= {_join_terms(terms)}" != line:
            raise ValueError(f"line {lineno + 1} is not in the form the generator rewrites: {line!r}")
        for k in range(len(terms)):
            for kind in ("double", "flip"):
                mutated = [[sign, q, factors] for sign, q, factors in terms]
                if kind == "double":
                    mutated[k][1] *= 2
                else:
                    mutated[k][0] = -mutated[k][0]
                new_lines = lines[:lineno] + [f"{head}= {_join_terms(mutated)}"] + lines[lineno + 1:]
                label = f"{head.split()[1]}.{k + 1}.{kind}"
                out.append((label, "\n".join(new_lines) + "\n"))
    return out


def checked_mutants(text: str) -> list:
    """``enumerate_mutants`` after checking each one with ``parse_eds``: it
    must parse, and differ from the unmutated system in exactly one d-rule."""
    from edsverify.structure import parse_eds

    shipped = parse_eds(text).d_rules
    mutants = enumerate_mutants(text)
    for label, mutant_text in mutants:
        rules = parse_eds(mutant_text).d_rules
        changed = [name for name in shipped if rules[name] != shipped[name]]
        if changed != [label.split(".")[0]] or set(rules) != set(shipped):
            raise ValueError(f"mutant {label} changes d-rules {changed}, not exactly its own")
    return mutants
