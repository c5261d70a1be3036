"""The tolerance table is the only place a tolerance is written down."""

import ast
import io
import tokenize
from pathlib import Path

import rho_bounds
from rho_bounds import harness
from rho_bounds.tolerances import TOLERANCES

PACKAGE = Path(rho_bounds.__file__).parent


def _exponent_floats(path: Path) -> list[str]:
    """Every float literal written in exponent form (``1e-9``, ``2E5``)."""
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    return [
        f"{path.name}:{tok.start[0]}: {tok.string}"
        for tok in tokens
        if tok.type == tokenize.NUMBER
        and not tok.string.lower().startswith(("0x", "0b", "0o"))
        and "e" in tok.string.lower()
    ]


def test_no_exponent_literal_outside_the_table():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "tolerances.py" in sources
    found = [
        hit for path in sources if path.name != "tolerances.py"
        for hit in _exponent_floats(path)
    ]
    assert found == []


def _string_literals(path: Path) -> set[str]:
    """The value of every plain string literal in a module."""
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    return {
        ast.literal_eval(tok.string) for tok in tokens
        if tok.type == tokenize.STRING and tok.string[0] in "'\""
    }


def test_every_entry_is_read_by_name():
    # a tolerance no module names outside the table decides nothing
    names = set().union(*(
        _string_literals(path) for path in PACKAGE.glob("*.py") if path.name != "tolerances.py"
    ))
    assert sorted(TOLERANCES.keys() - names) == []


def test_the_scan_sees_string_literals(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('a = tols["oracle"] + t[\'equality\']  # "dominance"\nb = f"{x}"\n')
    assert _string_literals(path) == {"oracle", "equality"}


def test_the_scan_sees_exponent_literals(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('x = 1e-9 + 2E5 + 0xE + 10**6  # 3e-3\ns = "4e-4"\n')
    assert _exponent_floats(path) == ["sample.py:1: 1e-9", "sample.py:1: 2E5"]


def test_values_pinned():
    assert TOLERANCES == {
        "comparator": 1e-9,
        "power_residual": 1e-9,
        "root_enclosure": 1e-13,
    }


def test_harness_reads_the_table():
    assert harness.TOLERANCES is TOLERANCES
