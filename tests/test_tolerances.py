"""The tolerance table is the only place a tolerance is written down."""

import io
import tokenize
from pathlib import Path

import rho_bounds
from rho_bounds import harness
from rho_bounds.tolerances import OVERRIDDEN_BY_TOL, TOLERANCES

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


def test_the_scan_sees_exponent_literals(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('x = 1e-9 + 2E5 + 0xE + 10**6  # 3e-3\ns = "4e-4"\n')
    assert _exponent_floats(path) == ["sample.py:1: 1e-9", "sample.py:1: 2E5"]


def test_values_pinned():
    assert TOLERANCES == {
        "soundness": 1e-9,
        "equality": 1e-6,
        "replay": 1e-9,
        "dominance": 1e-12,
        "comparator": 1e-9,
        "oracle": 1e-9,
        "tight": 1e-6,
        "oracle_tight": 1e-12,
        "power_step": 1e-12,
        "power_residual": 1e-9,
        "newton_step": 1e-14,
        "root_bracket": 1e-12,
        "root_enclosure": 1e-13,
    }
    assert OVERRIDDEN_BY_TOL == ("soundness", "equality", "replay")


def test_harness_reads_the_table():
    assert harness.TOLERANCES is TOLERANCES
