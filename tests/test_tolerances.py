"""The two solver stops in ``spectral_oracle`` are the only tolerances.

POWER_RESIDUAL and ROOT_ENCLOSURE are the table: every exponent literal of
the package is written there, and no verdict reads one, since the sequence
checks compare exact surd pairs and the graph checks certified ends.
"""

import io
import tokenize
from pathlib import Path

import rho_bounds
from rho_bounds import harness, spectral_oracle
from rho_bounds.spectral_oracle import POWER_RESIDUAL, ROOT_ENCLOSURE

PACKAGE = Path(rho_bounds.__file__).parent
TABLE = ("POWER_RESIDUAL", "ROOT_ENCLOSURE")


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


def _names(path: Path) -> list[str]:
    """Every name token of a module, in order, repeats kept."""
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    return [tok.string for tok in tokens if tok.type == tokenize.NAME]


def test_no_exponent_literal_outside_the_table():
    sources = sorted(PACKAGE.glob("*.py"))
    assert not (PACKAGE / "tolerances.py").exists()
    found = [
        hit for path in sources if path.name != "spectral_oracle.py"
        for hit in _exponent_floats(path)
    ]
    assert found == []
    table = _exponent_floats(PACKAGE / "spectral_oracle.py")
    assert [hit.split(": ")[1] for hit in table] == ["1e-9", "1e-13"]


def test_every_entry_is_read_by_name():
    # a tolerance the solvers never name past its definition decides nothing
    names = _names(PACKAGE / "spectral_oracle.py")
    assert [names.count(name) > 1 for name in TABLE] == [True, True]


def test_the_scan_sees_exponent_literals(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('x = 1e-9 + 2E5 + 0xE + 10**6  # 3e-3\ns = "4e-4"\n')
    assert _exponent_floats(path) == ["sample.py:1: 1e-9", "sample.py:1: 2E5"]


def test_values_pinned():
    assert (POWER_RESIDUAL, ROOT_ENCLOSURE) == (1e-9, 1e-13)


def test_harness_and_bounds_read_no_tolerance():
    # the checks and the bounds decide in integers: neither module names a
    # solver stop or a TOLERANCES table
    for module in ("harness.py", "bounds.py"):
        names = set(_names(PACKAGE / module))
        assert names.isdisjoint({*TABLE, "TOLERANCES"}), module
    assert not hasattr(harness, "TOLERANCES")
    assert not hasattr(spectral_oracle, "TOLERANCES")
