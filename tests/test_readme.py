import math
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_python_api_block():
    # the README's Python API block runs, and the values its comments
    # state hold
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    names = {}
    exec(block, names)
    g, seq, phis = names["g"], names["seq"], names["phis"]
    assert seq.degrees == (2, 2, 1, 1)
    assert names["phi"](seq, 3) == math.sqrt(3)
    assert (phis.pivot, phis.argmin_levels) == (3, {3, 4})
    assert names["classify_equality"](seq).kind == "None"
    assert abs(names["spectral_radius_power"](g).rho - (1 + math.sqrt(5)) / 2) <= 1e-12
    assert names["row_sums_scaled"](g, 3).slacks == (0, 0, 1, 1)
