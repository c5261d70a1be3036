"""Every threshold a check or a solver compares against.

A leaf module that imports nothing from the package, so the solvers and the
harness can both read it.  Iteration caps and growth factors are counts, not
tolerances, and stay with their solvers.  A comparison the arithmetic
decides has no entry: dominance compares two floats that round one integer
excess each, Newton stops when rounding stops its descent, and soundness,
equality and oracle compare certified dyadic ends of rho with half-surds.
"""

TOLERANCES = {
    "comparator": 1e-9,       # float steps of phi within tol count as ties
    "power_residual": 1e-9,   # Lanczos: residual to stop at and to accept, |Ay - rho y|_inf
    "root_enclosure": 1e-13,  # root isolation: first bracket step and the width to bisect down to
}
