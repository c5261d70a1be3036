"""Every threshold a check or a solver compares against.

A leaf module that imports nothing from the package, so the solvers and the
harness can both read it.  Iteration caps and growth factors are counts, not
tolerances, and stay with their solvers.  A comparison the arithmetic
decides has no entry: dominance compares two floats that round one integer
excess each, and Newton stops when rounding stops its descent.
"""

TOLERANCES = {
    "soundness": 1e-9,        # rho <= phi_min + tol; rho <= max scaled row sum + tol
    "equality": 1e-6,         # level l is tight if |phi_l - rho| <= tol; also soundness's tight count
    "comparator": 1e-9,       # float steps of phi within tol count as ties
    "oracle": 1e-9,           # |power rho - charpoly rho| <= tol
    "oracle_tight": 1e-12,    # tight-instance count of the oracle
    "power_residual": 1e-9,   # Lanczos: residual to stop at and to accept, |Ay - rho y|_inf
    "root_enclosure": 1e-13,  # root isolation: first bracket step and the width to bisect down to
}

#: The entries ``--tol`` (``CampaignConfig.tol``) overrides.
OVERRIDDEN_BY_TOL = ("soundness", "equality")
