"""Every threshold a check or a solver compares against.

A leaf module that imports nothing from the package, so the solvers and the
harness can both read it.  Iteration caps and growth factors are counts, not
tolerances, and stay with their solvers.
"""

TOLERANCES = {
    "soundness": 1e-9,        # rho <= phi_min + tol; rho <= max scaled row sum + tol
    "equality": 1e-6,         # level l is numerically tight if |phi_l - rho| <= tol
    "dominance": 1e-12,       # phi_l <= shu_wu_l + tol
    "comparator": 1e-9,       # float steps of phi within tol count as ties
    "oracle": 1e-9,           # |power rho - charpoly rho| <= tol
    "tight": 1e-6,            # tight-instance count of soundness
    "oracle_tight": 1e-12,    # tight-instance count of the oracle
    "power_residual": 1e-9,   # Lanczos: residual to stop at and to accept, |Ay - rho y|_inf
    "newton_step": 1e-14,     # root isolation: Newton step to stop at
    "root_bracket": 1e-12,    # root isolation: first bracket step from Newton's point
    "root_enclosure": 1e-13,  # root isolation: enclosure width to bisect down to
}

#: The entries ``--tol`` (``CampaignConfig.tol``) overrides.
OVERRIDDEN_BY_TOL = ("soundness", "equality")
