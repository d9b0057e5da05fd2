"""Central numerical tolerances and the network size limit.

These are plain module constants.  Code reads them as ``config.NAME`` at
call time, so a test can monkeypatch one for the duration of a call.
"""

#: tolerance for ordinary floating point arithmetic checks (row sums,
#: normalization of probability vectors, ...)
ARITHMETIC_TOL: float = 1e-12

#: tolerance for structural identities (invariant measure, detailed balance,
#: link-operator row sums)
STRUCTURAL_TOL: float = 1e-10

#: tolerance for residuals of solved linear systems (Green's function,
#: Schur complements, hitting times)
RESIDUAL_TOL: float = 1e-9

#: largest vertex count a Network accepts; the GTH measure, the spectral
#: laws, the forest determinants, sparsification and the intertwining
#: residual still form a dense n x n matrix, so larger networks are
#: refused with InvalidParams
MAX_VERTICES: int = 4096

#: largest number of walk steps a sampling run may need, on the lower bound
#: of sampler.check_step_budget; a run that needs more is refused before
#: its first draw (at a few million steps per second, 1e12 steps take days)
MAX_WALK_STEPS: float = 1e12

#: relative floor used when deciding that a Gram matrix is singular
GRAM_SINGULAR_REL: float = 1e-14

#: clamping window: probabilities within this distance outside [0, 1] are
#: snapped back for reporting
PROB_CLAMP_TOL: float = 1e-9
