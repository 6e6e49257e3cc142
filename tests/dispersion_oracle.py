"""Full-table oracle for the dispersion first-crossing kernel.

The library never goes through this module. It is the kernel as it was
before the folded, blocked tabulation: it tabulates each real symbol on the
whole ray grid, one cosine table per stencil, and brackets each crossing by
the first nonnegative sample, then refines the bracket by halvings, so that
40 of them narrow it to below 1e-15.
:func:`rscgc.dispersion._first_crossings`, which returns snapped radii only,
must return what this oracle's radius rounds to on the ray grid.
"""

import numpy as np

from rscgc.dispersion import NoCrossingError, _ray_grid, _unit


def _first_crossings(lap, mass, masses, phi, steps):
    """First sign switch of symbol(lap) - m * symbol(mass) along phi, per mass m.

    The real symbols are tabulated on the ray grid r = 0, 1e-3, ..., about
    pi*sqrt(dim); the first nonnegative sample brackets each crossing, and
    `steps` halvings refine the bracket. Returns the final bracket midpoints.
    """
    u = _unit(lap.dim, phi)
    terms = [(s.offsets().astype(float) @ u, s.coeffs.ravel().real) for s in (lap, mass)]

    def symbols(r):
        return [np.cos(np.outer(r, proj)) @ coeffs for proj, coeffs in terms]

    masses = np.asarray(masses, dtype=float)
    grid = _ray_grid(lap.dim)
    sym_lap, sym_mass = symbols(grid)
    nonneg = sym_lap[None, :] - masses[:, None] * sym_mass[None, :] >= 0
    if np.any(nonneg[:, 0]):
        raise NoCrossingError(
            "no dispersion-relation crossing: the symbol is nonnegative at r = 0 "
            "(wavenumber too small for this stencil?)")
    if not np.all(nonneg.any(axis=1)):
        raise NoCrossingError(
            f"no dispersion-relation crossing for r in (0, {grid[-1]:g}] "
            f"(wavenumber too large for this stencil?)")
    first = nonneg.argmax(axis=1)
    lo, hi = grid[first - 1], grid[first]
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        sym_lap, sym_mass = symbols(mid)
        above = sym_lap - masses * sym_mass >= 0
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return 0.5 * (lo + hi)
