"""Per-layer split of one solve, recorded from outside the library.

The traced pass replaces, for the length of one operation, the module
attributes of ``rscgc.multigrid`` that ``build_hierarchy`` and ``cycle`` look
up at call time, and wraps the ``apply_A``/``apply_M`` callables handed to
``fgmres``. Each wrapper adds its wall time and one call to a named counter
and passes arguments and results through untouched, so a traced solve is
bitwise identical to an untraced one. A name that no longer exists in the
library is skipped, and the metrics derived from it go missing instead of
failing the run.
"""

import time
from collections import defaultdict
from contextlib import contextmanager

from rscgc import multigrid

# module attribute of rscgc.multigrid -> counter it feeds
PATCHED = {
    "assemble_operator": "discretization.assemble",
    "transfer_matrices": "multigrid.transfer_build",
    "_coarsen": "multigrid.galerkin",
    "_factorize": "multigrid.factorize",
    "coarse_solve": "multigrid.coarse_solve",
    "jacobi_smooth": "multigrid.smooth",
}

# remainder metric -> (parent counter, child counters); the parent is the
# operation's own build_hierarchy or fgmres time, or the apply_M wrapper
REMAINDERS = {
    "multigrid.setup_other_s": (
        "build_hierarchy", ("discretization.assemble", "multigrid.transfer_build",
                            "multigrid.galerkin", "multigrid.factorize")),
    "multigrid.cycle_other_s": (
        "multigrid.cycle", ("multigrid.smooth_fine", "multigrid.smooth_mid",
                            "multigrid.coarse_solve")),
    "krylov.overhead_s": ("fgmres", ("krylov.apply_A", "multigrid.cycle")),
}


class LayerTrace:
    """Wall time and call count per counter for one traced operation."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.installed = set()
        self.fine_level = None      # set once the hierarchy exists
        self.lu_fill_nnz = None
        self.fine_nnz = None

    def timed(self, key, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[key] += time.perf_counter() - start
                self.calls[key] += 1
        self.installed.add(key)
        return wrapper

    def _wrap(self, name, fn):
        key = PATCHED[name]
        if name == "jacobi_smooth":
            fine = self.timed(f"{key}_fine", fn)
            mid = self.timed(f"{key}_mid", fn)

            def smooth(level, *args, **kwargs):
                return (fine if level is self.fine_level else mid)(level, *args, **kwargs)
            return smooth
        timed = self.timed(key, fn)
        if name == "assemble_operator":
            def assemble(*args, **kwargs):
                operator = timed(*args, **kwargs)
                self.fine_nnz = int(operator.matrix.nnz)
                return operator
            return assemble
        if name == "_factorize":
            def factorize(*args, **kwargs):
                lu = timed(*args, **kwargs)
                if hasattr(lu, "L") and hasattr(lu, "U"):
                    self.lu_fill_nnz = int(lu.L.nnz + lu.U.nnz)
                return lu
            return factorize
        return timed

    @contextmanager
    def patched(self):
        """Install the module wrappers; restore the originals on exit."""
        originals = {name: getattr(multigrid, name) for name in PATCHED
                     if hasattr(multigrid, name)}
        try:
            for name, fn in originals.items():
                setattr(multigrid, name, self._wrap(name, fn))
            yield self
        finally:
            for name, fn in originals.items():
                setattr(multigrid, name, fn)

    def record(self, key, seconds):
        """Add a span the operation timed itself (build_hierarchy, fgmres)."""
        self.seconds[key] += seconds
        self.installed.add(key)

    def metrics(self):
        """Per-layer seconds, call counts and remainders of this operation."""
        out = {}
        for key in sorted(self.installed):
            out[f"{key}_s"] = self.seconds[key]
            out[f"{key}_calls"] = self.calls[key]
        for name, (parent, children) in REMAINDERS.items():
            if parent in self.installed and self.installed.issuperset(children):
                out[name] = self.seconds[parent] - sum(self.seconds[c] for c in children)
        if self.lu_fill_nnz is not None:
            out["multigrid.lu_fill_nnz"] = self.lu_fill_nnz
        if self.fine_nnz is not None:
            out["discretization.fine_nnz"] = self.fine_nnz
        return out
