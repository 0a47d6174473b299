"""Set-up probe: time to import whitadd and make each evaluator's first call.

Run in a fresh interpreter by ``run.py`` (``python3 bench/setup_time.py
<workload>``); prints the CPU seconds spent on its last line (CPU time, as for
the points, because it is far steadier than wall time on a shared machine).
Only the standard library is imported before the clock starts, so the figure
includes loading numpy, scipy and mpmath through ``import whitadd``.  The
first-call inputs are cheap members of each workload's domain: the figure is
the fixed cost a fresh process pays, not the cost of a typical point.
"""

import sys
import time
from pathlib import Path

# the golden oracle options; identities_ext50 runs every verifier with them
EXT50 = {"rel_tol": 1e-45, "max_terms": 100_000, "precision": ("extended", 50)}


def _scalar_grid(w):
    w.kummer_m(0.5, 1.5, 2.0)
    w.kummer_u(0.5, 1.5, 2.0)
    w.whittaker_m((0.3, 0.5), 2.0)
    w.whittaker_w((0.3, 0.5), 2.0)


def _green_pairs(w):
    params = w.CoulombParams(1.0, 1.0)
    p, p0 = w.SphericalPoint(2.0, 1.0, 0.5), w.SphericalPoint(1.0, 2.0, 1.5)
    w.hostler_green(params, p, p0)
    w.partial_wave_green(params, p, p0)


def _identities_ext50(w):
    opts = w.SeriesOptions(**EXT50)
    w.verify_whittaker_addition(0.3, w.geometry_from(8.0, 0.5, 1.0), opts=opts)
    w.verify_gamma_zero(-0.7, 0.5, 8.0, opts=opts)
    w.verify_gamma_pi(0.3, 0.5, 8.0, opts=opts)
    w.verify_w_downward_sum(2, complex(0.3, 0.2), 1.0, 2.0, opts=opts)


FIRST_CALLS = {
    "scalar_grid": _scalar_grid,
    "green_pairs": _green_pairs,
    "identities_ext50": _identities_ext50,
}


def main(workload: str) -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.process_time()
    import whitadd

    FIRST_CALLS[workload](whitadd)
    print(time.process_time() - t0)


if __name__ == "__main__":
    main(sys.argv[1])
