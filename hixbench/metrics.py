"""Aggregation helpers and the paper reference table for hixbench.

Kept apart from run.py so the benchmark's tests can check them without
building anything.
"""

import statistics

# Published HIX overhead over Gdev, in percent (HIX/Gdev - 1), from
# Sections 5.3.1 (Figure 6) and 5.3.2 (Figure 7) of the paper.
# The simulator's calibration (src/sim/platform_config.h) was fitted to
# these same figures, so paper_err_pp guards against drift away from
# them; it is not a held-out accuracy.
PAPER_OVERHEAD_PCT = {
    "add": 150.0,  # "about 2.5x slower"; compared with the mean of the four sizes
    "mul-11264": 6.34,
    "BP": 81.5,
    "NW": 70.1,
    "PF": 154.0,
    "rodinia-mean": 26.8,
}

RODINIA = ("BP", "BFS", "GS", "HS", "LUD", "NW", "NN", "PF", "SRAD")
MATRIX_ADD = ("add-2048", "add-4096", "add-8192", "add-11264")


def overhead_pct(ratio):
    return (ratio - 1.0) * 100.0


def _mean(values):
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def hix_overhead_pct(ratios):
    """Mean over the nine Rodinia apps of HIX/gdev - 1, in percent.
    `ratios` maps a fig-solo label to its HIX/gdev simulated-time
    ratio; an app whose call failed is left out."""
    return _mean(overhead_pct(ratios[a]) for a in RODINIA if a in ratios)


def paper_comparison(ratios):
    """[(label, simulated %, published %)] for every published value
    whose simulated counterpart ran."""
    sim = {k: overhead_pct(ratios[k])
           for k in ("mul-11264", "BP", "NW", "PF") if k in ratios}
    adds = [overhead_pct(ratios[k]) for k in MATRIX_ADD if k in ratios]
    if adds:
        sim["add"] = _mean(adds)
    if any(a in ratios for a in RODINIA):
        sim["rodinia-mean"] = hix_overhead_pct(ratios)
    return [(k, sim[k], p) for k, p in PAPER_OVERHEAD_PCT.items() if k in sim]


def paper_err_pp(ratios):
    """Mean absolute error, in percentage points, of the simulated HIX
    overheads against the published ones."""
    return _mean(abs(s - p) for _, s, p in paper_comparison(ratios))
