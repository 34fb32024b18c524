"""Experiment harness regenerating every figure of the paper's evaluation.

One module per figure family:

* :mod:`repro.simulate.cache_sim` — Figure 2 (random I/Os per inserted
  document vs cache size, unmerged) and its merged-lists counterpart.
* :mod:`repro.simulate.merge_sim` — Figures 3(c)-3(i): workload-cost
  ratios under the merging strategies, learned-statistics variants, and
  per-query cost/slowdown distributions.
* :mod:`repro.simulate.jump_sim` — Figures 8(b) and 8(c): insert I/O with
  jump indexes and conjunctive query speedups.
* :mod:`repro.simulate.workload_factory` — shared, cached construction of
  the scaled synthetic workload all experiments run on.
* :mod:`repro.simulate.report` — plain-text table/series rendering used
  by the benchmark harness to print the regenerated figures.

Figure 4, the paper's check of the simulated cost against a real engine,
is not simulated here: ``benchmarks/test_fig4_measured_runtime.py``
builds merged and unmerged archives with
:class:`~repro.search.engine.TrustworthySearchEngine` and times its
``search()``.

Scale: defaults are deliberately smaller than the paper's 1M-document /
300k-query workload so the whole suite runs in minutes of pure Python;
every entry point takes explicit size parameters for full-scale runs.
The figures are ratio/shape-valued, which down-scaling preserves (see
EXPERIMENTS.md for the paper-vs-measured record).
"""

from repro.simulate.report import format_series, format_table

__all__ = ["format_series", "format_table"]
