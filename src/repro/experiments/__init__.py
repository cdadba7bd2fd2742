"""One runnable experiment per table/figure in the paper.

Every module exposes ``run(fast=False) -> ExperimentResult``; ``fast``
shrinks simulated durations for CI while preserving each experiment's
qualitative shape.  ``python -m repro.experiments <id>`` runs one from the
command line (ids: fig1, fig4, fig5, fig7, fig8, fig9, fig10, fig11,
fig12, fig13, table1).

The benchmark harness in ``benchmarks/`` wraps these same entry points
with pytest-benchmark and asserts the paper's qualitative claims on the
results.
"""

from repro._lazy import lazy_exports

# The helpers sit on the analysis package (numpy); the id tuples below
# are all the command-line parsers need.
__getattr__ = lazy_exports(__name__, {
    "repro.experiments.base": (
        "ExperimentResult",
        "arpanet_response_map",
        "arpanet_traffic",
        "equilibrium_reference_link",
    ),
})

__all__ = [
    "ExperimentResult",
    "arpanet_response_map",
    "arpanet_traffic",
    "equilibrium_reference_link",
]

#: The paper's own tables and figures.
PAPER_IDS = (
    "fig1",
    "fig4",
    "fig5",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "table1",
)

#: Extension experiments (beyond the paper's evaluation).
EXTENSION_IDS = (
    "evolution",
    "fluid",
    "flowcontrol",
    "milnet",
    "multipath",
)

#: Everything runnable via ``python -m repro.experiments <id>``.
EXPERIMENT_IDS = PAPER_IDS + EXTENSION_IDS
