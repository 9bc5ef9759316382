"""Helpers shared by test modules."""

from tfslab.forward import solve_modal


def node_samples(c0, src, table):
    """The solution from the initial coefficients ``c0`` and the source
    ``src`` on the table's grid nodes, one row per grid time."""
    return solve_modal(c0, src, table).T @ table.eig.phis
