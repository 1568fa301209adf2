"""Test-side constructors and views of the window objects of hibilab.

The package builds these objects from a lattice and a window; the tests
also build them by hand (a polyomino from a set of cells) or read them
another way (a graph's adjacency as sets, a window's ring alone).
"""

from hibilab.windows import Polyomino, as_context


def ring_for_window(lattice, window):
    """The WindowRing of the window (or a WindowContext of lattice)."""
    return as_context(lattice, window).ring


def sparse_term(mono) -> tuple:
    """The dense monomial as a sorted tuple of variable indices, one per unit
    of exponent, the term form order_search takes: y_0 y_2^2 is (0, 2, 2)."""
    return tuple([k for k, e in enumerate(mono) for _ in range(e)])


def polyomino_from_cells(cells) -> Polyomino:
    """The polyomino of the cells, each named by its lower-left corner."""
    return Polyomino(cells=frozenset(tuple(c) for c in cells))


def left_adj(graph):
    """The right neighbours of each left vertex s_0..s_m of a BipartiteGraph, as sets."""
    adj = {i: set() for i in range(graph.m + 1)}
    for i, j in graph.edges:
        adj[i].add(j)
    return adj


def right_adj(graph):
    """The left neighbours of each right vertex t_0..t_n of a BipartiteGraph, as sets."""
    adj = {j: set() for j in range(graph.n + 1)}
    for i, j in graph.edges:
        adj[j].add(i)
    return adj
