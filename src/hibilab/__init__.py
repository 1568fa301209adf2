"""Exact toolkit for rank-window subrings of planar distributive lattices."""

from .errors import (
    BudgetExceeded,
    CapExceeded,
    ChainConditionFails,
    DegreeInfeasible,
    Disconnected,
    HibiLabError,
    InvalidParameter,
    InvalidWindow,
    LatticeInvalid,
    MissingOrigin,
    NotConvex,
    NotJoinClosed,
    NotMeetClosed,
    ParseError,
    PreconditionFailed,
    RankTooSmall,
    VerificationFailed,
    WidthExceedsTwo,
)
from .lattice import (
    PlanarLattice,
    Poset,
    SimplicityReport,
    is_simple,
    join_irreducibles,
    poset_ideals_to_planar,
    posets_isomorphic,
    validate_planar_lattice,
)
from .windows import (
    BipartiteGraph,
    GeneratorSet,
    Polyomino,
    RankWindow,
    WindowContext,
    all_windows,
    as_context,
    bipartite_graph,
    check_convexity,
    dimension,
    generators,
    is_chordal_bipartite,
    polyomino,
)
from .binomials import (
    Binomial,
    GroebnerReport,
    MonomialOrder,
    WindowIdeal,
    WindowRing,
    buchberger,
    defining_ideal_generators,
    monomial_order,
    normal_form,
    toric_fiber_oracle,
    window_ideal,
)
from .betti import (
    BettiTable,
    betti_numbers,
    has_linear_resolution_oracle,
    hilbert_function,
    is_linearly_related_oracle,
    krull_dimension_via_initial,
)
from .classify import (
    ShapeProfile,
    WindowVerdict,
    all_proper_windows_linear,
    classify_window,
    enumerate_linrel_windows,
    has_linear_resolution_shape,
    is_linearly_related_lattice,
    is_linearly_related_polyomino,
    shape_profile,
    verify_window,
)
from ._version import __version__
from .render import render_figure
from .reports import (
    CorpusSpec,
    RunReport,
    demo_staircase,
    ell_lattice,
    full_grid,
    generate_corpus,
    lattice_from_columns,
    named_lattices,
    parse_input,
    run_suite,
)
