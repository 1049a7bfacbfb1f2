"""Strong power graphs of finite groups: construction, exact characteristic
polynomials, closed-form spectra, and verification tooling."""

from .exactalg import (
    InexactDivision,
    IntegerGrowth,
    IntMatrix,
    IntPolynomial,
    NoClosedForm,
    adjacency_charpoly_formula,
    adjacency_cubic,
    adjacency_formula_factors,
    charpoly,
    charpoly_factors,
    closed_form,
    complete_graph_factors,
    distance_charpoly_formula,
    distance_cubic,
    distance_formula_factors,
    expand,
    prime_adjacency_charpoly,
    prime_adjacency_factors,
    same_product,
)
from .graphs import (
    DisconnectedGraph,
    SimpleGraph,
    adjacency_matrix,
    distance_matrix,
    is_complete,
    is_connected,
    matrix_to_csv,
    strong_power_graph,
    to_dot,
    to_json,
)
from .groups import (
    CayleyGroup,
    CayleyTableError,
    CyclicGroup,
    DihedralGroup,
    DirectProductGroup,
    GroupSpec,
    is_composite,
    is_prime,
    load_cayley_table,
    totient,
    validate_cayley_table,
)
from .spectra import (
    ClosedFormSpectrum,
    ComplexRoots,
    NoConvergence,
    NonSymmetric,
    SpectrumComparison,
    adjacency_spectrum_closed,
    closed_spectrum,
    compare_spectra,
    distance_spectrum_closed,
    solve_cubic_trig,
    symmetric_eigenvalues,
)
from .verify import Check, VerificationRecord, VerificationReport, verify_range

__version__ = "0.1.0"
