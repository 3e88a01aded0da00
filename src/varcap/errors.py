"""Exception hierarchy shared across the package."""


class VarcapError(Exception):
    """Base class for all errors raised by varcap."""


class DimensionMismatchError(VarcapError):
    """Vector or matrix dimensions do not agree."""


class NonFiniteInputError(VarcapError):
    """An input contains NaN or infinite entries."""


class AsymmetricMatrixError(VarcapError):
    """A matrix exceeds the allowed asymmetry tolerance."""


class InconsistentWitnessError(VarcapError):
    """Eigen-selection for the indefiniteness witness produced invalid signs."""


class MeshFormatError(VarcapError):
    """A mesh file could not be parsed."""


class NotWatertightError(VarcapError):
    """The surface is not closed: some edges do not border exactly two triangles.

    ``boundary_edges`` lists (vertex, vertex) index pairs used by fewer than
    two triangles; ``nonmanifold_edges`` lists pairs used by more than two.
    """

    def __init__(self, boundary_edges, nonmanifold_edges=()):
        self.boundary_edges = list(boundary_edges)
        self.nonmanifold_edges = list(nonmanifold_edges)
        parts = []
        if self.boundary_edges:
            parts.append(f"boundary edges {self.boundary_edges[:10]}")
        if self.nonmanifold_edges:
            parts.append(f"non-manifold edges {self.nonmanifold_edges[:10]}")
        super().__init__("surface is not watertight: " + "; ".join(parts))


class DegenerateTriangleError(VarcapError):
    """A triangle has (near-)zero area, or two panels have the same corners."""

    def __init__(self, indices, message=None):
        self.indices = list(indices)
        super().__init__(
            message or f"degenerate triangles at indices {self.indices[:10]}"
        )


class AssemblyError(NonFiniteInputError):
    """A Galerkin matrix A_h has a NaN or infinite entry."""


class SolveError(VarcapError):
    """The linear solve failed or did not converge."""


class ZeroTotalChargeError(VarcapError):
    """The Gauss functional is undefined: the trial density has zero total charge."""
