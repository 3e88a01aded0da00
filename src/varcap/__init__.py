"""Boundary-element capacitance solver and max-quotient principle toolkit."""

from .bem import (
    GalerkinSystem,
    SpdReport,
    assemble,
    spd_check,
    triangle_potential,
    triangle_potentials,
)
from .capacitance import (
    BoundLedger,
    ChargeSolution,
    bound_ledger,
    gauss_functional,
    rayleigh_bound,
    solve_capacitance,
    subspace_bound,
    zeroth_capacitance,
)
from .geometry import (
    PanelSystem,
    SurfaceMesh,
    build_panels,
    load_mesh,
    make_cube,
    make_ellipsoid,
    make_icosphere,
    save_obj,
    save_stl,
)
from .varprinciple import (
    IndefinitenessWitness,
    PrincipleReport,
    QuotientValue,
    SymmetricForm,
    classify,
    find_witness,
    quotient,
    verify_principle,
)

__version__ = "0.1.0"
