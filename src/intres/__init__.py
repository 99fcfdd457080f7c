"""Exact computation of interval-relative Betti numbers of persistence
modules on finite posets, by two independent routes (minimal interval
resolutions and Koszul-type complexes), with interval-decomposability
testing and interval replacement."""

from intres.exactla import QQ, Field, Mat
from intres.poset import (
    BoundQuiver,
    Interval,
    Poset,
    cl_describe,
    cl_interval,
    cl_intervals,
    commutative_ladder,
    containment_poset,
    enumerate_intervals,
    ladder_length,
)
from intres.repmod import (
    BettiTable,
    CommutativityError,
    IntervalFamily,
    MaxLengthExceeded,
    ModMorphism,
    PersModule,
    cokernel,
    component_morphism,
    direct_sum,
    good_components,
    hom_basis,
    identity_morphism,
    interval_module,
    kernel,
    morphism_from_columns,
    zero_module,
)
from intres.approx import (
    is_right_interval_approximation,
    minimal_right_approximation,
)
from intres.resolve import (
    IntervalCoresolution,
    IntervalResolution,
    betti,
    cobetti,
    minimal_interval_coresolution,
    minimal_interval_resolution,
)
from intres.koszul import (
    IntervalCochain,
    LatticeModule,
    VecChain,
    betti_table_via_koszul,
    build_end_category,
    build_lattice_gauge,
    formal_koszul_coresolution,
    koszul_complex,
    koszul_coresolution,
    lattice_module_from_persistence,
    min_proj_resolution,
    semilattice_koszul_complex,
    validate_koszul_coresolution,
)
from intres.tda import (
    DecompositionResult,
    ReplacementVector,
    RouteMismatchError,
    compressed_multiplicity,
    interval_replacement,
    is_interval_decomposable,
    replacement_at,
)
from intres.modfile import (
    ModuleFileError,
    interval_dim_rendering,
    interval_name,
    parse_field_token,
    parse_interval_spec,
    parse_module_file,
    parse_module_text,
    render_dim_vector,
    render_ladder_vector,
    serialize_module,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
