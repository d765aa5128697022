"""Exact arithmetic for the numerical semigroup of a Seifert rational homology sphere.

The package computes, over exact rationals only: star-shaped plumbing
graphs and their intersection lattices, generalized Laufer computation
sequences, the quasi-linear function N and the semigroup/module pair it
cuts out, Frobenius numbers both by brute force and by closed lattice
formulas, Apery sets, minimal generators, Brieskorn-Hamm recognition, and
the one-leg augmentation machinery tying the two Frobenius problems
together.
"""

from .augment import AugmentedPair, augment, c_n, verify_prop_comp, zk_identity_check
from .brieskorn import BHClassification, bh_generators, bh_seifert, classify
from .errors import TrivialSemigroupError, VerificationError
from .lattice import (
    RationalCycle,
    StarGraph,
    build_graph,
    canonical_cycle,
    chi,
    class_rep,
    cycle,
    dual_cycle,
    group_order,
    is_antinef,
    is_negative_definite,
    pairing,
    unit_cycle,
    zero_cycle,
)
from .laufer import (
    LauferScalars,
    XSeries,
    dual_check,
    frobenius_module,
    scalars,
    to_antinef,
    x_series,
)
from .seifert import (
    SeifertData,
    SeifertInvariants,
    geometric_genus,
    ihs_from_alphas,
    invariants,
    is_numerically_gorenstein,
    is_rational_link,
    quasilinear,
    tau_sequence,
)
from .semigroup import (
    AperyData,
    Link,
    PoincareData,
    StronglyFlatReport,
    SymmetryReport,
    apery_selmer,
    end_projection_generators,
    frobenius_bruteforce,
    frobenius_by_formula,
    gorenstein_symmetry_check,
    ihs_generators,
    min_module,
    minimal_generators,
    monoid_sieve,
    poincare,
    strongly_flat_check,
    symmetry_report,
)

__version__ = "0.1.0"
