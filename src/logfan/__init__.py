"""logfan: combinatorial calculators for logarithmic geometry.

Fine-saturated monoids and their pushouts, generalized cone complexes
(combinatorial Artin fans) with products and subdivisions, log Hodge tables
for desk-scale log-smooth models, and exact log Hochschild / periodic cyclic
/ orbifold homology tables built on top of them.
"""

from .errors import (FormatUnavailable, InternalInvariant, KindMismatch,
                     LogfanError, NotAFan, NotComplete, NotFirm,
                     NotSaturated, NotSimplicial,
                     NotStronglyConvex, ParseError, RayOutsideSupport,
                     ScopeExceeded, SeriesNotSupported,
                     UnknownOperation, UnresolvedReference)
from .lattice import (FgAbelianGroup, IntMatrix, SmithDecomposition, cokernel,
                      saturate_subgroup, smith_normal_form)
from .monoid import (FineMonoid, MonoidHom, SaturationReport, fs_pushout,
                     hilbert_basis, is_saturated, saturate,
                     spec_component_count)
from .conecomplex import (Cone, ComplexMorphism, FaceMap,
                          GeneralizedConeComplex, Subdivision,
                          diagonal_morphism, from_toric_fan, is_isomorphic,
                          nodal_cubic_complex, point_complex, product,
                          snc_artin_fan, star_subdivision, subdivide_along,
                          subdivide_along_diagonal)
from .logmodel import (DEFAULT_TRUNCATION, GradedEntry, HodgeTable, LogModel,
                       affine_space_model, marked_p1, mixed_affine,
                       nodal_cubic, p1_toric_model, p2_toric_model,
                       point_model, product_model, subdivided_model,
                       toric_model)
from .hkr import (CyclicTable, HHTable, LogDiagonalPicture, euler_check,
                  hh_cohomology, hh_homology, log_diagonal, periodic_cyclic)
from .orbifold import (DiagonalAction, TwistedSector, check_firm, orbifold_hh,
                       twisted_sector)
from .suite import run_paper_suite

__version__ = "0.1.0"
