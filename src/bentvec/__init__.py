"""bentvec: construct and exhaustively verify vectorial bent functions.

Exact-arithmetic toolkit for Boolean and vectorial functions over
GF(2^n), n <= 24: Walsh spectra by fast transform, duals, derivatives,
the second-derivative property (P_tau), and the Kasami, Niho and
Gold-like families of vectorial bent and plateaued functions, each
verified claim-by-claim against its full Walsh spectrum.
"""

from .boolfun import (
    BooleanFunction,
    Classification,
    WalshSpectrum,
    classify,
    fwht,
    sigma_of,
)
from .constructions import (
    BentConstruction,
    ConstructionReport,
    FamilyResult,
    TrichotomyResult,
    bent_plus_cubic_trace,
    bent_plus_quadratic_trace,
    gold_auto_u,
    gold_family,
    kasami_auto_u,
    kasami_family,
    niho_auto_u,
    niho_exponents,
    niho_family,
    remark_multi_trace,
    sigma_combine,
    tang_bent,
    vec_bent_lift,
    vec_plateaued_lift,
    vectorial_class_string,
)
from .errors import (
    BentvecError,
    FieldError,
    NotBentError,
    ParseError,
    PreconditionError,
    VerificationError,
)
from .gf2n import PRIMITIVE_POLYNOMIALS, FieldSpec, f2_is_independent, f2_rank, f2_span
from .propp import (
    PropertyCheck,
    ShiftCheck,
    find_defining_sets,
    product_shift,
    satisfies_p,
    shift_decomposition,
    span_closure,
)
from .redpoly import DefiningSet, ReducedPolynomial
from .vectorial import (
    BentnessCheck,
    PlateauedCheck,
    VectorialFunction,
    max_bent_components_bound,
)

__version__ = "0.1.0"

__all__ = [
    "BentConstruction",
    "BentnessCheck",
    "BentvecError",
    "BooleanFunction",
    "Classification",
    "ConstructionReport",
    "DefiningSet",
    "FamilyResult",
    "FieldError",
    "FieldSpec",
    "NotBentError",
    "ParseError",
    "PlateauedCheck",
    "PreconditionError",
    "PRIMITIVE_POLYNOMIALS",
    "PropertyCheck",
    "ReducedPolynomial",
    "ShiftCheck",
    "TrichotomyResult",
    "VectorialFunction",
    "VerificationError",
    "WalshSpectrum",
    "bent_plus_cubic_trace",
    "bent_plus_quadratic_trace",
    "classify",
    "f2_is_independent",
    "f2_rank",
    "f2_span",
    "find_defining_sets",
    "fwht",
    "gold_auto_u",
    "gold_family",
    "kasami_auto_u",
    "kasami_family",
    "max_bent_components_bound",
    "niho_auto_u",
    "niho_exponents",
    "niho_family",
    "product_shift",
    "remark_multi_trace",
    "satisfies_p",
    "shift_decomposition",
    "sigma_combine",
    "sigma_of",
    "span_closure",
    "tang_bent",
    "vec_bent_lift",
    "vec_plateaued_lift",
    "vectorial_class_string",
]
