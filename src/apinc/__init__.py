"""apinc: arithmetic-progression partitions, Gowers uniformity norms,
and a certificate-producing density-increment engine.

The package turns the classical density-increment dichotomy into
checkable artifacts: partitions of progressions on which polynomial
phases or nilsequences are almost constant, each shipped with
exhaustively verified diameter witnesses, and an increment engine whose
claimed density gains are re-proved in exact rational arithmetic before
being returned.  `apinc.oracle` holds independent brute-force
re-implementations used by the `apinc verify` command and the tests.
"""

from .engine import (
    APFound,
    Incremented,
    Inconclusive,
    density_increment_step,
    find_ap,
    szemeredi_search,
)
from .errors import (
    ApincError,
    BudgetExceededError,
    CertificateError,
    IntegerRangeError,
    InvalidArgumentError,
    PreconditionError,
    UnsupportedManifoldError,
)
from .gowers import (
    DenseSet,
    GroupFunction,
    InverseWitness,
    ap_count,
    balanced,
    catalog_inverse,
    gowers_norm,
    inverse_u2,
    lambda_k,
    von_neumann_check,
)
from .nil import (
    LipschitzFunction,
    Nilmanifold,
    PolySequence,
    lipschitz_catalog,
    partition_nilsequence,
)
from .oracle import brute_ap_count, brute_gowers, max_ap_free, verify_certificate
from .polyphase import (
    PolyPhase,
    diam_on,
    partition_polyphase,
)
from .progressions import PartitionCertificate, Progression, subdivide

__version__ = "0.1.0"

__all__ = [
    "APFound",
    "ApincError",
    "BudgetExceededError",
    "CertificateError",
    "DenseSet",
    "GroupFunction",
    "Incremented",
    "Inconclusive",
    "IntegerRangeError",
    "InvalidArgumentError",
    "InverseWitness",
    "LipschitzFunction",
    "Nilmanifold",
    "PartitionCertificate",
    "PolyPhase",
    "PolySequence",
    "PreconditionError",
    "Progression",
    "UnsupportedManifoldError",
    "ap_count",
    "balanced",
    "brute_ap_count",
    "brute_gowers",
    "catalog_inverse",
    "density_increment_step",
    "diam_on",
    "find_ap",
    "gowers_norm",
    "inverse_u2",
    "lambda_k",
    "lipschitz_catalog",
    "max_ap_free",
    "partition_nilsequence",
    "partition_polyphase",
    "subdivide",
    "szemeredi_search",
    "verify_certificate",
    "von_neumann_check",
]
