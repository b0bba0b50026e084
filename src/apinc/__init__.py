"""apinc: arithmetic-progression partitions, Gowers uniformity norms,
and a certificate-producing density-increment engine.

The package turns the classical density-increment dichotomy into
checkable artifacts: partitions of progressions on which polynomial
phases or nilsequences are almost constant, each shipped with
exhaustively verified diameter witnesses, and an increment engine whose
claimed density gains are re-proved in exact rational arithmetic before
being returned.  `apinc.oracle` holds independent brute-force
re-implementations used by the `apinc verify` command and the tests.

Importing the package loads only `errors`.  Every other exported name,
and every module that owns one, is imported when it is first read, so a
command loads only the modules it runs: the phase channel never loads
numpy.
Resolved names are not stored here, so `apinc.name` always reads the
owning module's current attribute, also while that attribute is
patched.
"""

import importlib

from .errors import (
    ApincError,
    BudgetExceededError,
    CertificateError,
    IntegerRangeError,
    InvalidArgumentError,
    PreconditionError,
    UnsupportedManifoldError,
)

__version__ = "0.1.0"

# exported name -> the module that defines it
_OWNER = {
    name: module
    for module, names in {
        "engine": "APFound Incremented Inconclusive density_increment_step find_ap szemeredi_search",
        "gowers": "DenseSet GroupFunction InverseWitness ap_count balanced catalog_inverse"
        " gowers_norm inverse_u2 lambda_k von_neumann_check",
        "nil": "LipschitzFunction Nilmanifold PolySequence lipschitz_catalog partition_nilsequence",
        "oracle": "brute_ap_count brute_gowers max_ap_free verify_certificate",
        "polyphase": "PolyPhase partition_polyphase",
        "progressions": "PartitionCertificate Progression subdivide",
    }.items()
    for name in names.split()
}

__all__ = sorted(
    [
        "ApincError",
        "BudgetExceededError",
        "CertificateError",
        "IntegerRangeError",
        "InvalidArgumentError",
        "PreconditionError",
        "UnsupportedManifoldError",
        *_OWNER,
    ]
)


def __getattr__(name):
    """An exported name, read from its owning module, or one of those
    modules itself; each is imported on first use (PEP 562)."""
    if name in _OWNER.values():
        return importlib.import_module(f".{name}", __name__)
    try:
        module = _OWNER[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    """The package's globals, every exported name and the modules that
    own them, also those not yet imported."""
    return sorted({*globals(), *__all__, *_OWNER.values()})
