"""Structured errors shared by every module.

Every failure the toolkit can report is one of these; nothing fails
silently.  The CLI maps them to exit codes (see cli.EXIT_*).
"""


class ApincError(Exception):
    """Base class for all toolkit errors."""

    code = "error"

    def payload(self):
        return {"error": self.code, "message": str(self)}


class InvalidArgumentError(ApincError):
    code = "invalid-argument"


class PreconditionError(ApincError):
    code = "precondition-violated"


class BudgetExceededError(ApincError):
    code = "budget-exceeded"


class UnsupportedManifoldError(ApincError):
    code = "unsupported-manifold"


class CertificateError(ApincError):
    """Raised by the independent verifier with a machine-readable reason."""

    code = "verification-failed"

    def __init__(self, reason, message=""):
        super().__init__(message or reason)
        self.reason = reason

    def payload(self):
        return {"error": self.code, "reason": self.reason, "message": str(self)}


class IntegerRangeError(ApincError):
    """Progression arithmetic left the checked 64-bit range."""

    code = "integer-overflow"
