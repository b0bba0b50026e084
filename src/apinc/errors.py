"""Structured errors shared by every module.

Every failure the toolkit can report is one of these; nothing fails
silently.  The CLI maps them to exit codes (see cli.EXIT_*).  Every
work-budget check goes through `charge`.
"""

import os

DEFAULT_BUDGET = 10**9


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


def work_budget():
    """The work budget: APINC_BUDGET, an integer, or 10^9 when unset."""
    text = os.environ.get("APINC_BUDGET")
    if text is None:
        return DEFAULT_BUDGET
    try:
        return int(text)
    except ValueError:
        raise InvalidArgumentError(f"APINC_BUDGET must be an integer, got {text!r}") from None


def charge(cost, what):
    """Refuse, before the work is done, `what` when its modelled cost
    exceeds the work budget."""
    budget = work_budget()
    if cost > budget:
        raise BudgetExceededError(f"{what} needs {cost} work units > budget {budget}")


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
