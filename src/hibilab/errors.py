"""Exception hierarchy; every error carries a stable machine-readable code."""


class HibiLabError(Exception):
    """Base class for all toolkit errors."""

    code = "error"

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = details

    def payload(self):
        out = {"code": self.code, "message": str(self)}
        if self.details:
            out["details"] = {k: v for k, v in sorted(self.details.items())}
        return out


class LatticeInvalid(HibiLabError):
    code = "lattice-invalid"


class MissingOrigin(LatticeInvalid):
    code = "missing-origin"


class NotMeetClosed(LatticeInvalid):
    code = "not-meet-closed"


class NotJoinClosed(LatticeInvalid):
    code = "not-join-closed"


class ChainConditionFails(LatticeInvalid):
    code = "chain-condition-fails"


class WidthExceedsTwo(HibiLabError):
    code = "width-exceeds-two"


class InvalidWindow(HibiLabError):
    code = "invalid-window"


class InvalidParameter(HibiLabError, ValueError):
    """A parameter outside the supported range: a field, an order kind."""

    code = "invalid-parameter"


class DegreeInfeasible(HibiLabError):
    code = "degree-infeasible"


class BudgetExceeded(HibiLabError):
    code = "budget-exceeded"


class CapExceeded(HibiLabError):
    code = "cap-exceeded"


class RankTooSmall(HibiLabError):
    code = "rank-too-small"


class NotConvex(HibiLabError):
    code = "not-convex"


class Disconnected(HibiLabError):
    code = "disconnected"


class PreconditionFailed(HibiLabError):
    code = "precondition-failed"


class VerificationFailed(HibiLabError):
    """A broken invariant, or a cross-route disagreement that survived a second-prime rerun."""

    code = "verification-failed"


class ParseError(HibiLabError):
    code = "parse-error"


class LatticeNormalization(UserWarning):
    """Input lattice was translated so its bounding box anchors at the origin."""
