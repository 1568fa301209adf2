"""Exception hierarchy with stable machine-readable codes, and the limits of the searches."""

import os


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


VAR_CAP = 12  # the default cap on a window's variables: every var_cap default, and --cap-vars

# The searches read these through the module when they start, so a test may lower them.
SPAIR_LIMIT = 500_000  # S-pairs per Buchberger run
BLOCK_FACE_CAP = 20_000  # faces per multidegree Koszul block


def search_budget() -> int:
    """The search budget: 200000, or HIBI_LAB_BUDGET, an integer of at least 1000, when set."""
    raw = os.environ.get("HIBI_LAB_BUDGET")
    if not raw:
        return 200_000
    if not raw.isdecimal() or int(raw) < 1000:
        raise InvalidParameter(f"HIBI_LAB_BUDGET must be an integer of at least 1000, got {raw!r}",
                               HIBI_LAB_BUDGET=raw)
    return int(raw)


def require_var_cap(var_cap: int | None) -> None:
    """InvalidParameter when var_cap is below 1; None means no cap."""
    if var_cap is not None and var_cap < 1:
        raise InvalidParameter(f"var_cap must be at least 1, got {var_cap}", var_cap=var_cap)


def check_var_cap(nvars: int, var_cap: int | None) -> None:
    """CapExceeded when nvars exceeds var_cap; None means no cap."""
    if var_cap is not None and nvars > var_cap:
        raise CapExceeded(f"{nvars} variables exceed cap {var_cap}", cap=var_cap, nvars=nvars)
