"""Exception hierarchy shared across the library.

Every exception carries a stable ``code`` string that the command line
front-end emits in structured error output.
"""


class LGError(Exception):
    """Base class for all library errors."""

    code = "Error"


class SingularMatrixError(LGError):
    code = "SingularMatrix"


class WeightOutOfRangeError(LGError):
    code = "WeightOutOfRange"


class NotInvertibleError(LGError):
    code = "NotInvertible"


class InputFileError(LGError):
    """A problem file that cannot be opened or is not UTF-8 text."""

    code = "IO"


class ParseError(LGError):
    code = "ParseError"

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)
        self.offset = offset


class DuplicateVariableError(ParseError):
    code = "DuplicateVariable"


class NotSquareError(LGError):
    code = "NotSquare"


class DimensionMismatchError(LGError):
    code = "DimensionMismatch"


class CapExceededError(LGError):
    code = "CapExceeded"


class NotAMemberError(LGError):
    code = "NotAMember"


class NotAPermutationError(LGError):
    code = "NotAPermutation"


class NotAGroupError(LGError):
    code = "NotAGroup"


class NotASymmetryError(LGError):
    code = "NotASymmetry"


class NotDiagonalError(LGError):
    code = "NotDiagonal"


class NotHKProductError(LGError):
    code = "NotHKProduct"


class OddPermutationError(LGError):
    code = "OddPermutation"


class NotPurePermutationsError(LGError):
    code = "NotPurePermutations"


class NotFermatError(LGError):
    code = "NotFermat"


class NotAdmissibleAError(LGError):
    code = "NotAdmissibleA"


class NotAdmissibleBError(LGError):
    code = "NotAdmissibleB"


class TheoremViolationError(LGError):
    code = "TheoremViolation"


class InternalError(LGError):
    code = "InternalError"
