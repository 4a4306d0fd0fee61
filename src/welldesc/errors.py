"""Exception types shared across the toolkit."""


class WelldescError(Exception):
    """Base class for all toolkit errors."""


# -- table ingest and preparation -------------------------------------------

class MalformedFile(WelldescError):
    """Header or structural problem in an input file."""


class NonNumericCell(WelldescError):
    def __init__(self, line: int, column: str, text: str):
        super().__init__(f"line {line}, column {column!r}: cannot parse {text!r} as a number")
        self.line = line
        self.column = column
        self.text = text


class NonFiniteInput(WelldescError, ValueError):
    """A NaN or infinite value where every value must be finite."""


class EmptyResult(WelldescError):
    """An operation removed every row."""


class SingleRowWell(WelldescError):
    """A well has too few rows to interpolate."""


class UnknownWell(WelldescError):
    pass


class NoMinorityTrainingData(WelldescError):
    """No minority rows remain outside the held-out well."""


class EmptyRowSet(WelldescError):
    pass


class EmptyInput(WelldescError):
    pass


class InvalidConfig(WelldescError):
    """A parameter value outside its documented range."""


# -- kernels and trainers ----------------------------------------------------

class DimensionMismatch(WelldescError):
    pass


class InfeasibleCost(WelldescError):
    """Cost C outside [1/n, 1]; the dual constraint set would be empty."""


class EmptyTrainingSet(WelldescError):
    pass


class NonConvergence(WelldescError):
    def __init__(self, message: str, kkt_violation: float | None = None):
        super().__init__(message)
        self.kkt_violation = kkt_violation


class SingleClassInput(WelldescError):
    pass


class ConstantAllFeatures(WelldescError):
    pass


class InvalidK(WelldescError):
    pass


class SingularCovariance(WelldescError):
    pass


# -- evaluation ---------------------------------------------------------------

class LengthMismatch(WelldescError):
    pass


class UndefinedClassAccuracy(WelldescError):
    """A class is absent from the truth labels, so its accuracy has no value."""
