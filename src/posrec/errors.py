"""Exception types shared across the package, and the integer check that
every config reader applies."""

import numbers


class PosrecError(Exception):
    """Base class for every error this package raises on purpose."""


class UserError(PosrecError):
    """Bad input from the operator: config, flags, or data files. CLI exit 1."""


class DataFormatError(UserError):
    """Unparseable interaction or attribute file; carries the line number."""

    def __init__(self, path, line_no, reason):
        self.path = str(path)
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"{self.path}:{line_no}: {reason}")


class ShapeMismatchError(PosrecError):
    """Operands fed to an op do not line up."""

    def __init__(self, op, *shapes):
        self.op = op
        self.shapes = shapes
        pretty = " vs ".join(str(tuple(s)) for s in shapes)
        super().__init__(f"{op}: incompatible shapes {pretty}")


class GraphError(PosrecError):
    """Misuse of the autodiff graph, e.g. backward from a non-scalar."""


class TrainingDiverged(PosrecError):
    """Training loss became non-finite; names the epoch it happened at."""

    def __init__(self, epoch, detail=""):
        self.epoch = epoch
        msg = f"training diverged at epoch {epoch}"
        if detail:
            msg = f"{msg}: {detail}"
        super().__init__(msg)


def require_int(name: str, value) -> int:
    """`value` as an int; a float, bool or non-number raises UserError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise UserError(f"{name} must be an integer, got {value!r}")
    return int(value)
