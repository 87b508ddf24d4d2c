"""Exceptions shared by all descry modules, and the report the CLI writes
for any error.

An error may carry the operation it refused. Its module is read from its
traceback: `error_report` names the descry module whose code raised it.
"""


def error_report(exc, operation=""):
    """{"error", "module", "operation", "message"} for a raised exception.

    `module` is the innermost descry module on the traceback (None when
    no descry code raised it); `operation` is the error's own when it
    states one, else the one given."""
    module = None
    tb = exc.__traceback__
    while tb is not None:
        name = tb.tb_frame.f_globals.get("__name__", "")
        if name.startswith("descry."):
            module = name[len("descry."):]
        tb = tb.tb_next
    return {"error": type(exc).__name__, "module": module,
            "operation": getattr(exc, "operation", "") or operation, "message": str(exc)}


class DescryError(Exception):
    """Base class for all descry errors."""

    operation = ""

    def __init__(self, message, operation=""):
        super().__init__(message)
        if operation:
            self.operation = operation


# -- data ------------------------------------------------------------------

class MissingColumn(DescryError):
    pass


class TypeMismatch(DescryError):
    pass


class EmptyFile(DescryError):
    pass


class UnknownFeature(DescryError):
    pass


class NonNumericFeature(DescryError):
    pass


class DegenerateSplit(DescryError):
    pass


class IndexOutOfRange(DescryError):
    pass


# -- phenomenon ------------------------------------------------------------

class UnsupportedCombination(DescryError):
    pass


# -- models ----------------------------------------------------------------

class SingularDesign(DescryError):
    pass


class IncompatibleLoss(DescryError):
    pass


class SchemaMismatch(DescryError):
    pass


# -- descriptors -----------------------------------------------------------

class AllGroupsEmpty(DescryError):
    pass


class OffSupportInstance(DescryError):
    pass


class TooManyFeaturesForExact(DescryError):
    pass


# -- uncertainty -----------------------------------------------------------

class NoReferenceAvailable(DescryError):
    pass


class NoOracleAvailable(DescryError):
    pass


class InsufficientReplicates(DescryError):
    pass


# -- cli -------------------------------------------------------------------

class MissingManifest(DescryError):
    pass
