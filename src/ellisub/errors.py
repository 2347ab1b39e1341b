"""Exception hierarchy shared by all modules, and the base of the value
classes that validate in their constructor or cache a property.

The CLI maps these onto exit codes: input/validation problems -> 1,
internal consistency failures -> 2, resource guards -> 3.
"""


class EllisubError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(EllisubError):
    """Malformed substitution source text or JSON."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class ValidationError(EllisubError):
    """Input rejected: non-bijective, non-primitive, periodic, not simplified, ..."""


class ResourceLimitError(EllisubError):
    """A configured size cap would be exceeded; computation refused.

    ``stage`` names the pipeline stage that tripped the cap, where it is
    known; the CLI prints it.
    """

    def __init__(self, message: str, stage: str | None = None):
        self.stage = stage
        super().__init__(message)


class InternalCheckError(EllisubError):
    """A built-in cross-check failed; indicates a bug, not bad input.

    ``law`` names the law that failed and ``witness`` is the element it
    failed at, where the check has one, and ``stage`` the stage that ran
    it; the CLI prints each that is set.
    """

    def __init__(self, message: str, law: str | None = None, witness=None,
                 stage: str | None = None):
        self.law = law
        self.witness = witness
        self.stage = stage
        super().__init__(message)


class Frozen:
    """A value whose constructor sets the fields named in ``_fields`` through
    ``vars(self)``.  It compares and hashes by those fields, and assigning
    to any attribute raises AttributeError, as on a named tuple.  A
    ``cached_property`` still fills ``vars(self)`` on first read."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is frozen")
