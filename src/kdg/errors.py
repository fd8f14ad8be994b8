"""Exception hierarchy shared by the library and the command line tool.

Every error carries the exit code the CLI maps it to:

    2  invalid input graph (malformed JSON, schema violation, not minimal,
       disconnected where connectivity is required)
    3  graph not negative definite
    4  operation precondition violated (bad insertion site, bad string
       designation, a string limit on a graph that is not negative definite
       or whose stretched family leaves that class, out-of-domain family
       parameters, p_a search over its work budget, Laufer's sequence for
       the fundamental cycle over its step budget, an enumeration box with
       more search tasks than its budget or with a task that visits more
       search nodes than its budget, a `sweep` range with more rows than
       its budget, a family member with more vertices than its budget, a
       result with more digits than the interpreter prints)
    5  internal assertion failure (an exact identity that must hold did not)
"""


class KdgError(Exception):
    """Base class for all errors raised by kdg."""

    exit_code = 5


class InvalidGraphError(KdgError):
    """The input graph is malformed or inadmissible as input."""

    exit_code = 2


class NotNegativeDefiniteError(KdgError):
    """The intersection matrix is not negative definite."""

    exit_code = 3


class PreconditionError(KdgError):
    """An operation was called with arguments outside its contract."""

    exit_code = 4


class SingularLimitError(KdgError):
    """A limit matrix was singular and not covered by the constant-value
    fallback; the caller must report this rather than guess a value."""

    exit_code = 4


class InternalCheckError(KdgError):
    """An internal exact identity failed; indicates a bug, never bad input."""

    exit_code = 5
