"""Exception types shared across the package.

The CLI maps these onto process exit codes: usage/domain problems exit 2
(an instance beyond the working precision among them), capacity refusals
(runs beyond available memory) exit 3.  A failed certification raises
nothing: ``validation.certify`` reports it, and the CLI exits 1.
"""


class DegenerateInstanceError(ValueError):
    """Instance whose smallest adjacency eigenvalue equals -degree.

    On such graphs (only J(2,1) among the accepted parameter range) the
    walk eigenbasis construction breaks down, so the instance is refused.
    """


class PrecisionError(ArithmeticError):
    """A result the working precision cannot resolve, so none is returned.

    Raised when a secular root of the reduced step lies closer to its pole
    than 40 digits separate, or its polish does not settle, and when the
    reduced engine runs on a platform whose longdouble is not extended.
    """


class CapacityError(RuntimeError):
    """A run too large to hold or to iterate, refused before it starts.

    Refused by the memory rule, when its bytes would exceed what
    ``MemAvailable`` reports, and by the 2^20 cap on a simulate series'
    chunks and on a sweep's blocks (``arc_engine.MAX_CHUNKS``).
    """
