"""Exception types shared across the package.

The CLI maps these onto process exit codes: usage/domain problems exit 2
(an instance beyond the working precision among them), certification
failures exit 1, capacity refusals (runs beyond available memory) exit 3.
"""


class DegenerateInstanceError(ValueError):
    """Instance whose smallest adjacency eigenvalue equals -degree.

    On such graphs (only J(2,1) among the accepted parameter range) the
    walk eigenbasis construction breaks down, so the instance is refused.
    """


class PrecisionError(ArithmeticError):
    """A result the working precision cannot resolve, so none is returned.

    Raised when a secular root of the reduced step lies closer to its pole
    than 40 digits separate, or its polish does not settle.
    """


class CapacityError(RuntimeError):
    """A run would hold more bytes than ``MemAvailable`` reports (or dense caps allow)."""


class CertificationError(RuntimeError):
    """A dense-oracle check that cannot go on failed its tolerance.

    Only the quotient-eigenvalue check of
    ``validation.build_invariant_basis`` raises it: without that match no
    basis can be built.  The battery's stages return their residuals, and
    ``validation.certify`` judges them without raising.
    """

    def __init__(self, check: str, residual: float, tol: float):
        self.check = check
        self.residual = residual
        self.tol = tol
        super().__init__(f"certification check {check!r} failed: "
                         f"residual {residual:.3e} exceeds tolerance {tol:.3e}")
