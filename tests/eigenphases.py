"""The marked step's eigenphases in double, and their large-n asymptotics.

The tests read the reduced engine's secular roots as principal arguments
and compare the slowest positive rotation with the leading-order phase
sqrt(2 k!) * n**(-k/2) of ``spectral.run_time``.
"""

import math
from dataclasses import dataclass

import numpy as np

from jwalk import reduced
from jwalk.spectral import run_time

# phases smaller than this are treated as numerically zero when locating
# the slowest rotation of the marked walk
PHASE_CUTOFF = 1e-9


@dataclass(frozen=True)
class PhaseAsymptotics:
    """Slowest observed rotation versus its large-n prediction."""

    theta_min: float
    target_phase: float
    relative_error: float


def eigenphases(params):
    """The secular roots as sorted principal arguments, in double.

    They are the phases of the marked step's eigenvalues in the invariant
    subspace.
    """
    phases = [float(theta) for theta in reduced.spectrum(params).roots]
    return np.sort([p - 2 * math.pi if p > math.pi else p for p in phases])


def verify_eigenphase_asymptotics(params, reduced_phases):
    """Compare the slowest positive rotation of the marked walk to theory.

    ``reduced_phases`` are principal arguments of the marked step's
    eigenvalues in the invariant subspace, the secular roots of
    :func:`eigenphases`.  The smallest phase above PHASE_CUTOFF is
    matched against sqrt(2 k!) * n**(-k/2); the relative error decays
    like n**(-1/2).
    """
    positive = [p for p in reduced_phases if p > PHASE_CUTOFF]
    if not positive:
        raise ValueError("no positive eigenphase found; reduced spectrum inconsistent")
    theta_min = min(positive)
    target = run_time(params).target_phase
    return PhaseAsymptotics(
        theta_min=theta_min,
        target_phase=target,
        relative_error=abs(theta_min - target) / target,
    )
