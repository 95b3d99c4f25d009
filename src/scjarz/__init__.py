"""Semi-classical thermal Weyl symbols via complex-time trajectories.

The package computes the stationary-phase pseudo-Hamiltonian of driven
oscillator families and integrates pseudo-work along pseudo-trajectories.
It checks the semi-classical work identity internally, lhs
<exp(-beta W)> against rhs Z_prop / Z_i from one march, and checks the
static symbol at t_i against quantum-exact Fock/Wigner references.  The
driven identity's lhs meets the quantum ratio Tr exp(-beta H_f) /
Tr exp(-beta H_i) at second order in hbar; the tests check that order on
the quartic ramp, and no artifact records the quantum ratio.
"""

from .dynamics import (ImaginaryArc, IntegratorSettings, SampledPath,
                       build_arc, flow_imaginary, flow_real)
from .errors import (CausticEncountered, ConfigError, DomainTooSmall,
                     GridTooNarrow, IntegratorDiverged, NewtonDiverged,
                     ScjarzError, TimeOutOfRange, ToleranceExceeded,
                     TruncationInsufficient, WorkMismatch)
from .jarzynski import (JarzynskiReport, QuadratureDomain, partition,
                        verify_identity)
from .models import (ComplexPoint, FrequencyProtocol, HamiltonianModel,
                     harmonic_model, ramped_model)
from .oracle import (FockOperator, WignerGrid, harmonic_closed_forms,
                     ordering_pairing_check, thermal_fock,
                     weyl_convention_audit, wigner_transform)
from .pseudowork import (PseudoState, PseudoTrajectory, WorkResult,
                         composite_map, pseudo_power, pseudo_work,
                         solve_pseudo_state)
from .stationary import PseudoHamiltonianValue, pseudo_hamiltonian

__version__ = "0.1.0"

__all__ = [
    "ComplexPoint", "FrequencyProtocol", "HamiltonianModel",
    "harmonic_model", "ramped_model",
    "IntegratorSettings", "SampledPath", "ImaginaryArc",
    "flow_imaginary", "flow_real", "build_arc",
    "PseudoHamiltonianValue", "pseudo_hamiltonian",
    "PseudoState", "PseudoTrajectory", "WorkResult",
    "composite_map", "solve_pseudo_state", "pseudo_power", "pseudo_work",
    "QuadratureDomain", "JarzynskiReport",
    "partition", "verify_identity",
    "FockOperator", "WignerGrid", "thermal_fock", "wigner_transform",
    "harmonic_closed_forms", "weyl_convention_audit", "ordering_pairing_check",
    "ScjarzError", "ConfigError", "TimeOutOfRange", "IntegratorDiverged",
    "ToleranceExceeded", "CausticEncountered", "NewtonDiverged",
    "WorkMismatch", "DomainTooSmall", "TruncationInsufficient",
    "GridTooNarrow",
]
