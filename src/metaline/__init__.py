"""Simulator for qubit-coupled hybrid left/right-handed transmission lines.

The package computes, at desk scale: the normal modes and density of
modes of the coupled lumped network, the per-mode qubit coupling
spectrum, single-excitation multimode entanglement dynamics, and the
adiabatic-renormalization phase diagram of the effective spin-boson
model hosted by the band edge.
"""

__version__ = "0.1.0"

from .circuit import (CircuitSpec, NetworkBands, NetworkMatrices,
                      apply_disorder, build_matrices, design_from_impedance,
                      lhtl_ladder_matrices, network_bands, rhtl_from_impedance,
                      rhtl_ladder_matrices)
from .dispersion import (BandPoint, SpectralDensityCurve, dom_approx,
                         invert_lhtl, omega_lhtl, omega_rhtl,
                         rhtl_background_dom, sample_spectral_density,
                         spectral_density)
from .dynamics import (Eigensystem, EntropyReport, SingleExcitationState,
                       binary_entropy, build_rwa_hamiltonian, diagonalize,
                       entropy_minus_mode, entropy_qubit, entropy_scan, evolve)
from .modes import (CouplingSpectrum, DomEstimate, IllConditionedCircuitError,
                    ModeSet, QubitSpec, band_edges, coupling_spectrum,
                    current_average, dom_numeric, find_current_antinode,
                    footprint_at_antinode, sign_changes, solve_modes,
                    sturm_count, voltage_profile)
from .spinboson import (CouplingSweep, DetectedJump, Phase, PhaseDiagram,
                        RenormResult, phase_diagram, renormalize,
                        sweep_coupling)

__all__ = [
    "__version__",
    "CircuitSpec", "NetworkBands", "NetworkMatrices", "design_from_impedance",
    "rhtl_from_impedance", "network_bands", "build_matrices", "apply_disorder",
    "lhtl_ladder_matrices", "rhtl_ladder_matrices",
    "BandPoint", "SpectralDensityCurve", "omega_rhtl", "omega_lhtl",
    "invert_lhtl", "dom_approx", "rhtl_background_dom", "spectral_density",
    "sample_spectral_density",
    "ModeSet", "QubitSpec", "CouplingSpectrum", "DomEstimate",
    "IllConditionedCircuitError", "solve_modes", "sturm_count", "band_edges",
    "voltage_profile",
    "current_average", "coupling_spectrum", "dom_numeric", "sign_changes",
    "find_current_antinode", "footprint_at_antinode",
    "SingleExcitationState", "EntropyReport", "binary_entropy",
    "build_rwa_hamiltonian", "Eigensystem", "diagonalize", "evolve",
    "entropy_qubit", "entropy_minus_mode", "entropy_scan",
    "RenormResult", "PhaseDiagram", "CouplingSweep", "DetectedJump", "Phase",
    "renormalize", "sweep_coupling", "phase_diagram",
]
