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
                      network_bands, rhtl_from_impedance)
from .dispersion import dom_approx, rhtl_background_dom
from .dynamics import (Eigensystem, EntropyReport, binary_entropy,
                       build_rwa_hamiltonian, diagonalize, entropy_scan)
from .modes import (CouplingSpectrum, IllConditionedCircuitError, ModeSet,
                    QubitSpec, band_edges, coupling_spectrum, dom_numeric,
                    find_current_antinode, footprint_at_antinode,
                    footprint_weights, solve_modes, sturm_count)
from .spinboson import (CouplingSweep, DetectedJump, Phase, PhaseDiagram,
                        RenormResult, phase_diagram, renormalize,
                        sweep_coupling)

__all__ = [
    "__version__",
    "CircuitSpec", "NetworkBands", "NetworkMatrices", "design_from_impedance",
    "rhtl_from_impedance", "network_bands", "build_matrices", "apply_disorder",
    "dom_approx", "rhtl_background_dom",
    "ModeSet", "QubitSpec", "CouplingSpectrum", "IllConditionedCircuitError",
    "solve_modes", "sturm_count", "band_edges", "coupling_spectrum",
    "dom_numeric", "find_current_antinode", "footprint_at_antinode",
    "footprint_weights",
    "EntropyReport", "binary_entropy", "build_rwa_hamiltonian", "Eigensystem",
    "diagonalize", "entropy_scan",
    "RenormResult", "PhaseDiagram", "CouplingSweep", "DetectedJump", "Phase",
    "renormalize", "sweep_coupling", "phase_diagram",
]
