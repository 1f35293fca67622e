"""Multiphoton Rabi dynamics of a two-level system with permanent dipole
couplings (broken inversion symmetry) in a quantized oscillator mode.

The package assembles the full Hamiltonian on a truncated Fock space,
diagonalizes the resonance manifolds in a generalized multiphoton
rotating-wave treatment, and propagates states both exactly (RK4 on the full
Hamiltonian) and analytically (dressed-basis phases), exposing the population
inversion and photon-number distribution.  Each name is imported from the
module that defines it (``mprabi.model``, ``mprabi.dynamics``, ...); the
package namespace holds only ``__version__``, so ``import mprabi`` loads
nothing else.
"""

__version__ = "0.1.0"
