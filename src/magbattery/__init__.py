"""Deterministic single-excitation simulator of a cavity-magnomechanical quantum battery.

A photon-magnon-phonon chain (the charger) feeds a pair of two-level atoms
(the battery) under conditional non-Hermitian dynamics.  The package
propagates the four closed amplitudes, computes coherence / stored energy /
ergotropy / purity in closed form from their populations, and drives
parameter sweeps; the `magbattery` CLI serializes everything to CSV.  No
density matrix is built at run time: the reduced states and the general
ergotropy construction are test oracles, in the test suite's `oracles.py`.

The public surface is each module's `__all__`: the package star-imports the
five layer modules and exports the union of their lists.
"""

from . import model, propagator, states, metrics, sweeps
from .model import *
from .propagator import *
from .states import *
from .metrics import *
from .sweeps import *

__version__ = "0.1.0"

__all__ = [*model.__all__, *propagator.__all__, *states.__all__, *metrics.__all__, *sweeps.__all__,
           "__version__"]
