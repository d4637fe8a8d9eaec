"""Accounting modes for the weight that decay removes from the shell.

Under decay the conditional amplitudes lose norm, so the literal partial-trace
battery and charger states are sub-normalized.  The metric layer books that
weight in one of two ways:

* ``paper``: the populations are used exactly as the amplitude formulas give
  them, trace = N(t) <= 1;
* ``trace_repaired``: the missing weight 1 - N(t) is booked into the joint
  ground level (|gg> for the battery, |000> for the charger), where every
  zero-temperature decay channel terminates, restoring unit trace.

Without dissipation the two modes coincide.  `AccountingMode` parses every
mode string, the CLI's short name ``repaired`` included, and `_DEFAULT_MODE`
is the one default, ``trace_repaired``.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["AccountingMode", "InconsistentStateError"]


class AccountingMode(str, Enum):
    """How the weight 1 - N(t) lost to decay enters the reduced states.

    ``trace_repaired`` is the Lindblad answer: with the jump operators
    sqrt(kappa_a) a, sqrt(kappa_b) b, sqrt(kappa_m) m and sqrt(gamma) sigma_-
    per atom, every jump ends in |gg, 000>, and the zero-temperature master
    equation gives exactly these repaired matrices (checked against a 36x36
    Liouvillian in the tests).  ``paper`` keeps the sub-normalized no-jump
    matrices, so its stored energy omega_q (1 - g) books the decayed weight
    as battery charge.  ``repaired`` is accepted for ``trace_repaired``.
    """

    PAPER = "paper"
    TRACE_REPAIRED = "trace_repaired"

    @classmethod
    def _missing_(cls, value: object) -> AccountingMode:
        if value != "repaired":
            raise ValueError(f"unknown mode {value!r}; expected one of paper, repaired, trace_repaired")
        return cls.TRACE_REPAIRED


_DEFAULT_MODE = AccountingMode.TRACE_REPAIRED  # the Lindblad answer


class InconsistentStateError(ValueError):
    """Amplitudes carry more than one excitation worth of probability."""
