"""Induced trees in clique-free graphs: guaranteed-size tree finders with
verifiable certificates, the admissible-selection machinery behind them,
extremal constructions, and exact brute-force oracles for desk-scale
cross-validation.

Each module's `__all__` declares its public names; this package re-exports
them all."""

from .admissible import *
from .finders import *
from .generators import *
from .graph import *
from .oracle import *
from .ramsey import *

__version__ = "0.1.0"

__all__ = sorted(
    admissible.__all__ + finders.__all__ + generators.__all__
    + graph.__all__ + oracle.__all__ + ramsey.__all__
)
