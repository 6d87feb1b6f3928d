"""Linear search on two rays ("cow path") with untrusted hints.

A searcher starts at the root of two half-lines and walks out and back in
segments until it steps on a hidden target.  This package builds classic
geometric strategies and three hint-aware families (exact position, target
direction, k-bit advice), scores them by consistency (hint trusted) and
robustness (hint adversarial) in closed form and by brute-force simulation,
and numerically verifies the growth inequalities and tradeoff frontiers those
scores obey.
"""

from . import bounds, hints, model, ratios
from .bounds import *
from .hints import *
from .model import *
from .ratios import *

__version__ = "0.1.0"

__all__ = [*model.__all__, *ratios.__all__, *hints.__all__, *bounds.__all__]
