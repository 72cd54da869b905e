"""Metric solvable Lie algebras: rank-one Carnot extensions, an so(6) family
of two-step triples, Iwasawa algebras of classical symmetric spaces, and their
sign twists, with Ricci and sectional curvature throughout.

The package namespace is the union of the modules' `__all__` lists."""

from .algebra import *
from .curvature import *
from .carnot import *
from .so6family import *
from .symtwist import *

__version__ = "0.1.0"
