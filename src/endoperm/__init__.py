"""endoperm: endomorphism rings of large permutation modules.

Orbit-by-suborbit enumeration through a helper subgroup, Schur bases and
intersection matrices of the endomorphism ring, exact character-table
splitting over Q and real quadratic fields, and the mod-p decomposition
theory that decides whether the permutation module is indecomposable.
"""

from . import (candfilter, corpus, fixtures, gfmat, limits, modular, oracle,
               orbenum, permgrp, pipeline, quadfield, schur, splitchar,
               zpoly)
from .gfmat import FqMatrix
from .orbenum import ActionContext, HelperSetup, OrbitRecord, classify
from .permgrp import GeneratedGroup, Permutation, RandomStream
from .quadfield import QuadraticNumber
from .schur import IntersectionMatrix
from .splitchar import EndoCharTable

__version__ = "0.1.0"

__all__ = [
    "ActionContext", "EndoCharTable", "FqMatrix", "GeneratedGroup",
    "HelperSetup", "IntersectionMatrix", "OrbitRecord", "Permutation",
    "QuadraticNumber", "RandomStream", "candfilter", "classify", "corpus",
    "fixtures", "gfmat", "limits", "modular", "oracle", "orbenum",
    "permgrp", "pipeline", "quadfield", "schur", "splitchar", "zpoly",
]
