"""Exact diagram-sum calculus for q-Gaussian variables.

Moments, Wick products and normal products are computed as canonical sums
over pair-partition diagrams weighted by crossing statistics, with every
coefficient kept as an exact rational polynomial in q.  A brute-force
truncated Fock-space oracle evaluates the same quantities operator by
operator so the two routes can be checked against each other.
"""

from types import ModuleType as _Module

from .algebra import (
    NORMAL,
    WICK,
    CovarianceMonomial,
    Expansion,
    OperatorWord,
    QPolynomial,
    VariableWord,
    specialize_free,
)
from .diagrams import (
    FeynmanDiagram,
    GroundSet,
    SignSequence,
    catalan_check,
    catalan_sequences,
    enumerate_compatible,
    enumerate_complete,
    enumerate_diagrams,
    enumerate_nonlinking,
)
from .errors import DomainError, QwickError, SizeLimitError, TruncationOverflowError
from .fock import (
    FockParams,
    FockVector,
    OneParticleVector,
    apply,
    evaluate_expansion,
    gram_check,
    q_inner,
    vacuum_expectation,
    wick_operator_form,
)
from .verify import VerifyReport, run_check
from .wick import IDENTITIES, expand, normal_form

__all__ = [name for name in dir() if name[0] != "_" and not isinstance(globals()[name], _Module)]
__version__ = "0.1.0"
