"""Exception taxonomy shared by all modules."""


class ZlabError(Exception):
    """Base class for every error raised by this library."""


class LatticeMismatch(ZlabError):
    """Two classes (or a class and a model) live in different lattices."""


class NotNegativeDefinite(ZlabError):
    """A Gram matrix that must be negative definite is not."""


class NotPseudoEffective(ZlabError):
    """A class admits no Zariski decomposition in the given model."""


class OutOfRange(ZlabError):
    pass


class MissingCanonical(ZlabError):
    """The operation needs a canonical class and the model has none."""


class NotNef(ZlabError):
    pass


class NotBig(ZlabError):
    pass


class NotAmple(ZlabError):
    pass


class UnrealizableSupport(ZlabError):
    """A curve set supports no chamber: unknown label or not negative definite."""


class NullMismatch(ZlabError):
    """A constructed nef class picked up extra null curves."""


class NotMinusTwoClass(ZlabError):
    pass


class OrbitTooLarge(ZlabError):
    pass


class RankTooLargeForEnumeration(ZlabError):
    pass


class NotFiniteCoxeterType(ZlabError):
    """A reflection graph with a component outside the A_n, D_n, E6-E8 diagrams."""


class InstableDivisor(ZlabError):
    """The stable base locus is undefined on a chamber boundary."""


class OutOfDomain(ZlabError):
    pass


class NegativeDimension(ZlabError):
    pass


class TooFewSamples(ZlabError):
    pass


class UnsupportedLattice(ZlabError):
    """The operation is only implemented for a specific lattice shape."""


class SchemaError(ZlabError):
    """Malformed surface description."""


class SignatureError(ZlabError):
    """The intersection form does not have signature (1, rank-1, 0)."""


class AmpleWitnessError(ZlabError):
    """The declared ample class fails a positivity check."""


class CurvePairingError(ZlabError):
    """The declared curve list violates a pairing constraint."""
