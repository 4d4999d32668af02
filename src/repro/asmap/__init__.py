"""IP→AS mapping and AS-boundary inference."""

from .boundaries import BoundaryVerdict, classify_hop
from .mapping import ASMap, NoisyASMap, UNKNOWN_ASN

__all__ = [
    "ASMap",
    "BoundaryVerdict",
    "NoisyASMap",
    "UNKNOWN_ASN",
    "classify_hop",
]
