"""TLB-coherence mechanisms: Linux baseline, LATR, ABIS, Barrelfish."""

from .abis import AbisShootdown
from .barrelfish import BarrelfishShootdown
from .base import (
    LAZY_POSSIBLE,
    MECHANISM_PROPERTIES,
    OPERATION_CLASSES,
    MechanismProperties,
    OpClass,
    ShootdownReason,
    TLBCoherence,
)
from .hatric import HatricCoherence
from .hw_assisted import DidiShootdown, UnitdCoherence
from .latr import LatrCoherence
from .linux import LinuxShootdown
from .numapte import NumaPteCoherence
from .states import DEFAULT_QUEUE_DEPTH, STATE_BYTES, LatrFlag, SoaLatrQueue, SoaLatrState

MECHANISMS = {
    "linux": LinuxShootdown,
    "latr": LatrCoherence,
    "abis": AbisShootdown,
    "barrelfish": BarrelfishShootdown,
    "didi": DidiShootdown,
    "unitd": UnitdCoherence,
    "numapte": NumaPteCoherence,
    "hatric": HatricCoherence,
}


def make_mechanism(name: str, **kwargs) -> TLBCoherence:
    """Instantiate a mechanism by its experiment-table name."""
    try:
        cls = MECHANISMS[name]
    except KeyError:
        raise KeyError(f"unknown mechanism {name!r}; have {sorted(MECHANISMS)}") from None
    return cls(**kwargs)


__all__ = [
    "AbisShootdown",
    "DidiShootdown",
    "UnitdCoherence",
    "BarrelfishShootdown",
    "DEFAULT_QUEUE_DEPTH",
    "HatricCoherence",
    "LatrCoherence",
    "LatrFlag",
    "LAZY_POSSIBLE",
    "LinuxShootdown",
    "MECHANISMS",
    "MECHANISM_PROPERTIES",
    "MechanismProperties",
    "NumaPteCoherence",
    "OpClass",
    "OPERATION_CLASSES",
    "SoaLatrQueue",
    "SoaLatrState",
    "STATE_BYTES",
    "ShootdownReason",
    "TLBCoherence",
    "make_mechanism",
]
