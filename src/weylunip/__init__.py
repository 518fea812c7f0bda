"""Weyl-group conjugacy classes, unipotent classes, and the maps between them.

The central objects: ``phi`` maps a class of the Weyl group to a unipotent
class of the ambient group; ``psi`` is its one-sided inverse picking the
fiber element with the smallest fixed space; ``rho`` and ``pi`` compare the
unipotent classes of a bad-characteristic group with those of its
good-characteristic sibling; ``tau`` labels the special classes by special
representations.  The ``oracle`` module re-proves all of this exhaustively
at bounded rank.
"""

from types import ModuleType as _ModuleType

from .errors import (
    BadInput,
    BoundExceeded,
    InvalidClass,
    NotInQ,
    NotInR,
    NotSpecial,
    ParseError,
    TableIntegrityError,
    UnknownClass,
    UnknownContext,
    UnknownUnipotent,
    WeylUnipError,
    WrongFamily,
)
from .partitions import (
    MarkedPartition,
    Partition,
    in_P_tilde,
    in_Q,
    in_R,
    in_S_kappa,
    in_T,
    multiplicity,
)
from .weyl_classes import (
    CarterLabel,
    ClassSymbol,
    GroupContext,
    context,
    enumerate_classes,
    is_split_weyl_class,
    m_of_class,
    parse_carter_label,
)
from .classical_maps import (
    UnipotentSymbol,
    enumerate_unipotents,
    fiber_of,
    iota,
    iota2,
    phi,
    pi,
    psi,
    psi_even_r,
    psi_marked,
    psi_orthogonal,
    rho,
    xi,
    xi_inv,
)
from .exceptional_tables import FiberTable, fiber, load_table, phi_lookup
from .special_classes import (
    Bipartition,
    PairSequenceBC,
    PairSequenceD,
    h,
    h_inv,
    in_A,
    in_C,
    in_C0,
    is_special_class,
    k,
    k_inv,
    special_class_of,
    tau,
)

__version__ = "0.1.0"

#: Every name imported above, the submodules aside.
__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)
