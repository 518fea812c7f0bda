"""Weyl-group conjugacy classes, unipotent classes, and the maps between them.

The central objects: ``phi`` maps a class of the Weyl group to a unipotent
class of the ambient group; ``psi`` is its one-sided inverse picking the
fiber element with the smallest fixed space; ``rho`` and ``pi`` compare the
unipotent classes of a bad-characteristic group with those of its
good-characteristic sibling; ``tau`` labels the special classes by special
representations.  The ``oracle`` module re-proves all of this exhaustively
at bounded rank.

Each public name, and each submodule, is imported on its first use as
``weylunip.<name>`` (PEP 562), so a process imports only the modules it
reads: a command-line process pays for no module its command does not need.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: The public names, by the submodule that defines them.
_EXPORTS = {
    "errors": """
        BadInput BoundExceeded InvalidClass NotInQ NotInR NotSpecial ParseError TableIntegrityError
        UnknownClass UnknownContext UnknownUnipotent WeylUnipError WrongFamily
    """,
    "partitions": "MarkedPartition Partition in_P_tilde in_Q in_R in_S_kappa in_T multiplicity",
    "weyl_classes": """
        CarterLabel ClassSymbol GroupContext context enumerate_classes is_split_weyl_class m_of_class
        parse_carter_label
    """,
    "classical_maps": "UnipotentSymbol enumerate_unipotents fiber_of phi pi psi rho xi xi_inv",
    "exceptional_tables": "FiberTable fiber load_table phi_lookup",
    "special_classes": """
        Bipartition PairSequenceBC PairSequenceD h h_inv in_A in_C in_C0 is_special_class k k_inv
        special_class_of tau
    """,
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """A public name or a submodule, imported on first use and then bound
    here, so that later reads find it without this call."""
    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(_import_module(f"{__name__}.{module}"), name)
    else:
        value = _submodule(name)
    globals()[name] = value
    return value


def _submodule(name: str):
    """The submodule ``name``, imported; a name that is no submodule, a
    dotted one included, is an ``AttributeError`` and imports nothing."""
    if name.isidentifier():
        try:
            return _import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise  # a submodule that exists but fails its own imports
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
