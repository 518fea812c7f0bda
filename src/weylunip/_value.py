"""The base of the package's immutable value types.

A value type lists its fields in ``__slots__``, in the order its
``__init__`` takes them, and writes its own ``__init__`` (which checks the
fields and sets them with ``object.__setattr__``), ``__eq__`` and
``__hash__``.  ``__eq__`` compares the tuples of fields of two values of the
same type, and ``__hash__`` hashes that tuple.  This base supplies the rest:
setting or deleting a field raises ``AttributeError``, ``repr`` prints
``Name(field=value, ...)``, and pickling and copying rebuild a value through
its checked constructor.
"""


class Value:
    """Immutable, slotted, printed by field, rebuilt by its constructor."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
