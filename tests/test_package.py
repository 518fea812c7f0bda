import ast
import copy
import importlib.util
import inspect
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import weylunip
from weylunip import (
    Bipartition,
    ClassSymbol,
    FiberTable,
    GroupContext,
    MarkedPartition,
    PairSequenceBC,
    PairSequenceD,
    UnipotentSymbol,
    context,
    load_table,
    parse_carter_label,
)
from weylunip._value import Value
from weylunip.weyl_classes import CarterComponent

#: The names ``from weylunip import *`` binds: every public name the package
#: imports from its submodules, and no submodule.
PUBLIC_NAMES = """
BadInput Bipartition BoundExceeded CarterLabel ClassSymbol FiberTable GroupContext InvalidClass
MarkedPartition NotInQ NotInR NotSpecial PairSequenceBC PairSequenceD ParseError Partition
TableIntegrityError UnipotentSymbol UnknownClass UnknownContext UnknownUnipotent WeylUnipError
WrongFamily context enumerate_classes enumerate_unipotents fiber fiber_of h h_inv in_A in_C in_C0
in_P_tilde in_Q in_R in_S_kappa in_T is_special_class is_split_weyl_class k k_inv load_table
m_of_class multiplicity parse_carter_label phi phi_lookup pi psi rho special_class_of tau xi xi_inv
""".split()


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from weylunip import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC_NAMES)
    assert weylunip.__all__ == sorted(PUBLIC_NAMES)


def test_every_name_resolves_on_first_use():
    # the package imports a name's module when the name is first read, so
    # the names are read in a fresh interpreter that has imported none yet
    submodules = [module.name for module in pkgutil.iter_modules(weylunip.__path__)]
    code = (
        "import sys, types, weylunip\n"
        "assert set(weylunip.__all__) <= set(dir(weylunip))\n"
        f"for name in {PUBLIC_NAMES!r}:\n"
        "    assert not isinstance(getattr(weylunip, name), types.ModuleType), name\n"
        "    assert name in vars(weylunip), name\n"
        "assert not hasattr(weylunip, 'oracle.verify_tables') and 'weylunip.oracle' not in sys.modules\n"
        f"for name in {submodules!r}:\n"
        "    assert getattr(weylunip, name) is sys.modules['weylunip.' + name], name\n"
        "assert not hasattr(weylunip, 'no_such_name')\n"
        "weylunip.no_such_name\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(weylunip.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.stderr.splitlines()[-1] == "AttributeError: module 'weylunip' has no attribute 'no_such_name'"
    assert len(submodules) == 10


class SubContext(GroupContext):
    """A subtype that adds no field: it keeps its parent's, and compares,
    hashes, prints and pickles by them."""

    __slots__ = ()


def _values():
    """One value of every value type, each symbol in each of its shapes, and
    one value of a subtype."""
    marked = MarkedPartition((2, 2, 1), ((2, 1),))
    table = load_table(context("G2", char="p3"))
    return [
        marked,
        context("C", 3),
        context("E8", char="p3"),
        CarterComponent(2, "A", 1),
        CarterComponent(1, "D", 4, "(a_1)"),
        parse_carter_label("D_4(a_1)+2A_1"),
        parse_carter_label("(3A_1)'"),
        parse_carter_label("A''_7"),
        ClassSymbol(cycle_type=(3, 1)),
        ClassSymbol(r=(4, 2), p=(1, 1)),
        ClassSymbol(label=parse_carter_label("E_8(a_1)")),
        UnipotentSymbol(partition=(4, 2)),
        UnipotentSymbol(marked=marked),
        UnipotentSymbol(name="E_8"),
        table.rows[0],
        table,
        PairSequenceBC(((4, 2), (1, 1))),
        PairSequenceD(((4, 4, 0), (2, 2, 1))),
        Bipartition((2, 1), (1,)),
        SubContext("C", 3),
    ]


def _fields(x) -> list[str]:
    # every value type's constructor takes its fields, in order, by name
    return list(inspect.signature(type(x)).parameters)


@pytest.mark.parametrize("x", _values(), ids=lambda x: type(x).__name__)
def test_values_survive_pickle_and_copy(x):
    copies = [pickle.loads(pickle.dumps(x, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for y in [*copies, copy.copy(x), copy.deepcopy(x)]:
        assert type(y) is type(x)
        assert y == x and hash(y) == hash(x)
        assert repr(y) == repr(x) and str(y) == str(x)
        assert [getattr(y, f) for f in _fields(x)] == [getattr(x, f) for f in _fields(x)]


def test_a_copied_table_answers_lookups():
    table = copy.deepcopy(load_table(context("E8", char="p2")))
    label = parse_carter_label("(2A_3)'")
    assert table._class_index()[label].unipotent == "A_3+A_2"


@pytest.mark.parametrize("x", _values(), ids=lambda x: type(x).__name__)
def test_values_are_immutable(x):
    before = repr(x)
    for f in _fields(x):
        with pytest.raises(AttributeError):
            setattr(x, f, None)
        with pytest.raises(AttributeError):
            delattr(x, f)
    assert repr(x) == before


@pytest.mark.parametrize("x", _values(), ids=lambda x: type(x).__name__)
def test_equal_values_share_type_and_hash(x):
    args = [getattr(x, f) for f in _fields(x)]
    twin = type(x)(*args)
    assert twin == x and hash(twin) == hash(x)
    subtype = type("Sub", (type(x),), {"__slots__": ()})
    assert subtype(*args) != x and x != subtype(*args)
    assert x != tuple(args) and x.__eq__(tuple(args)) is NotImplemented
    # a table hashes as its context, so its cached indexes hash no row
    assert hash(x) == hash(x.context if type(x) is FiberTable else tuple(args))


def test_values_print_their_fields():
    assert repr(context("C", 3)) == "GroupContext(family='C', rank=3, char='good')"
    assert repr(ClassSymbol(r=(4, 2), p=())) == "ClassSymbol(cycle_type=None, r=(4, 2), p=(), label=None)"
    assert repr(parse_carter_label("2A_1")) == (
        "CarterLabel(components=(CarterComponent(multiplier=2, series='A', subscript=1, qualifier=None),), "
        "primes=0, parenthesized=False)"
    )
    assert repr(UnipotentSymbol(marked=MarkedPartition((2, 2), ((2, 1),)))) == (
        "UnipotentSymbol(partition=None, marked=MarkedPartition(c=(2, 2), eps=((2, 1),)), name=None)"
    )
    assert repr(PairSequenceD(((2, 2, 1),))) == "PairSequenceD(pairs=((2, 2, 1),))"
    assert repr(SubContext("C", 3)) == "SubContext(family='C', rank=3, char='good')"


# The hand-written methods the value types had before ``Value`` compiled them
# from the field list, for 1, 3 and 4 fields.


def pair_sequence_eq(self, other):
    if other.__class__ is self.__class__:
        return (self.pairs,) == (other.pairs,)
    return NotImplemented


def pair_sequence_hash(self):
    return hash((self.pairs,))


def context_eq(self, other):
    if other.__class__ is self.__class__:
        return (self.family, self.rank, self.char) == (other.family, other.rank, other.char)
    return NotImplemented


def context_hash(self):
    return hash((self.family, self.rank, self.char))


def class_symbol_eq(self, other):
    if other.__class__ is self.__class__:
        return (self.cycle_type, self.r, self.p, self.label) == (
            other.cycle_type,
            other.r,
            other.p,
            other.label,
        )
    return NotImplemented


def class_symbol_hash(self):
    return hash((self.cycle_type, self.r, self.p, self.label))


def test_compiled_methods_are_the_hand_written_ones():
    # the same bytecode, so the same speed: a generic loop over the fields
    # would be slower in every set and dict of values
    for cls, eq, hash_ in [
        (PairSequenceBC, pair_sequence_eq, pair_sequence_hash),
        (GroupContext, context_eq, context_hash),
        (ClassSymbol, class_symbol_eq, class_symbol_hash),
    ]:
        for compiled, written in [(cls.__eq__, eq), (cls.__hash__, hash_)]:
            a, b = compiled.__code__, written.__code__
            assert (a.co_code, a.co_names, a.co_consts) == (b.co_code, b.co_names, b.co_consts), compiled


# The hand-written trusted builders the classes had before ``Value`` compiled
# one per class, for 4 and 2 fields.  The class symbol's set ``cycle_type``
# and ``label`` to None; here they are arguments, like every other field.


def trusted_class_symbol(cycle_type, r, p, label):
    C = object.__new__(ClassSymbol)
    object.__setattr__(C, "cycle_type", cycle_type)
    object.__setattr__(C, "r", r)
    object.__setattr__(C, "p", p)
    object.__setattr__(C, "label", label)
    return C


def trusted_bipartition(y, z):
    bp = object.__new__(Bipartition)
    object.__setattr__(bp, "y", y)
    object.__setattr__(bp, "z", z)
    return bp


def test_compiled_builders_are_the_hand_written_ones():
    # the same bytecode, so a trusted build costs what it did by hand; the
    # compiled builder reads its class as ``cls``
    for cls, written in [(ClassSymbol, trusted_class_symbol), (Bipartition, trusted_bipartition)]:
        a, b = cls._trusted.__code__, written.__code__
        assert (a.co_code, a.co_consts) == (b.co_code, b.co_consts), cls
        assert a.co_varnames[: a.co_argcount] == cls._fields
        assert cls._trusted.__globals__["cls"] is cls


@pytest.mark.parametrize("x", _values(), ids=lambda x: type(x).__name__)
def test_the_trusted_builder_rebuilds_every_value(x):
    # every checked constructor ends in its type's builder, a subtype's too
    y = type(x)._trusted(*[getattr(x, f) for f in type(x)._fields])
    assert type(y) is type(x)
    assert y == x and hash(y) == hash(x) and repr(y) == repr(x)


def test_only_the_base_builds_a_value_by_hand():
    # a value is made and its fields are set in one place, the builder that
    # _value.Value compiles, so no builder can drift from its class
    package = Path(weylunip.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "_value.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                assert (node.value.id, node.attr) not in {
                    ("object", "__new__"),
                    ("object", "__setattr__"),
                }, f"{path.name}:{node.lineno}"


def test_a_value_type_has_one_constructor_and_one_builder():
    # a caller's values go through the checked constructor, __new__, and the
    # library's canonical ones through _trusted; no value type keeps a third
    # spelling
    for module in pkgutil.iter_modules(weylunip.__path__):
        importlib.import_module(f"weylunip.{module.name}")
    types, pending = [], [Value]
    while pending:
        subtypes = pending.pop().__subclasses__()
        types += [t for t in subtypes if t.__module__.startswith("weylunip.")]
        pending += subtypes
    assert len(types) == 11
    extra = [
        (t.__name__, name)
        for t in types
        for name, attr in vars(t).items()
        if isinstance(attr, (staticmethod, classmethod)) and name not in ("__new__", "_trusted")
    ]
    assert extra == []


def _unread_imports(source: str) -> list[str]:
    """The names an ``import`` or ``from ... import`` binds in ``source``
    that the module never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            bound |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


def test_every_imported_name_is_read():
    # no linter runs on the package, so an import left behind by a deleted
    # caller is caught here
    package = Path(weylunip.__file__).parent
    for path in sorted(package.glob("*.py")):
        assert _unread_imports(path.read_text()) == [], path.name
    assert _unread_imports("from .partitions import in_P_tilde, in_Q\nin_Q(())\n") == ["in_P_tilde"]
    assert _unread_imports("import os.path\nimport re as regex\nos.sep\n") == ["regex"]


def test_the_benchmark_tracer_finds_what_it_reads():
    # perfbench/tracer.py reads these names from outside the package, and a
    # traced pass fails, or counts nothing, without them; this fails first
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert sorted(tracer.cache_snapshot()) == sorted(
        ["partitions_of", "tables_load", "tau_table", "class_index", "unipotent_index"]
    )
    modules = {short: importlib.import_module(f"weylunip.{short}") for short in tracer.MODULES}
    read = [(short, attr) for short, attrs in tracer.PRIVATE_TRACED.items() for attr in attrs]
    read += [("oracle", fn) for fn in tracer.SUITE_OF]
    read += [("special_classes", fn) for group in tracer.SPECIAL_GROUPS.values() for fn in group]
    for short, attr in read:
        assert callable(getattr(modules[short], attr, None)), f"{short}.{attr}"
