import weylunip

#: The names ``from weylunip import *`` binds: every public name the package
#: imports from its submodules, and no submodule.
PUBLIC_NAMES = """
BadInput Bipartition BoundExceeded CarterLabel ClassSymbol FiberTable GroupContext InvalidClass
MarkedPartition NotInQ NotInR NotSpecial PairSequenceBC PairSequenceD ParseError Partition
TableIntegrityError UnipotentSymbol UnknownClass UnknownContext UnknownUnipotent WeylUnipError
WrongFamily context enumerate_classes enumerate_unipotents fiber fiber_of h h_inv in_A in_C in_C0
in_P_tilde in_Q in_R in_S_kappa in_T iota iota2 is_special_class is_split_weyl_class k k_inv
load_table m_of_class multiplicity parse_carter_label phi phi_lookup pi psi psi_even_r psi_marked
psi_orthogonal rho special_class_of tau xi xi_inv
""".split()


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from weylunip import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC_NAMES)
    assert weylunip.__all__ == sorted(PUBLIC_NAMES)
