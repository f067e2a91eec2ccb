"""Unit tests for the HOCL atom model."""

import pytest

from repro.hocl import (
    AtomError,
    BoolAtom,
    FloatAtom,
    IntAtom,
    ListAtom,
    StringAtom,
    Subsolution,
    Symbol,
    TupleAtom,
    atoms_equal,
    from_atom,
    to_atom,
)


class TestScalarAtoms:
    def test_int_atom_value(self):
        assert IntAtom(5).value == 5

    def test_int_atom_rejects_bool(self):
        with pytest.raises(AtomError):
            IntAtom(True)

    def test_int_atom_rejects_float(self):
        with pytest.raises(AtomError):
            IntAtom(1.5)

    def test_float_atom_accepts_int(self):
        assert FloatAtom(3).value == 3.0

    def test_float_atom_rejects_string(self):
        with pytest.raises(AtomError):
            FloatAtom("x")

    def test_bool_atom(self):
        assert BoolAtom(True).value is True

    def test_bool_atom_rejects_int(self):
        with pytest.raises(AtomError):
            BoolAtom(1)

    def test_string_atom(self):
        assert StringAtom("hello").value == "hello"

    def test_string_atom_rejects_int(self):
        with pytest.raises(AtomError):
            StringAtom(3)

    def test_scalar_equality(self):
        assert IntAtom(4) == IntAtom(4)
        assert IntAtom(4) != IntAtom(5)

    def test_scalar_cross_type_inequality(self):
        assert IntAtom(1) != FloatAtom(1.0)

    def test_scalar_hashable(self):
        assert len({IntAtom(1), IntAtom(1), IntAtom(2)}) == 2

    def test_kind_tags(self):
        assert IntAtom(1).kind == "int"
        assert FloatAtom(1.0).kind == "float"
        assert StringAtom("a").kind == "string"
        assert BoolAtom(False).kind == "bool"


class TestSymbol:
    def test_symbol_name(self):
        assert Symbol("ADAPT").name == "ADAPT"

    def test_symbol_equality(self):
        assert Symbol("A") == Symbol("A")
        assert Symbol("A") != Symbol("B")

    def test_symbol_rejects_empty(self):
        with pytest.raises(AtomError):
            Symbol("")

    def test_symbol_str(self):
        assert str(Symbol("ERROR")) == "ERROR"

    def test_symbol_not_equal_to_string_atom(self):
        assert Symbol("x") != StringAtom("x")


class TestTupleAtom:
    def test_head_and_rest(self):
        atom = TupleAtom([Symbol("SRC"), 1, 2])
        assert atom.head == Symbol("SRC")
        assert atom.rest == (IntAtom(1), IntAtom(2))

    def test_head_symbol(self):
        assert TupleAtom([Symbol("DST"), 1]).head_symbol() == "DST"
        assert TupleAtom([IntAtom(1), 2]).head_symbol() is None

    def test_requires_one_element(self):
        with pytest.raises(AtomError):
            TupleAtom([])

    def test_coerces_elements(self):
        atom = TupleAtom(["a", 1])
        assert isinstance(atom[0], StringAtom)
        assert isinstance(atom[1], IntAtom)

    def test_equality_is_structural(self):
        assert TupleAtom([1, 2]) == TupleAtom([1, 2])
        assert TupleAtom([1, 2]) != TupleAtom([2, 1])

    def test_len_and_iter(self):
        atom = TupleAtom([1, 2, 3])
        assert len(atom) == 3
        assert [from_atom(e) for e in atom] == [1, 2, 3]

    def test_copy_is_deep(self):
        inner = Subsolution([1])
        atom = TupleAtom([Symbol("T"), inner])
        clone = atom.copy()
        inner.solution.add(2)
        assert len(clone[1].solution) == 1


class TestListAtom:
    def test_empty_list(self):
        assert len(ListAtom()) == 0

    def test_append_returns_new(self):
        original = ListAtom([1])
        extended = original.append(2)
        assert len(original) == 1
        assert len(extended) == 2

    def test_extend(self):
        assert ListAtom([1]).extend([2, 3]).to_python() == [1, 2, 3]

    def test_to_python(self):
        assert ListAtom([1, "a", [2]]).to_python() == [1, "a", [2]]

    def test_equality(self):
        assert ListAtom([1, 2]) == ListAtom([1, 2])
        assert ListAtom([1, 2]) != ListAtom([2, 1])

    def test_indexing(self):
        assert ListAtom([5, 6])[1] == IntAtom(6)


class TestSubsolution:
    def test_wraps_iterable(self):
        sub = Subsolution([1, 2, 3])
        assert len(sub) == 3

    def test_equality_ignores_order(self):
        assert Subsolution([1, 2]) == Subsolution([2, 1])

    def test_inequality_on_counts(self):
        assert Subsolution([1, 1]) != Subsolution([1])

    def test_copy_is_deep(self):
        sub = Subsolution([1])
        clone = sub.copy()
        sub.solution.add(2)
        assert len(clone) == 1

    def test_hash_consistent_with_equality(self):
        assert hash(Subsolution([1, 2])) == hash(Subsolution([2, 1]))


class TestCoercion:
    def test_to_atom_passthrough(self):
        atom = IntAtom(1)
        assert to_atom(atom) is atom

    def test_to_atom_scalars(self):
        assert isinstance(to_atom(1), IntAtom)
        assert isinstance(to_atom(1.5), FloatAtom)
        assert isinstance(to_atom(True), BoolAtom)
        assert isinstance(to_atom("x"), StringAtom)

    def test_to_atom_list(self):
        assert isinstance(to_atom([1, 2]), ListAtom)

    def test_to_atom_rejects_dict(self):
        with pytest.raises(AtomError):
            to_atom({"a": 1})

    def test_from_atom_roundtrip(self):
        assert from_atom(to_atom(42)) == 42
        assert from_atom(to_atom("x")) == "x"
        assert from_atom(to_atom([1, 2])) == [1, 2]

    def test_from_atom_symbol(self):
        assert from_atom(Symbol("A")) == "A"

    def test_from_atom_tuple(self):
        assert from_atom(TupleAtom([1, 2])) == (1, 2)

    def test_atoms_equal_helper(self):
        assert atoms_equal(1, 1)
        assert not atoms_equal(1, 2)
