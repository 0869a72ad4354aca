"""Tests for the DDT registry, combination enumeration and record specs."""

import pytest

from repro.ddt import (
    DDT_LIBRARY,
    ORIGINAL_DDT,
    RecordSpec,
    all_ddt_names,
    combination_label,
    combinations,
    ddt_class,
    parse_combination_label,
    words_for,
)


class TestRegistry:
    def test_library_has_ten_ddts(self):
        assert len(DDT_LIBRARY) == 10
        assert len(all_ddt_names()) == 10

    def test_names_unique(self):
        names = all_ddt_names()
        assert len(set(names)) == len(names)

    def test_canonical_names(self):
        assert all_ddt_names() == (
            "AR",
            "AR(P)",
            "SLL",
            "DLL",
            "SLL(O)",
            "DLL(O)",
            "SLL(AR)",
            "DLL(AR)",
            "SLL(ARO)",
            "DLL(ARO)",
        )

    def test_lookup_round_trip(self):
        for name in all_ddt_names():
            assert ddt_class(name).ddt_name == name

    def test_unknown_name_raises_with_candidates(self):
        with pytest.raises(KeyError, match="known DDTs"):
            ddt_class("BTREE")

    def test_original_is_sll(self):
        assert ORIGINAL_DDT.ddt_name == "SLL"

    def test_every_ddt_has_description(self):
        for cls in DDT_LIBRARY:
            assert cls.description


class TestCombinations:
    def test_single_structure_yields_library_size(self):
        combos = list(combinations(("a",)))
        assert len(combos) == 10
        assert combos[0] == {"a": "AR"}

    def test_two_structures_yield_square(self):
        combos = list(combinations(("a", "b")))
        assert len(combos) == 100
        labels = {combination_label(c, ("a", "b")) for c in combos}
        assert len(labels) == 100

    def test_candidate_restriction(self):
        combos = list(combinations(("a", "b"), candidates=("AR", "SLL")))
        assert len(combos) == 4

    def test_empty_structures_rejected(self):
        with pytest.raises(ValueError):
            list(combinations(()))

    def test_duplicate_structures_rejected(self):
        with pytest.raises(ValueError):
            list(combinations(("a", "a")))

    def test_bad_candidate_rejected_early(self):
        with pytest.raises(KeyError):
            list(combinations(("a",), candidates=("NOPE",)))

    def test_duplicate_candidates_rejected_on_call(self):
        """A repeated candidate would repeat every combination using it;
        it is refused when combinations() is called, before iteration."""
        with pytest.raises(ValueError, match=r"duplicate DDT candidates: \['AR'\]"):
            combinations(("a", "b"), candidates=("AR", "SLL", "AR"))


class TestLabels:
    def test_label_round_trip(self):
        structures = ("radix_node", "rtentry")
        for combo in combinations(structures):
            label = combination_label(combo, structures)
            assert parse_combination_label(label, structures) == combo

    def test_label_order_follows_structures(self):
        combo = {"b": "SLL", "a": "AR"}
        assert combination_label(combo, ("a", "b")) == "AR+SLL"
        assert combination_label(combo, ("b", "a")) == "SLL+AR"

    def test_parse_wrong_arity(self):
        with pytest.raises(ValueError):
            parse_combination_label("AR", ("a", "b"))

    def test_parse_unknown_ddt(self):
        with pytest.raises(KeyError):
            parse_combination_label("AR+NOPE", ("a", "b"))


class TestRecordSpec:
    def test_words_rounded_up(self):
        spec = RecordSpec("r", size_bytes=30, key_bytes=6)
        assert spec.record_words == 8
        assert spec.key_words == 2

    def test_words_for(self):
        assert words_for(0) == 0
        assert words_for(1) == 1
        assert words_for(4) == 1
        assert words_for(5) == 2
        with pytest.raises(ValueError):
            words_for(-1)

    def test_validation(self):
        with pytest.raises(ValueError):
            RecordSpec("r", size_bytes=0)
        with pytest.raises(ValueError):
            RecordSpec("r", size_bytes=8, key_bytes=0)
        with pytest.raises(ValueError):
            RecordSpec("r", size_bytes=8, key_bytes=16)
