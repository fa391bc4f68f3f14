import pytest

from symdepth import MonomialIdeal
from symdepth.formats import (MAX_DIGITS, complex_from_json, ideal_from_json,
                              ideal_from_text, parse_int)

# one digit past the limit that int() itself enforces by default
HUGE = "1" + "0" * MAX_DIGITS


class TestMalformedJson:
    @pytest.mark.parametrize("text", ['{"generators": []}', '{"n": 3}',
                                      "[1, 2]"])
    def test_ideal(self, text):
        with pytest.raises(ValueError, match="malformed ideal JSON"):
            ideal_from_json(text)

    @pytest.mark.parametrize("text", ['{"facets": []}', '{"n": 3}', "[1, 2]"])
    def test_complex(self, text):
        with pytest.raises(ValueError, match="malformed complex JSON"):
            complex_from_json(text)

    @pytest.mark.parametrize("facet", [[1, 4], [0, 2]])
    def test_facet_vertex_outside_the_vertex_set(self, facet):
        with pytest.raises(ValueError,
                           match=r"has a vertex outside 1\.\.3"):
            complex_from_json({"n": 3, "facets": [[1, 2], facet]})


class TestText:
    def test_blank_and_comment_lines_are_skipped(self):
        text = "# the path on three vertices\n\nn=3\n   # x1*x3\nx1*x2\n\n" \
               "x2*x3  # second edge\n"
        assert ideal_from_text(text) == MonomialIdeal.from_generators(
            [(1, 1, 0), (0, 1, 1)], 3)

    def test_generator_before_ring_size(self):
        with pytest.raises(ValueError, match="must come before generators"):
            ideal_from_text("x1*x2\nn=3\n")

    @pytest.mark.parametrize("text", ["", "# no ring\n\n"])
    def test_missing_ring_size(self, text):
        with pytest.raises(ValueError, match="missing ring size"):
            ideal_from_text(text)

    def test_variable_outside_the_ring(self):
        with pytest.raises(ValueError,
                           match="variable x4 outside ring with n=3"):
            ideal_from_text("n=3\nx1*x4\n")


class TestIntegerDigits:
    """An integer of more than MAX_DIGITS digits is refused before int()
    sees it, with a message naming its field and the limit."""

    @pytest.mark.parametrize("load, text, field", [
        (ideal_from_text, f"n={HUGE}\nx1\n", "variable count n"),
        (ideal_from_text, f"n=3\nx1^{HUGE}*x2\n", "exponent"),
        (ideal_from_text, f"n=3\nx{HUGE}\n", "variable index"),
        (ideal_from_json, f'{{"n": 3, "generators": [[{HUGE}, 1, 0]]}}',
         "exponent"),
        (ideal_from_json, f'{{"n": -{HUGE}, "generators": []}}',
         "variable count n"),
        (complex_from_json, f'{{"n": 3, "facets": [[1, {HUGE}]]}}', "vertex"),
    ], ids=["text-n", "text-exponent", "text-index", "json-exponent",
            "json-n", "json-vertex"])
    def test_refused_with_its_field(self, load, text, field):
        with pytest.raises(ValueError) as info:
            load(text)
        assert str(info.value) == (f"{field} must have at most {MAX_DIGITS} "
                                   f"digits, got {MAX_DIGITS + 1} digits")

    def test_limit_itself_is_read(self):
        at_limit = "9" * MAX_DIGITS
        assert ideal_from_text(f"n=1\nx1^{at_limit}\n").gens == (
            (int(at_limit),),)
        assert ideal_from_json(
            f'{{"n": 1, "generators": [[{at_limit}]]}}').gens == (
            (int(at_limit),),)

    def test_bound_names_a_positive_number_only(self):
        with pytest.raises(ValueError, match=r"^characteristic must be below "
                                             r"2\^64, got 4301 digits$"):
            parse_int(HUGE, "characteristic", "2^64")
        with pytest.raises(ValueError, match="must have at most 4300 digits"):
            parse_int("-" + HUGE, "characteristic", "2^64")
        assert parse_int(" -12 ", "characteristic", "2^64") == -12
