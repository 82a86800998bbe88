import numpy as np
import pytest

import tourcraft as tc
from conftest import instance_path, load_instance, random_matrix

HEADER_52 = """NAME: demo52
TYPE: TSP
DIMENSION: 52
EDGE_WEIGHT_TYPE: EUC_2D
NODE_COORD_SECTION
"""


def test_parse_euc2d_header():
    body = "".join(f"{i + 1} {i} {2 * i}\n" for i in range(52))
    inst = tc.parse_tsplib(HEADER_52 + body + "EOF\n")
    assert inst.n == 52 and inst.kind == "EUC_2D" and inst.name == "demo52"
    assert np.array_equal(inst.coords[1], (1.0, 2.0))


def test_parse_tolerates_whitespace_and_missing_eof():
    text = ("NAME : spaced\nTYPE: TSP\n\nDIMENSION :  3\n"
            "EDGE_WEIGHT_TYPE : EUC_2D\nUNKNOWN_KEY: ignored\n"
            "NODE_COORD_SECTION\n  1  0 0 \n2 1 0\n\n 3 0 1  \n")
    inst = tc.parse_tsplib(text)
    assert inst.n == 3


def test_wrong_coordinate_count():
    text = ("DIMENSION: 3\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n"
            "1 0 0\n2 1 0\nEOF\n")
    with pytest.raises(tc.ParseError, match="coordinate"):
        tc.parse_tsplib(text)


def test_missing_dimension():
    with pytest.raises(tc.ParseError, match="DIMENSION"):
        tc.parse_tsplib("EDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n1 0 0\n")


def test_unsupported_edge_weight_type():
    text = "DIMENSION: 3\nEDGE_WEIGHT_TYPE: GEO\nNODE_COORD_SECTION\n"
    with pytest.raises(tc.ParseError, match="GEO"):
        tc.parse_tsplib(text)


def test_malformed_number_names_line():
    text = ("DIMENSION: 2\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n"
            "1 0 0\n2 x 1\n")
    with pytest.raises(tc.ParseError, match="line 5"):
        tc.parse_tsplib(text)


COORDS_3 = "DIMENSION: 3\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n"


@pytest.mark.parametrize("body,fragment", [
    ("3 0 0 7\n3 5 0\n9 0 5\n", "line 4: coordinate line needs 'index x y'"),
    ("1 0 0\n3 5 0\n3 0 5\n", "line 6: node 3 is repeated"),
    ("1 0 0\n2 5 0\n9 0 5\n", r"line 6: node 9 is outside 1\.\.3"),
    ("0 0 0\n2 5 0\n3 0 5\n", r"line 4: node 0 is outside 1\.\.3"),
    ("1 0 0\n2.0 5 0\n3 0 5\n", "line 5: node number '2.0' is not an integer"),
    ("1 0 0\nb 5 0\n3 0 5\n", "line 5: node number 'b' is not an integer"),
    ("1 0 0\n2 5 0 0\n3 0 5\n", "line 5: coordinate line needs"),
], ids=["three-faults", "repeated", "above-dimension", "zero",
        "fractional-node", "named-node", "four-fields"])
def test_node_numbers_checked(body, fragment):
    with pytest.raises(tc.ParseError, match=fragment):
        tc.parse_tsplib(COORDS_3 + body + "EOF\n")


def test_cities_placed_by_node_number():
    shuffled = tc.parse_tsplib(COORDS_3 + "2 5 0\n3 0 5\n1 0 0\nEOF\n")
    in_order = tc.parse_tsplib(COORDS_3 + "1 0 0\n2 5 0\n3 0 5\nEOF\n")
    assert shuffled.coords.tolist() == in_order.coords.tolist() == \
        [[0, 0], [5, 0], [0, 5]]


@pytest.mark.parametrize("name", ["att48", "berlin52", "eil51", "eil76",
                                  "kroA100"])
def test_bundled_files_list_nodes_in_order(name):
    # each bundled file lists nodes 1..n in order, so placing a city by its
    # node number gives the positional reading of the section
    text = instance_path(name).read_text()
    section = text.split("NODE_COORD_SECTION")[1].split("EOF")[0]
    rows = [line.split() for line in section.splitlines() if line.strip()]
    inst = load_instance(name)
    assert [int(r[0]) for r in rows] == list(range(1, inst.n + 1))
    assert inst.coords.tolist() == [[float(x), float(y)] for _, x, y in rows]


def test_att48_header():
    inst = load_instance("att48")
    assert inst.n == 48 and inst.kind == "ATT"


@pytest.mark.parametrize("fmt,values", [
    ("FULL_MATRIX", "0 2 3\n2 0 4\n3 4 0"),
    ("UPPER_ROW", "2 3\n4"),
    ("LOWER_DIAG_ROW", "0\n2 0\n3 4 0"),
])
def test_explicit_layouts(fmt, values):
    text = (f"NAME: ex\nDIMENSION: 3\nEDGE_WEIGHT_TYPE: EXPLICIT\n"
            f"EDGE_WEIGHT_FORMAT: {fmt}\nEDGE_WEIGHT_SECTION\n{values}\nEOF\n")
    inst = tc.parse_tsplib(text)
    m = tc.build_distance_matrix(inst)
    expected = np.array([[0, 2, 3], [2, 0, 4], [3, 4, 0]], dtype=float)
    assert np.array_equal(m.d, expected)


def test_explicit_asymmetric_full_matrix_rejected():
    text = ("NAME: ex\nDIMENSION: 3\nEDGE_WEIGHT_TYPE: EXPLICIT\n"
            "EDGE_WEIGHT_FORMAT: FULL_MATRIX\nEDGE_WEIGHT_SECTION\n"
            "0 2 3\n2 0 4\n3 5 0\nEOF\n")
    with pytest.raises(tc.ValidationError, match="symmetric"):
        tc.parse_tsplib(text)


@pytest.mark.parametrize("dim", ["-3", "0"])
def test_non_positive_dimension(dim):
    text = (f"DIMENSION: {dim}\nEDGE_WEIGHT_TYPE: EXPLICIT\n"
            "EDGE_WEIGHT_FORMAT: FULL_MATRIX\nEDGE_WEIGHT_SECTION\n"
            "0 0 0 0 0 0 0 0 0\nEOF\n")
    with pytest.raises(tc.ParseError, match="DIMENSION"):
        tc.parse_tsplib(text)


EXPLICIT_3 = "DIMENSION: 3\nEDGE_WEIGHT_TYPE: EXPLICIT\n"


@pytest.mark.parametrize("text,fragment", [
    ("DIMENSION: 2\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n"
     "1 0 0\n2 1\n", "line 5: coordinate line needs 'index x y'"),
    (EXPLICIT_3 + "EDGE_WEIGHT_FORMAT: UPPER_ROW\nEDGE_WEIGHT_SECTION\n"
     "1 2 y\n", "line 5: malformed number"),
    ("DIMENSION: three\nEDGE_WEIGHT_TYPE: EUC_2D\n",
     "malformed DIMENSION: 'three'"),
    (EXPLICIT_3 + "EDGE_WEIGHT_FORMAT: LOWER_ROW\nEDGE_WEIGHT_SECTION\n"
     "1 2 3\n", "unsupported EDGE_WEIGHT_FORMAT 'LOWER_ROW'"),
    (EXPLICIT_3 + "EDGE_WEIGHT_FORMAT: UPPER_ROW\nEDGE_WEIGHT_SECTION\n"
     "1 2 3 4\n", "UPPER_ROW needs 3 values, got 4"),
    # a list of DIMENSION cities was built first: MemoryError, OverflowError
    (COORDS_3.replace("3", str(10**18)) + "1 0 0\n2 5 0\n3 0 5\n",
     f"DIMENSION is {10**18} but found 3 coordinate lines"),
    (COORDS_3.replace("3", str(2**70)) + "1 0 0\n2 5 0\n3 0 5\n",
     f"DIMENSION is {2**70} but found 3 coordinate lines"),
], ids=["short-coordinate-line", "malformed-weight", "non-integer-dimension",
        "unsupported-weight-format", "wrong-weight-count",
        "dimension-1e18-over-3-lines", "dimension-2^70-over-3-lines"])
def test_malformed_instance_rejected(text, fragment):
    with pytest.raises(tc.ParseError, match=fragment):
        tc.parse_tsplib(text)


UNREAD_SECTIONS = ["DISPLAY_DATA_SECTION", "FIXED_EDGES_SECTION",
                   "DEPOT_SECTION", "TOUR_SECTION"]


@pytest.mark.parametrize("section", UNREAD_SECTIONS)
def test_unread_section_skipped(section):
    # a section other than DISPLAY_DATA_SECTION was read as more weights
    text = ("DIMENSION: 3\nEDGE_WEIGHT_TYPE: EXPLICIT\n"
            "EDGE_WEIGHT_FORMAT: UPPER_ROW\nEDGE_WEIGHT_SECTION\n1 2 3\n"
            f"{section}\n1 x y\n2 0\n3 0 0\nEOF\n")
    inst = tc.parse_tsplib(text)
    assert inst.coords is None
    assert np.array_equal(inst.explicit_weights,
                          [[0, 1, 2], [1, 0, 3], [2, 3, 0]])


def test_fixed_edges_after_coordinates_skipped():
    # its keyword was read as a coordinate line needing 'index x y'
    cities = COORDS_3 + "1 0 0\n2 5 0\n3 0 5\n"
    edges = tc.parse_tsplib(cities + "FIXED_EDGES_SECTION\n1 2\n-1\nEOF\n")
    plain = tc.parse_tsplib(cities + "EOF\n")
    assert edges.coords.tolist() == plain.coords.tolist() == \
        [[0, 0], [5, 0], [0, 5]]


class TestTourFiles:
    def test_index_shift(self):
        tour = tc.Tour(order=(0, 2, 1), length=0.0)
        text = tc.write_tour(tour, "t3")
        body = text.splitlines()
        section = body.index("TOUR_SECTION")
        assert body[section + 1:section + 5] == ["1", "3", "2", "-1"]

    def test_malformed_index_rejected(self):
        with pytest.raises(tc.ParseError, match="line 2: malformed tour "
                                                "index '2a'"):
            tc.parse_tour("TOUR_SECTION\n1 2a\n-1\n")

    @pytest.mark.parametrize("node", ["0", "-5"])
    def test_node_below_one_rejected(self, node):
        # parse_tour("TOUR_SECTION\n0\n2\n-5\n-1\n") returned [-1, 1, -6],
        # indices that Python indexing silently wraps
        with pytest.raises(tc.ParseError,
                           match=f"line 3: tour node {node} is below 1"):
            tc.parse_tour(f"TOUR_SECTION\n2\n{node}\n-1\n")

    def test_minus_one_ends_the_section(self):
        assert tc.parse_tour("TOUR_SECTION\n2 1\n-1\n0\nEOF\n") == [1, 0]

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            order = tuple(int(c) for c in rng.permutation(12))
            text = tc.write_tour(tc.Tour(order=order, length=1.0), "x")
            assert tuple(tc.parse_tour(text)) == order


def test_instance_file_round_trip():
    pts = np.round(np.random.default_rng(4).uniform(0, 1e3, (20, 2)), 6)
    for kind in ("EUC_2D", "CEIL_2D", "ATT"):
        inst = tc.Instance("r20", kind, coords=pts)
        back = tc.parse_tsplib(tc.write_tsplib(inst))
        assert (back.name, back.n, back.kind) == ("r20", 20, kind)
        assert np.array_equal(back.coords, inst.coords)


@pytest.mark.parametrize("coords", [None, ((0, 0), (1, 0), (0, 1))],
                         ids=["weights-only", "display-coordinates"])
def test_explicit_instance_is_not_written(coords):
    # with display coordinates it was written as EDGE_WEIGHT_TYPE: EXPLICIT
    # with no weight section, which parse_tsplib rejected
    weights = tc.Instance("w3", "EXPLICIT", coords=coords,
                          explicit_weights=np.ones((3, 3)) - np.eye(3))
    with pytest.raises(tc.ValidationError, match="EXPLICIT is not written"):
        tc.write_tsplib(weights)


class TestOptima:
    def test_bundled_lookups(self):
        table = tc.default_optima()
        assert table.lookup("eil51") == 426
        assert table.lookup("dsj1000") == 18660188
        assert table.lookup("att48") == 33523
        assert table.lookup("nope") is None
        assert len(table.entries) == 25  # 24 benchmark rows + att48

    def test_duplicate_rejected(self):
        with pytest.raises(tc.ValidationError):
            tc.load_optima("a 1\na 2\n")

    def test_non_positive_rejected(self):
        with pytest.raises(tc.ValidationError):
            tc.load_optima("a 0\n")

    @pytest.mark.parametrize("text,fragment", [
        ("# fixture\na 1 2\n", "line 2: expected 'name length'"),
        ("a\n", "line 1: expected 'name length'"),
        ("a 1.5\n", "line 1: malformed length '1.5'"),
    ], ids=["three-columns", "one-column", "malformed-length"])
    def test_malformed_line_rejected(self, text, fragment):
        with pytest.raises(tc.ParseError, match=fragment):
            tc.load_optima(text)


@pytest.mark.parametrize("read", [tc.parse_tsplib, tc.load_optima])
@pytest.mark.parametrize("text", [5, b"a 5", None])
def test_text_that_is_not_a_str_rejected(read, text):
    # an untyped AttributeError or TypeError from splitlines or startswith
    with pytest.raises(tc.ParseError, match="expected text"):
        read(text)


def test_parse_write_parse_identity():
    m = random_matrix(8, 2)
    inst = tc.generate_random_euclidean(8, 2, 100.0)
    tour = tc.nearest_neighbor(tc.build_distance_matrix(inst))
    text = tc.write_tour(tour, inst.name)
    assert tuple(tc.parse_tour(text)) == tour.order
