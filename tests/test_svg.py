import xml.etree.ElementTree as ET

import numpy as np
import pytest

import tourcraft as tc


def square_instance():
    return tc.Instance("sq", "EUC_2D",
                       coords=((0, 0), (10, 0), (10, 10), (0, 10)))


def test_square_structure():
    svg = tc.plot_tour_svg(square_instance(), [0, 1, 2, 3])
    assert svg.count("<circle") == 4
    assert svg.count("<path") == 1
    assert "Z" in svg and svg.startswith("<?xml")


def test_title_escaped():
    # the name was written as is, so the document was not well-formed XML
    inst = tc.Instance("a<b & c", "EUC_2D",
                       coords=((0, 0), (10, 0), (10, 10), (0, 10)))
    root = ET.fromstring(tc.plot_tour_svg(inst, [0, 1, 2, 3]))
    assert root.find("{http://www.w3.org/2000/svg}title").text == "a<b & c"


def test_deterministic():
    inst = tc.generate_random_euclidean(30, 4, 1000.0)
    order = list(range(30))
    assert tc.plot_tour_svg(inst, order) == tc.plot_tour_svg(inst, order)


def test_explicit_with_display_coords():
    w = np.array([[0, 1, 2], [1, 0, 3], [2, 3, 0]], dtype=float)
    inst = tc.Instance("ex", "EXPLICIT", explicit_weights=w,
                       coords=((0, 0), (1, 0), (0, 1)))
    assert tc.plot_tour_svg(inst, [0, 1, 2]).count("<circle") == 3


@pytest.mark.parametrize("order", [[0, 1, 9, 3], [0, 0, 1, 2], [0, 1],
                                   [True, False, 2, 3], [0.0, 1.0, 2.0, 3.0],
                                   np.arange(4, dtype=float)],
                         ids=["out-of-range", "duplicate", "short", "bools",
                              "integral-floats", "numpy-floats"])
def test_non_tour_rejected(order):
    # integral floats failed untyped, with a TypeError from a list index
    with pytest.raises(tc.ValidationError, match="not a tour"):
        tc.plot_tour_svg(square_instance(), order)


def test_explicit_rejected():
    w = np.array([[0, 1, 2], [1, 0, 3], [2, 3, 0]], dtype=float)
    inst = tc.Instance("ex", "EXPLICIT", explicit_weights=w)
    with pytest.raises(tc.ConfigError):
        tc.plot_tour_svg(inst, [0, 1, 2])
