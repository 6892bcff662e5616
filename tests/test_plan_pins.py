"""Plans pinned byte for byte on threshold instances at Abilene and BTN scale.

Each pin is the sha256 of ``solve_plan(threshold_problem(topology, k, 2,
k)).to_json()``.  A bound LP reaches a plan only through the quantised level
of its bound, so a change in how bound LPs are solved must leave every pin
as it is.
"""
import hashlib

import pytest

from overlaylab.planner import solve_plan
from test_leaf_spans import BTN
from test_planner_oracle import ABILENE, threshold_problem

TOPOLOGIES = {"abilene": ABILENE, "btn": BTN}

PINS = {
    ("abilene", 4): "e1a82bbb48c06d58b6b42df49988fb5631c82efe5e54762d2e49d8b8765d918a",
    ("abilene", 5): "d41635bd2f40df5ec6c9ba3d43973cafe2ad7be8a4a158f1eea80fd871fc5597",
    ("abilene", 6): "0da0a77a1cd4f5bae1fff31dd05deb881fc8656afaad4512a32d26a696e36f40",
    ("abilene", 7): "197dcc3901d1e36cc254f858086646390ba5231e49952acf74b7a979857a0ad7",
    ("abilene", 8): "f266c07c141dc8d2d1d7c0fdb6a8fcb481d81007e7225ee17caa909ebe249d04",
    ("abilene", 9): "0115ce613b033d01c550d3ea93047cf3edb08ecfb9b55f8ed7c8b4fee6b70ca5",
    ("abilene", 10): "5c08cded61592fd74d6fe9805661359573003f6e41a83b1d160560809823d64c",
    ("abilene", 11): "d994f123bff2e40fa46511f82d000552a2da3721622088ead0e32f3c9d46d216",
    ("abilene", 12): "40506030b84e424306d900775ca9c16cafad0fa0445096b6bfd0ee861f9d40cb",
    ("abilene", 13): "f8a5a04c044e45749ffe9afcafa5624c5013d332a7f47b72dc1d1a5506a81ca1",
    ("btn", 4): "e74e92c46f7daf28acd5553f2b68818d8035bd91fa8a4d712d0058dc3d875dd5",
    ("btn", 5): "66de1180d0080d05c0a1cddb0b263b24ae82780ce08a6ae5933b9b530293b5d5",
    ("btn", 6): "5a44a52df621bd7397879decdd82975d4905e4d70cd0c6ea96d55674ce84f51e",
    ("btn", 7): "1ff191dfc4a7d7be8bc1c1d8a1d382207be4a5ebfbc442871aa22551b907930e",
    ("btn", 8): "9587e4006956cd4d1b3e8e9be3878b54c26ebd050420f09f26d0e700b0692773",
    ("btn", 9): "1b582e9d1f41b1d8a868513ae3f747d7585d30ce5c182cd8fee5b1314fe6bac5",
    ("btn", 10): "560b55afd9186bc0d5a7a8cb3f87f514b93b0b6f3dc3261ade19ddcf5075ad34",
    ("btn", 11): "11ecd1dfaefcbd9b2e512bea8a41e9cfc25f40d57ff8ec6e71879a87c268e3cb",
    ("btn", 12): "474aca5c65d6fea43cb2fd583c4519f9ad8bd5f1859c093b3d9e2754990a96ec",
    ("btn", 13): "bca5f6e7a141ec3fa0ff610746634b271094263058f955c38704fc57b88ad541",
}


@pytest.mark.parametrize("name, k", sorted(PINS))
def test_threshold_plan_is_pinned(name, k):
    plan = solve_plan(threshold_problem(TOPOLOGIES[name], k, 2, k))
    assert hashlib.sha256(plan.to_json().encode()).hexdigest() == PINS[name, k]
