"""Scene and robot documents: malformed input fails only as
SceneFormatError, which the CLI maps to exit code 2."""

import copy
import json
from importlib.resources import files

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccplan.sceneio import SceneFormatError, parse_robot, parse_scene

SCENES = files("ccplan") / "scenes"
DOCUMENTS = {name: json.loads((SCENES / name).read_text())
             for name in ("corridor2d.json", "gap2d.json", "pickplace3d.json",
                          "pointbot2d.json", "arm4dof3d.json")}

# Any JSON value, plus number vectors and matrices that pass the shape
# checks and reach the semantic ones (finiteness, symmetry, definiteness,
# orthogonality, joint limits).
numbers = st.one_of(st.floats(), st.integers())
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner,
                                     max_size=3)),
    max_leaves=8)
values = st.one_of(
    json_values,
    st.lists(numbers, min_size=2, max_size=3),
    st.lists(st.lists(numbers, min_size=2, max_size=3), min_size=2,
             max_size=3))


def entries(node, path=()):
    """Every (container path, key) of a JSON document."""
    keys = sorted(node) if isinstance(node, dict) else range(len(node))
    for key in keys:
        yield path, key
        if isinstance(node[key], (dict, list)):
            yield from entries(node[key], path + (key,))


def mutate(data, doc):
    """Replace or delete one entry, drawn from all depths of ``doc``."""
    path, key = data.draw(st.sampled_from(list(entries(doc))))
    node = doc
    for step in path:
        node = node[step]
    if isinstance(node, dict) and data.draw(st.booleans()):
        del node[key]
    else:
        node[key] = data.draw(values)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(DOCUMENTS)), st.data())
def test_malformed_documents_raise_only_scene_format_error(name, data):
    doc = copy.deepcopy(DOCUMENTS[name])
    mutate(data, doc)
    parse = parse_scene if "obstacles" in DOCUMENTS[name] else parse_robot
    try:
        parse(doc)
    except SceneFormatError:
        pass


def test_bundled_documents_parse():
    for name, doc in DOCUMENTS.items():
        (parse_scene if "obstacles" in doc else parse_robot)(doc)


def test_only_parsed_rotations_are_checked():
    doc = copy.deepcopy(DOCUMENTS["arm4dof3d.json"])
    joint = doc["joints"][1]
    joint["offset"] = {"translation": [0.0, 0.0, 0.5]}
    robot = parse_robot(doc)
    assert (robot.joints[1].offset.rotation == [[1, 0, 0], [0, 1, 0],
                                                [0, 0, 1]]).all()
    for rotation in ([[1, 0, 0], [0, 1, 0], [0, 0, -1]],
                     [[1, 0, 0], [0, 1, 0.1], [0, 0, 1]]):
        joint["offset"] = {"rotation": rotation}
        with pytest.raises(SceneFormatError, match=r"\.rotation"):
            parse_robot(doc)
