"""Tests for cone traversals: MFFC, cone extraction, level filters."""

import pytest

from repro.library import mcnc_like
from repro.netlist import Netlist, cone_area, extract_cone, gates_between, mffc
from repro.netlist.traverse import structural_distance_ok
from repro.sim import truth_table_of


def tree_net():
    """y = ((a&b) | (c&d)) & e, with an extra tap on (a&b)."""
    net = Netlist("tree")
    for pi in "abcde":
        net.add_pi(pi)
    net.add_gate("p", "AND", ["a", "b"])
    net.add_gate("q", "AND", ["c", "d"])
    net.add_gate("r", "OR", ["p", "q"])
    net.add_gate("y", "AND", ["r", "e"])
    net.add_gate("tap", "INV", ["p"])
    net.set_pos(["y", "tap"])
    return net


def test_mffc_excludes_shared_logic():
    net = tree_net()
    cone = mffc(net, "y")
    # p is shared with 'tap': only y, r, q are exclusively y's.
    assert cone == {"y", "r", "q"}


def test_mffc_of_pi_and_missing():
    net = tree_net()
    assert mffc(net, "a") == set()
    assert mffc(net, "nonexistent") == set()


def test_mffc_whole_cone_when_unshared():
    net = tree_net()
    # remove the tap: now p is exclusive to y as well
    del net.gates["tap"]
    net.set_pos(["y"])
    net.invalidate()
    assert mffc(net, "y") == {"y", "r", "q", "p"}


def test_mffc_pins_pos():
    net = tree_net()
    net.add_po("r")  # r is now observable: cannot be reclaimed
    net.invalidate()
    assert mffc(net, "y") == {"y"}


def test_cone_area():
    net = tree_net()
    lib = mcnc_like()
    lib.rebind(net)
    cone = mffc(net, "y")
    area = cone_area(net, cone, lib.gate_area)
    assert area == pytest.approx(
        lib["and2"].area * 2 + lib["or2"].area
    )


def test_extract_cone_function_preserved():
    net = tree_net()
    sub = extract_cone(net, ["r"])
    assert set(sub.pis) == {"a", "b", "c", "d"}
    assert sub.pos == ["r"]
    table = truth_table_of(sub)
    for v in range(16):
        a, b, c, d = v & 1, (v >> 1) & 1, (v >> 2) & 1, (v >> 3) & 1
        assert table[v] == ((a & b) | (c & d))


def test_extract_cone_multiple_outputs():
    net = tree_net()
    sub = extract_cone(net, ["p", "q"])
    assert sub.num_gates == 2
    assert sub.pos == ["p", "q"]


def test_gates_between():
    net = tree_net()
    assert gates_between(net, "p", "y") == {"p", "r", "y"}
    assert gates_between(net, "q", "tap") == set()


def test_structural_distance():
    levels = {"a": 0, "x": 3, "y": 5}
    assert structural_distance_ok(levels, "x", "y", None)
    assert structural_distance_ok(levels, "x", "y", 2)
    assert not structural_distance_ok(levels, "a", "y", 2)


def _extract_cone_reference(net, outputs, name="cone"):
    """The per-output ``transitive_fanin`` union that ``extract_cone``
    replaced with one shared walk; kept as its behavioural reference."""
    keep = set()
    for out in outputs:
        keep |= net.transitive_fanin(out)
    sub = Netlist(name)
    for pi in net.pis:
        if pi in keep:
            sub.add_pi(pi)
    for out in net.topo_order():
        if out in keep:
            gate = net.gates[out]
            sub.add_gate(out, gate.func, list(gate.inputs), cell=gate.cell)
    sub.set_pos(list(outputs))
    return sub


def _layout(net):
    return (net.name, net.pis, net.pos,
            [(out, g.func.name, g.inputs, g.cell)
             for out, g in net.gates.items()])


def test_extract_cone_matches_per_output_reference():
    import random

    from repro.circuits import random_control

    rnd = random.Random(5)
    for _ in range(25):
        net = random_control(rnd.randint(4, 16), rnd.randint(20, 120),
                             rnd.randint(2, 8), seed=rnd.randrange(10**6),
                             locality=rnd.randint(4, 20))
        signals = list(net.pis) + net.topo_order()
        for _ in range(4):
            outputs = rnd.sample(signals, rnd.randint(1, min(6, len(signals))))
            if rnd.random() < 0.3:
                outputs.append(outputs[0])  # repeated outputs stay repeated
            assert _layout(extract_cone(net, outputs, "c")) == \
                _layout(_extract_cone_reference(net, outputs, "c"))
        assert _layout(extract_cone(net, net.pos)) == \
            _layout(_extract_cone_reference(net, net.pos))
