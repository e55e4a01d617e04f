"""Gate-level netlist substrate: data structure, editing, traversal."""

from .gatefunc import (
    ALL_FUNCS, AND, ANDN, AOI21, AOI22, BUF, CONST0, CONST1, FUNC_BY_NAME,
    GateFunc, INV, MAJ3, MUX21, NAND, NOR, OAI21, OAI22, OR, ORN,
    TwoInputForm, XNOR, XOR, func_from_name, two_input_forms,
)
from .netlist import Branch, Gate, Netlist, NetlistError, constant_signal
from .edit import (
    dirty_between, find_inverted, insert_gate, insert_inverter,
    propagate_constants, prune_dangling, remove_gate, replace_input,
    set_branch_constant, substitute_stem, would_create_cycle,
)
from .traverse import (
    align_interfaces, cone_area, extract_cone, gates_between, mffc,
)

__all__ = [
    "ALL_FUNCS", "AND", "ANDN", "AOI21", "AOI22", "BUF", "CONST0", "CONST1",
    "FUNC_BY_NAME", "GateFunc", "INV", "MAJ3", "MUX21", "NAND", "NOR",
    "OAI21", "OAI22", "OR", "ORN", "TwoInputForm", "XNOR", "XOR",
    "func_from_name", "two_input_forms",
    "Branch", "Gate", "Netlist", "NetlistError", "constant_signal",
    "dirty_between", "find_inverted", "insert_gate", "insert_inverter",
    "propagate_constants", "prune_dangling", "remove_gate", "replace_input",
    "set_branch_constant", "substitute_stem", "would_create_cycle",
    "align_interfaces", "cone_area", "extract_cone", "gates_between",
    "mffc",
]
