"""Parser for the structural Verilog subset emitted by :mod:`repro.rtl.verilog`.

Grammar (whitespace/comments insignificant)::

    source    := module+
    module    := "module" ID "(" portdecl ("," portdecl)* ")" ";"
                 item* "endmodule"
    portdecl  := ("input" | "output") "[" NUM ":" NUM "]" ID
    item      := "wire" ID ("," ID)* ";"
               | vwire
               | "assign" lvalue "=" expr ";"
               | instance
    vwire     := "wire" "[" NUM ":" "0" "]" ID ("," ID)* ";"
    instance  := ID ID "(" conn ("," conn)* ")" ";"
    conn      := "." ID "(" ref ")"
    ref       := ID | ID "[" NUM "]" | ID "[" NUM ":" NUM "]"
    lvalue    := ID | ID "[" NUM "]"
    expr      := or ("?" expr ":" expr)?          (right associative)
    or        := xor ("|" xor)*
    xor       := and ("^" and)*
    and       := unary ("&" unary)*
    unary     := "~" unary | primary
    primary   := "1'b0" | "1'b1" | lvalue | "(" expr ")"

The result is rebuilt into a :class:`~repro.rtl.netlist.Netlist`, so a
round-trip ``parse_verilog(to_verilog(nl))`` can be simulated and checked
for bit-exact equivalence against the original.

A source may hold several modules, the shape
:func:`repro.rtl.hierarchy.emit_gear_hierarchical` writes.  A module must
be defined before it is instantiated; an instance inlines the module's
gates into the parent, named ``<instance>__<net>``.  Each input port takes
a ``ref`` of the port's width, and each output port drives a declared
vector wire of equal width, whose bits expressions then read as
``wire[i]``.  The returned netlist is the one module no other
module instantiates.

Every token carries its (line, column) position; syntax errors report the
offending location, and each net created while parsing is recorded in
``Netlist.source_locations`` so lint diagnostics on parsed files can point
back into the ``.v`` text.  Inlined gates point at their instance
statement.
"""

from __future__ import annotations

import bisect
import dataclasses
import re
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.rtl.gates import Op
from repro.rtl.netlist import Netlist, bus_net

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<comment>//[^\n]*)"
    r"|(?P<literal>1'b[01])"
    r"|(?P<id>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<num>\d+)"
    r"|(?P<sym>[\[\]():;,.=?~&|^])"
    r")"
)

_KEYWORDS = frozenset({"module", "endmodule", "input", "output", "wire", "assign"})


class VerilogSyntaxError(ValueError):
    """Raised when the source does not conform to the emitted subset.

    Attributes ``line`` and ``column`` carry the 1-based source position of
    the offending token when it is known, ``None`` otherwise.
    """

    def __init__(self, message: str, line: Optional[int] = None,
                 column: Optional[int] = None) -> None:
        if line is not None:
            message = f"line {line}, col {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class Token(NamedTuple):
    """One lexed token with its 1-based source position."""

    kind: str
    value: str
    line: int
    column: int


def _error(tok: Token, message: str) -> VerilogSyntaxError:
    return VerilogSyntaxError(message, tok.line, tok.column)


class _Tokens:
    def __init__(self, source: str) -> None:
        # Offsets of line starts, for offset -> (line, col) translation.
        self._line_starts = [0]
        for m in re.finditer(r"\n", source):
            self._line_starts.append(m.end())
        self.items: List[Token] = []
        pos = 0
        while pos < len(source):
            m = _TOKEN_RE.match(source, pos)
            if m is None:
                rest = source[pos:].strip()
                if rest:
                    offset = pos + source[pos:].index(rest[0])
                    raise VerilogSyntaxError(f"unexpected character {rest[0]!r}",
                                             *self._locate(offset))
                break
            pos = m.end()
            kind = m.lastgroup
            if kind is None:
                continue
            line, col = self._locate(m.start(kind))
            if kind == "comment":
                # Only structured group tags are kept; prose comments drop.
                text = m.group(kind)[2:].strip()
                if text.startswith("group:"):
                    self.items.append(
                        Token("group_tag", text[len("group:"):], line, col)
                    )
                continue
            self.items.append(Token(kind, m.group(kind), line, col))
        end_line, end_col = self._locate(len(source))
        self._eof = Token("eof", "", end_line, end_col)
        self.index = 0

    def _locate(self, offset: int) -> Tuple[int, int]:
        row = bisect.bisect_right(self._line_starts, offset) - 1
        return row + 1, offset - self._line_starts[row] + 1

    def peek(self) -> Token:
        if self.index >= len(self.items):
            return self._eof
        return self.items[self.index]

    def lookahead(self, ahead: int) -> Token:
        index = self.index + ahead
        return self.items[index] if index < len(self.items) else self._eof

    def next(self) -> Token:
        tok = self.peek()
        self.index += 1
        return tok

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        tok = self.next()
        if tok.kind != kind or (value is not None and tok.value != value):
            raise _error(tok, f"expected {value or kind!r}, got {tok.value!r} ({tok.kind})")
        return tok

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[str]:
        tok = self.peek()
        if tok.kind == kind and (value is None or tok.value == value):
            self.index += 1
            return tok.value
        return None


class _Parser:
    """Recursive-descent parser building a netlist on the fly."""

    def __init__(self, source: str) -> None:
        self.tokens = _Tokens(source)
        # Parsed modules in source order, with their "module" tokens.
        self.modules: Dict[str, Netlist] = {}
        self.headers: Dict[str, Token] = {}
        self.instantiated: Set[str] = set()
        # Per-module state, reset by _parse_module.
        self.netlist: Optional[Netlist] = None
        self.output_widths: Dict[str, int] = {}
        # assigned[name] = net in the netlist providing that wire's value
        self.assigned: Dict[str, str] = {}
        # vectors[name] = one net per bit, None until an instance drives it
        self.vectors: Dict[str, List[Optional[str]]] = {}
        # Location of the statement currently being parsed; every gate the
        # statement creates is attributed to it in source_locations.
        self._stmt_loc: Optional[Tuple[int, int]] = None

    def _new_gate(self, op: Op, inputs: Tuple[str, ...]) -> str:
        assert self.netlist is not None
        net = self.netlist.add_gate(op, inputs)
        if self._stmt_loc is not None:
            self.netlist.source_locations[net] = self._stmt_loc
        return net

    def _const(self, value: int) -> str:
        assert self.netlist is not None
        existed = f"const{value}" in self.netlist.gates
        net = self.netlist.const(value)
        if not existed and self._stmt_loc is not None:
            self.netlist.source_locations[net] = self._stmt_loc
        return net

    # Module structure ---------------------------------------------------

    def parse(self) -> Netlist:
        self._parse_module()
        while self.tokens.peek().kind != "eof":
            tok = self.tokens.peek()
            if tok.value != "module" or self.tokens.lookahead(1).kind != "id":
                raise _error(tok, "trailing tokens after endmodule")
            self._parse_module()
        # A module only instantiates earlier ones, so the last is always a
        # top; another uninstantiated module makes the choice ambiguous.
        tops = [name for name in self.modules if name not in self.instantiated]
        if len(tops) > 1:
            raise _error(self.headers[tops[0]], "expected one top-level module, "
                         f"found {', '.join(tops)}")
        return self.modules[tops[0]]

    def _parse_module(self) -> None:
        header = self.tokens.expect("id", "module")
        name_tok = self.tokens.expect("id")
        if name_tok.value in self.modules:
            raise _error(name_tok, f"module {name_tok.value!r} defined twice")
        try:
            self.netlist = Netlist(name_tok.value)
        except ValueError as exc:
            raise _error(name_tok, str(exc)) from None
        self.output_widths, self.assigned, self.vectors = {}, {}, {}
        self.tokens.expect("sym", "(")
        self._parse_portdecl()
        while self.tokens.accept("sym", ","):
            self._parse_portdecl()
        self.tokens.expect("sym", ")")
        self.tokens.expect("sym", ";")

        output_bits: Dict[str, Dict[int, str]] = {b: {} for b in self.output_widths}
        while True:
            tok = self.tokens.peek()
            if tok.kind == "id" and tok.value == "endmodule":
                self.tokens.next()
                break
            if tok.kind == "id" and tok.value == "wire":
                self.tokens.next()
                self._parse_wiredecl()
            elif tok.kind == "id" and tok.value == "assign":
                self.tokens.next()
                self._stmt_loc = (tok.line, tok.column)
                self._parse_assign(output_bits)
                self._stmt_loc = None
            elif tok.kind == "id" and tok.value not in _KEYWORDS:
                self._parse_instance()
            else:
                raise _error(tok, f"unexpected token {tok.value!r} in module body")

        for bus, width in self.output_widths.items():
            missing = [i for i in range(width) if i not in output_bits[bus]]
            if missing:
                raise VerilogSyntaxError(f"output {bus} bits never assigned: {missing}")
            self.netlist.set_output_bus(bus, [output_bits[bus][i] for i in range(width)])
        self.modules[name_tok.value] = self.netlist
        self.headers[name_tok.value] = header

    def _parse_portdecl(self) -> None:
        tok = self.tokens.expect("id")
        if tok.value not in ("input", "output"):
            raise _error(tok, f"expected port direction, got {tok.value!r}")
        self.tokens.expect("sym", "[")
        high = int(self.tokens.expect("num").value)
        self.tokens.expect("sym", ":")
        low = int(self.tokens.expect("num").value)
        self.tokens.expect("sym", "]")
        name_tok = self.tokens.expect("id")
        name = name_tok.value
        if low != 0:
            raise _error(name_tok, f"port {name}: only [H:0] ranges supported")
        assert self.netlist is not None
        if tok.value == "input":
            for net in self.netlist.add_input_bus(name, high + 1):
                self.netlist.source_locations[net] = (tok.line, tok.column)
        else:
            self.output_widths[name] = high + 1

    def _parse_wiredecl(self) -> None:
        width = 0
        if self.tokens.accept("sym", "["):
            width = int(self.tokens.expect("num").value) + 1
            self.tokens.expect("sym", ":")
            self.tokens.expect("num", "0")
            self.tokens.expect("sym", "]")
        while True:
            tok = self.tokens.expect("id")
            if width:
                assert self.netlist is not None
                if tok.value in self.vectors or tok.value in self.netlist.input_buses:
                    raise _error(tok, f"vector wire {tok.value} redeclared")
                self.vectors[tok.value] = [None] * width
            if not self.tokens.accept("sym", ","):
                break
        self.tokens.expect("sym", ";")

    def _parse_instance(self) -> None:
        """Inline one instance's module; see the module docstring."""
        assert self.netlist is not None
        module_tok = self.tokens.next()
        sub = self.modules.get(module_tok.value)
        if sub is None:
            raise _error(module_tok, f"unknown module {module_tok.value!r} "
                         "(modules must be defined before they are instantiated)")
        self.instantiated.add(sub.name)
        loc = (module_tok.line, module_tok.column)
        inst = self.tokens.expect("id").value
        # port -> (reference token, its nets for an input port)
        conns: Dict[str, Tuple[Token, List[str]]] = {}
        self.tokens.expect("sym", "(")
        while True:
            self.tokens.expect("sym", ".")
            port = self.tokens.expect("id")
            if port.value in conns or not (port.value in sub.input_buses
                                           or port.value in sub.output_buses):
                raise _error(port, f"{sub.name} has no unconnected port {port.value!r}")
            self.tokens.expect("sym", "(")
            if port.value in sub.input_buses:
                conns[port.value] = self._parse_ref()
            else:
                conns[port.value] = (self.tokens.expect("id"), [])
            self.tokens.expect("sym", ")")
            if not self.tokens.accept("sym", ","):
                break
        self.tokens.expect("sym", ")")
        self.tokens.expect("sym", ";")

        rename: Dict[str, str] = {}
        for bus, width in sub.input_buses.items():
            if bus not in conns:
                raise VerilogSyntaxError(f"instance {inst} leaves input {bus} "
                                         "unconnected", *loc)
            tok, bits = conns[bus]
            if len(bits) != width:
                raise _error(tok, f"width mismatch on {inst}.{bus}: port has "
                             f"{width} bits, connection {len(bits)}")
            rename.update((bus_net(bus, i), net) for i, net in enumerate(bits))
        for gate in sub.topological_order():
            if gate.op is Op.INPUT:
                continue
            net = f"{inst}__{gate.output}".replace("[", "_").replace("]", "")
            try:
                self.netlist.add_gate(gate.op, [rename[n] for n in gate.inputs],
                                      output=net, group=gate.group)
            except ValueError as exc:  # e.g. a repeated instance name
                raise VerilogSyntaxError(str(exc), *loc) from None
            self.netlist.source_locations[net] = loc
            rename[gate.output] = net
        for bus, nets in sub.output_buses.items():
            if bus in conns:
                tok = conns[bus][0]
                bits = self.vectors.get(tok.value)
                if bits is None or len(bits) != len(nets) or bits[0] is not None:
                    raise _error(tok, f"{inst}.{bus} must drive an undriven "
                                 f"{len(nets)}-bit vector wire")
                bits[:] = [rename[net] for net in nets]

    def _parse_ref(self) -> Tuple[Token, List[str]]:
        """``ID``, ``ID[i]`` or ``ID[h:l]``: its token and nets, LSB first."""
        assert self.netlist is not None
        tok = self.tokens.expect("id")
        if self.tokens.accept("sym", "["):
            high = low = int(self.tokens.expect("num").value)
            if self.tokens.accept("sym", ":"):
                low = int(self.tokens.expect("num").value)
            self.tokens.expect("sym", "]")
        else:  # the whole bus; an unknown name reads one bit and fails there
            low = 0
            high = (self.netlist.input_buses.get(tok.value)
                    or len(self.vectors.get(tok.value, [None]))) - 1
        return tok, [self._bit(tok, i) for i in range(low, high + 1)]

    def _bit(self, tok: Token, index: int) -> str:
        """Net of bit ``index`` of an input bus or a vector wire."""
        assert self.netlist is not None
        name = tok.value
        width = self.netlist.input_buses.get(name)
        bits = self.vectors.get(name)
        if width is None and bits is None:
            raise _error(tok, f"{name!r} is neither an input bus nor a vector wire")
        if not 0 <= index < (len(bits) if width is None else width):
            raise _error(tok, f"bit {name}[{index}] out of range")
        if width is not None:
            return bus_net(name, index)
        if bits[index] is None:
            raise _error(tok, f"{name}[{index}] read before an instance drives it")
        return bits[index]

    def _parse_assign(self, output_bits: Dict[str, Dict[int, str]]) -> None:
        name_tok = self.tokens.expect("id")
        name = name_tok.value
        index: Optional[int] = None
        if self.tokens.accept("sym", "["):
            index = int(self.tokens.expect("num").value)
            self.tokens.expect("sym", "]")
        self.tokens.expect("sym", "=")
        net = self._parse_expr()
        self.tokens.expect("sym", ";")
        group = self.tokens.accept("group_tag")
        if group is not None:
            assert self.netlist is not None
            gate = self.netlist.gates.get(net)
            if gate is not None and not gate.is_source:
                self.netlist.gates[net] = dataclasses.replace(gate, group=group)

        if name in self.output_widths:
            if index is None:
                raise _error(name_tok, f"output {name} must be assigned per bit")
            if not 0 <= index < self.output_widths[name]:
                raise _error(name_tok, f"output bit {name}[{index}] out of range")
            if index in output_bits[name]:
                raise _error(name_tok, f"output bit {name}[{index}] assigned twice")
            output_bits[name][index] = net
            return
        if index is not None:
            raise _error(name_tok, f"cannot assign indexed wire {name}[{index}]")
        if name in self.assigned:
            raise _error(name_tok, f"wire {name} assigned twice")
        self.assigned[name] = net

    # Expressions ---------------------------------------------------------

    def _parse_expr(self) -> str:
        cond = self._parse_or()
        if self.tokens.accept("sym", "?"):
            d1 = self._parse_expr()
            self.tokens.expect("sym", ":")
            d0 = self._parse_expr()
            return self._new_gate(Op.MUX, (cond, d0, d1))
        return cond

    def _parse_binary(self, symbol: str, op: Op, parse_operand) -> str:
        operands = [parse_operand()]
        while self.tokens.accept("sym", symbol):
            operands.append(parse_operand())
        if len(operands) == 1:
            return operands[0]
        return self._new_gate(op, tuple(operands))

    def _parse_or(self) -> str:
        return self._parse_binary("|", Op.OR, self._parse_xor)

    def _parse_xor(self) -> str:
        return self._parse_binary("^", Op.XOR, self._parse_and)

    def _parse_and(self) -> str:
        return self._parse_binary("&", Op.AND, self._parse_unary)

    def _parse_unary(self) -> str:
        if self.tokens.accept("sym", "~"):
            net = self._parse_unary()
            return self._new_gate(Op.NOT, (net,))
        return self._parse_primary()

    def _parse_primary(self) -> str:
        assert self.netlist is not None
        if self.tokens.accept("sym", "("):
            net = self._parse_expr()
            self.tokens.expect("sym", ")")
            return net
        tok = self.tokens.peek()
        if tok.kind == "literal":
            self.tokens.next()
            return self._const(1 if tok.value.endswith("1") else 0)
        name = self.tokens.expect("id").value
        if name in _KEYWORDS:
            raise _error(tok, f"keyword {name!r} used as identifier")
        if self.tokens.accept("sym", "["):
            index = int(self.tokens.expect("num").value)
            self.tokens.expect("sym", "]")
            if 0 <= index < self.netlist.input_buses.get(name, 0):
                return f"{name}[{index}]"  # an input bit: the common case
            return self._bit(tok, index)
        if name in self.assigned:
            return self.assigned[name]
        raise _error(tok, f"reference to unassigned wire {name!r}")


def parse_verilog(source: str) -> Netlist:
    """Parse source in the emitted structural subset back to a netlist.

    Wires must be assigned before use and modules defined before they are
    instantiated (the emitters write both in that order, so this always
    holds for round-trips).  The result is the top module, with every
    instance inlined.  Its ``source_locations`` maps every created net to
    the (line, column) of the statement that produced it.
    """
    return _Parser(source).parse()
