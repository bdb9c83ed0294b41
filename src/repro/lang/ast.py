"""Abstract syntax tree for the C subset.

Nodes are plain dataclasses.  Each carries a source :class:`Location` and
supports generic traversal through :meth:`Node.children` / :meth:`Node.walk`.
The checkers visit "every tree node" the way xg++ extensions do through
shared indexes built by one flat traversal, :func:`preorder`: each
function's :class:`NodeIndex` (:meth:`FunctionDef.node_index`) and each
CFG event's node tuple (:func:`repro.mc.summary.event_index`).

Structural equality for pattern matching deliberately ignores locations:
two ``x + 1`` expressions parsed from different lines are equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterator, Optional

from ..obs.metrics import current_metrics
from .source import Location, unknown_location


# Per-class tuple of field names that can hold child nodes.  The
# traversal methods below are the hottest code in the engine (pattern
# matching visits "every tree node"), and ``dataclasses.fields`` is far
# too slow to call once per visit.
_CHILD_FIELDS: dict = {}

#: Field annotations of payloads that never hold a node (names,
#: operators, spellings, flags), which no traversal need look into.
_PAYLOAD_TYPES = frozenset({"str", "bool", "int", "Optional[str]",
                            "list[str]"})


def _child_fields(cls) -> tuple:
    names = _CHILD_FIELDS.get(cls)
    if names is None:
        names = tuple(
            f.name for f in fields(cls)
            if f.name != "location" and f.type not in _PAYLOAD_TYPES)
        _CHILD_FIELDS[cls] = names
    return names


@dataclass
class Node:
    """Base class for all AST nodes."""

    location: Location = field(
        default_factory=unknown_location, repr=False, compare=False, kw_only=True
    )

    def children(self) -> Iterator["Node"]:
        """Yield direct child nodes, in source order."""
        for name in _child_fields(type(self)):
            value = getattr(self, name)
            if isinstance(value, Node):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Node):
                        yield item

    def walk(self) -> Iterator["Node"]:
        """Yield this node and every descendant, pre-order.

        Iterative: the recursive ``yield from`` formulation costs
        O(depth) per yielded node, which dominates on real handler
        bodies.
        """
        stack = [self]
        pop = stack.pop
        while stack:
            node = pop()
            yield node
            children = list(node.children())
            children.reverse()
            stack.extend(children)

    @property
    def kind(self) -> str:
        return type(self).__name__


def preorder(root: Node) -> list:
    """``root`` and every node below it, in :meth:`Node.walk` pre-order.

    The one traversal behind the shared node indexes, flat and without
    the generator machinery: report, candidate and flow-graph call order
    all follow this order.
    """
    nodes: list = []
    append = nodes.append
    stack = [root]
    pop, push = stack.pop, stack.append
    fields_of = _CHILD_FIELDS
    node_cls = Node
    seq_types = (list, tuple)
    while stack:
        node = pop()
        append(node)
        names = fields_of.get(node.__class__)
        if names is None:
            names = _child_fields(node.__class__)
        # Children in reverse onto the stack, so they pop in order.
        i = len(names)
        while i:
            i -= 1
            value = getattr(node, names[i])
            if isinstance(value, node_cls):
                push(value)
            elif isinstance(value, seq_types):
                for item in reversed(value):
                    if isinstance(item, node_cls):
                        push(item)
    return nodes


class NodeIndex:
    """Every node of one function, built once: ``nodes`` in
    :meth:`Node.walk` pre-order, and :meth:`of` a class's nodes in the
    same order.  Read-only: the lists are shared by every reader."""

    __slots__ = ("nodes", "_by_class")

    def __init__(self, nodes: list):
        self.nodes = tuple(nodes)
        by_class: dict = {}
        for node in nodes:
            group = by_class.get(node.__class__)
            if group is None:
                by_class[node.__class__] = [node]
            else:
                group.append(node)
        self._by_class = by_class

    def of(self, cls) -> list:
        """The nodes whose class is exactly ``cls``, in pre-order."""
        return self._by_class.get(cls, [])


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr(Node):
    """Base class for expressions.  ``ctype`` is filled in by sema."""

    def __post_init__(self):
        # Annotated lazily by repro.lang.sema; not part of equality.
        self.ctype = None


@dataclass(eq=False)
class IntLit(Expr):
    text: str = ""

    @property
    def value(self) -> int:
        t = self.text.rstrip("uUlL")
        if t.startswith(("0x", "0X")):
            return int(t, 16)
        if len(t) > 1 and t.startswith("0"):
            return int(t, 8)
        return int(t, 10)

    def __eq__(self, other):
        return isinstance(other, IntLit) and self.value == other.value

    def __hash__(self):
        return hash(("IntLit", self.value))


@dataclass
class FloatLit(Expr):
    text: str = ""

    @property
    def value(self) -> float:
        return float(self.text.rstrip("fFlL"))


@dataclass
class CharLit(Expr):
    text: str = ""


@dataclass
class StringLit(Expr):
    text: str = ""


@dataclass
class Ident(Expr):
    name: str = ""


@dataclass
class Call(Expr):
    func: Expr = None
    args: list[Expr] = field(default_factory=list)

    @property
    def callee_name(self) -> Optional[str]:
        """The called function's name when the callee is a plain identifier."""
        return self.func.name if isinstance(self.func, Ident) else None


@dataclass
class BinaryOp(Expr):
    op: str = ""
    left: Expr = None
    right: Expr = None


@dataclass
class UnaryOp(Expr):
    """Prefix operator: ``-x``, ``!x``, ``~x``, ``*p``, ``&x``, ``++x``, ``--x``."""

    op: str = ""
    operand: Expr = None


@dataclass
class PostfixOp(Expr):
    """Postfix ``x++`` / ``x--``."""

    op: str = ""
    operand: Expr = None


@dataclass
class Assign(Expr):
    """Assignment, including compound forms (``op`` is ``=``, ``+=``, ...)."""

    op: str = "="
    target: Expr = None
    value: Expr = None


@dataclass
class Ternary(Expr):
    cond: Expr = None
    then: Expr = None
    otherwise: Expr = None


@dataclass
class Member(Expr):
    """``base.name`` (arrow=False) or ``base->name`` (arrow=True)."""

    base: Expr = None
    name: str = ""
    arrow: bool = False


@dataclass
class Index(Expr):
    base: Expr = None
    index: Expr = None


@dataclass
class Cast(Expr):
    type_name: "TypeName" = None
    operand: Expr = None


@dataclass
class SizeofExpr(Expr):
    operand: Expr = None


@dataclass
class SizeofType(Expr):
    type_name: "TypeName" = None


@dataclass
class Comma(Expr):
    parts: list[Expr] = field(default_factory=list)


@dataclass
class OpaqueExpr(Expr):
    """Tolerant-mode fallback: an expression region the parser could not
    understand.  ``text`` carries the raw token span.  Analyses must
    treat it as havoc — it may read or write anything — and never match
    through it.  Produced only by the tolerant frontend."""

    text: str = ""


# ---------------------------------------------------------------------------
# Types as written in source (resolved to repro.lang.ctypes by sema)
# ---------------------------------------------------------------------------


@dataclass
class TypeName(Node):
    """A parsed type: base specifier text plus derived pointer/array layers.

    ``specifiers`` keeps the ordered keyword/identifier spelling
    (``["unsigned", "long"]``, ``["struct", "Header"]``, ``["MyTypedef"]``).
    ``pointer_depth`` counts ``*`` layers; ``array_dims`` holds one entry per
    ``[]`` (the expression, or None for ``[]``).
    """

    specifiers: list[str] = field(default_factory=list)
    pointer_depth: int = 0
    array_dims: list[Optional[Expr]] = field(default_factory=list)
    qualifiers: list[str] = field(default_factory=list)

    @property
    def base_spelling(self) -> str:
        return " ".join(self.specifiers)

    @property
    def is_void(self) -> bool:
        return self.specifiers == ["void"] and self.pointer_depth == 0

    @property
    def is_floating(self) -> bool:
        return bool(set(self.specifiers) & {"float", "double"}) and self.pointer_depth == 0


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt(Node):
    """Base class for statements."""


@dataclass
class ExprStmt(Stmt):
    expr: Expr = None


@dataclass
class EmptyStmt(Stmt):
    pass


@dataclass
class Block(Stmt):
    stmts: list[Stmt] = field(default_factory=list)


@dataclass
class If(Stmt):
    cond: Expr = None
    then: Stmt = None
    otherwise: Optional[Stmt] = None


@dataclass
class While(Stmt):
    cond: Expr = None
    body: Stmt = None


@dataclass
class DoWhile(Stmt):
    body: Stmt = None
    cond: Expr = None


@dataclass
class For(Stmt):
    init: Optional[Node] = None  # Expr or DeclStmt
    cond: Optional[Expr] = None
    step: Optional[Expr] = None
    body: Stmt = None


@dataclass
class Switch(Stmt):
    cond: Expr = None
    body: Block = None


@dataclass
class Case(Stmt):
    value: Expr = None


@dataclass
class Default(Stmt):
    pass


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class Goto(Stmt):
    label: str = ""


@dataclass
class Label(Stmt):
    name: str = ""


@dataclass
class OpaqueStmt(Stmt):
    """Tolerant-mode fallback: a statement region the parser resynced
    over (panic-mode recovery to ``;`` / ``}``).  ``text`` carries the
    raw token span and ``reason`` the parse error that triggered
    recovery.  The CFG builder lowers it as an ordinary event; the
    feasibility layer havocs every tracked fact across it; the engine
    suppresses reports on paths that cross one."""

    text: str = ""
    reason: str = ""


@dataclass
class DeclStmt(Stmt):
    decls: list["VarDecl"] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass
class Decl(Node):
    """Base class for file-scope declarations."""


@dataclass
class VarDecl(Decl):
    name: str = ""
    type_name: TypeName = None
    init: Optional[Expr] = None
    storage: Optional[str] = None  # "static", "extern", ...


@dataclass
class ParamDecl(Decl):
    name: str = ""
    type_name: TypeName = None


@dataclass
class FieldDecl(Decl):
    name: str = ""
    type_name: TypeName = None


@dataclass
class StructDef(Decl):
    tag: str = ""
    fields_: list[FieldDecl] = field(default_factory=list)
    is_union: bool = False


@dataclass
class EnumDef(Decl):
    tag: str = ""
    enumerators: list[tuple] = field(default_factory=list)  # (name, Expr|None)


@dataclass
class TypedefDecl(Decl):
    name: str = ""
    type_name: TypeName = None


@dataclass
class FunctionDecl(Decl):
    """A prototype (no body)."""

    name: str = ""
    return_type: TypeName = None
    params: list[ParamDecl] = field(default_factory=list)
    storage: Optional[str] = None


@dataclass
class FunctionDef(Decl):
    """A function definition with a body."""

    name: str = ""
    return_type: TypeName = None
    params: list[ParamDecl] = field(default_factory=list)
    body: Block = None
    storage: Optional[str] = None

    @property
    def takes_no_params(self) -> bool:
        if not self.params:
            return True
        if len(self.params) == 1 and self.params[0].type_name.is_void:
            return True
        return False

    def node_index(self) -> NodeIndex:
        """This function's :class:`NodeIndex`, built on first use and
        kept on the node, so it goes when the unit's AST goes.  Each
        build adds the function's node count to the
        ``frontend.nodes_indexed`` counter."""
        index = self.__dict__.get("_memo_index")
        if index is None:
            index = self._memo_index = NodeIndex(preorder(self))
            metrics = current_metrics()
            if metrics is not None:
                metrics.inc("frontend.nodes_indexed", len(index.nodes))
        return index


@dataclass
class TranslationUnit(Node):
    """One parsed source file.

    ``quarantined`` is filled by the tolerant frontend only: one
    ``(function-or-region name, message)`` pair per region that could
    not be recovered into the AST at all.  The fleet turns each entry
    into a :class:`repro.mc.resilience.Quarantine` with
    ``phase="input"``.
    """

    filename: str = ""
    decls: list[Decl] = field(default_factory=list)
    quarantined: list = field(default_factory=list)

    def functions(self) -> list[FunctionDef]:
        return [d for d in self.decls if isinstance(d, FunctionDef)]

    def function(self, name: str) -> FunctionDef:
        for d in self.decls:
            if isinstance(d, FunctionDef) and d.name == name:
                return d
        raise KeyError(name)
