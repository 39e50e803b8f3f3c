"""Kernel AST: the loop-nest description language the toolkit analyzes.

A *program* is a set of routines; a routine body is a tree of loops,
statements, and calls.  Statements contain memory *references*
(:class:`Access`) whose subscripts are symbolic expressions over loop
variables, program parameters, and values loaded from index arrays.

This AST serves two masters:

* The :mod:`repro.lang.executor` walks it to produce the instrumentation
  event stream (the paper would get the same stream from a binary rewriter).
  For speed, subscript expressions are compiled to Python closures when the
  program is finalized.
* The :mod:`repro.static` package lowers it to a register IR and recovers
  symbolic first-location / stride formulas by tracing use-def chains, the
  way the paper's tool analyzes machine code.

Scope identity
--------------
Every :class:`Routine` and :class:`Loop` is a *scope* and receives an integer
scope id at :meth:`Program.finalize`.  Every :class:`Access` receives an
integer reference id.  These ids are what flows through the event stream and
what all metrics are attributed to.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.lang.memory import DataObject, MemoryLayout

Env = Dict[str, int]


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expr:
    """Base class for index expressions."""

    def eval(self, env: Env) -> int:
        raise NotImplementedError

    def compile(self, prog: "Program") -> str:
        """Return a Python source fragment evaluating this expression.

        The fragment may reference ``env`` (the variable environment) and
        ``V`` (the tuple of value backing stores indexed by load slot).
        """
        raise NotImplementedError

    # Operator sugar so kernels read like the Fortran they model.
    def __add__(self, other: "ExprLike") -> "Expr":
        return Add(self, as_expr(other))

    def __radd__(self, other: "ExprLike") -> "Expr":
        return Add(as_expr(other), self)

    def __sub__(self, other: "ExprLike") -> "Expr":
        return Sub(self, as_expr(other))

    def __rsub__(self, other: "ExprLike") -> "Expr":
        return Sub(as_expr(other), self)

    def __mul__(self, other: "ExprLike") -> "Expr":
        return Mul(self, as_expr(other))

    def __rmul__(self, other: "ExprLike") -> "Expr":
        return Mul(as_expr(other), self)


ExprLike = Union[Expr, int, str]


def as_expr(value: ExprLike) -> Expr:
    """Coerce ints to :class:`Const` and strings to :class:`Var`."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, int):
        return Const(value)
    if isinstance(value, str):
        return Var(value)
    raise TypeError(f"cannot convert {value!r} to an index expression")


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = int(value)

    def eval(self, env: Env) -> int:
        return self.value

    def compile(self, prog: "Program") -> str:
        return repr(self.value)

    def __repr__(self) -> str:
        return str(self.value)


class Var(Expr):
    """A loop variable, scalar local, or program parameter."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def eval(self, env: Env) -> int:
        return env[self.name]

    def compile(self, prog: "Program") -> str:
        return f"env[{self.name!r}]"

    def __repr__(self) -> str:
        return self.name


class _BinOp(Expr):
    __slots__ = ("left", "right")
    op = "?"

    def __init__(self, left: ExprLike, right: ExprLike) -> None:
        self.left = as_expr(left)
        self.right = as_expr(right)

    def compile(self, prog: "Program") -> str:
        return f"({self.left.compile(prog)} {self.op} {self.right.compile(prog)})"

    def __repr__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


class Add(_BinOp):
    op = "+"

    def eval(self, env: Env) -> int:
        return self.left.eval(env) + self.right.eval(env)


class Sub(_BinOp):
    op = "-"

    def eval(self, env: Env) -> int:
        return self.left.eval(env) - self.right.eval(env)


class Mul(_BinOp):
    op = "*"

    def eval(self, env: Env) -> int:
        return self.left.eval(env) * self.right.eval(env)


class FloorDiv(_BinOp):
    op = "//"

    def eval(self, env: Env) -> int:
        return self.left.eval(env) // self.right.eval(env)


class Mod(_BinOp):
    op = "%"

    def eval(self, env: Env) -> int:
        return self.left.eval(env) % self.right.eval(env)


class Min(Expr):
    __slots__ = ("args",)

    def __init__(self, *args: ExprLike) -> None:
        self.args = tuple(as_expr(a) for a in args)

    def eval(self, env: Env) -> int:
        return min(a.eval(env) for a in self.args)

    def compile(self, prog: "Program") -> str:
        return "min(" + ", ".join(a.compile(prog) for a in self.args) + ")"

    def __repr__(self) -> str:
        return "min(" + ", ".join(map(repr, self.args)) + ")"


class Max(Expr):
    __slots__ = ("args",)

    def __init__(self, *args: ExprLike) -> None:
        self.args = tuple(as_expr(a) for a in args)

    def eval(self, env: Env) -> int:
        return max(a.eval(env) for a in self.args)

    def compile(self, prog: "Program") -> str:
        return "max(" + ", ".join(a.compile(prog) for a in self.args) + ")"

    def __repr__(self) -> str:
        return "max(" + ", ".join(map(repr, self.args)) + ")"


class Load(Expr):
    """The value loaded by an array reference: makes subscripts *indirect*.

    ``Load(Access(jtion, [m]))`` models Fortran's ``jtion(m)`` used as a
    subscript.  The wrapped access is a real memory reference: executing the
    enclosing statement emits its access event, and its loaded value (from
    the array's backing store) feeds the surrounding expression.
    """

    __slots__ = ("access",)

    def __init__(self, access: "Access") -> None:
        if access.is_store:
            raise ValueError("Load() must wrap a load access")
        self.access = access

    def eval(self, env: Env) -> int:
        return self.access.value(env)

    def compile(self, prog: "Program") -> str:
        return self.access.compile_value(prog)

    def __repr__(self) -> str:
        return f"load({self.access})"


# ---------------------------------------------------------------------------
# References and statements
# ---------------------------------------------------------------------------

class Access:
    """One memory reference: an array, its subscripts, and load/store-ness."""

    __slots__ = (
        "array", "indices", "is_store", "field", "rid",
        "_addr_fn", "_value_fn", "loc", "scope",
    )

    def __init__(
        self,
        array: DataObject,
        indices: Sequence[ExprLike],
        is_store: bool = False,
        field: Optional[str] = None,
    ) -> None:
        if len(indices) != len(array.shape):
            raise ValueError(
                f"{array.name}: {len(indices)} subscripts for "
                f"{len(array.shape)}-dimensional array"
            )
        self.array = array
        self.indices = tuple(as_expr(ix) for ix in indices)
        self.is_store = is_store
        self.field = field
        self.rid = -1           # assigned at finalize
        self.loc = ""           # source location, set by the enclosing Stmt
        self.scope = -1         # scope id of the innermost enclosing scope
        self._addr_fn: Optional[Callable[[Env], int]] = None
        self._value_fn: Optional[Callable[[Env], int]] = None

    # -- interpretation -------------------------------------------------

    def address(self, env: Env) -> int:
        if self._addr_fn is not None:
            return self._addr_fn(env)
        addr = self.array.base
        if self.field is not None:
            addr += self.array.field_offset(self.field)
        for ix, stride in zip(self.indices, self.array.strides):
            addr += (ix.eval(env) - self.array.origin) * stride
        return addr

    def value(self, env: Env) -> int:
        """Loaded value, for index arrays with a backing store."""
        values = self.array.values
        if values is None:
            return 0
        flat = self.array.flat_index([ix.eval(env) for ix in self.indices])
        return int(values[flat])

    # -- compilation ----------------------------------------------------

    def compile_addr(self, prog: "Program") -> str:
        """Python fragment computing the byte address of this reference."""
        base = self.array.base
        if self.field is not None:
            base += self.array.field_offset(self.field)
        parts: List[str] = []
        const = base
        for ix, stride in zip(self.indices, self.array.strides):
            if stride == 0:
                continue
            if isinstance(ix, Const):
                const += (ix.value - self.array.origin) * stride
            else:
                const -= self.array.origin * stride
                if stride == 1:
                    parts.append(ix.compile(prog))
                else:
                    parts.append(f"{ix.compile(prog)} * {stride}")
        parts.append(repr(const))
        return " + ".join(parts)

    def compile_value(self, prog: "Program") -> str:
        """Python fragment loading this reference's backing-store value."""
        slot = prog.value_slot(self.array)
        from repro.lang.memory import column_major_strides, row_major_strides
        if self.array.order == "F":
            elem_strides = column_major_strides(self.array.shape)
        else:
            elem_strides = row_major_strides(self.array.shape)
        parts: List[str] = []
        const = 0
        for ix, stride in zip(self.indices, elem_strides):
            if stride == 0:
                continue
            if isinstance(ix, Const):
                const += (ix.value - self.array.origin) * stride
            else:
                const -= self.array.origin * stride
                if stride == 1:
                    parts.append(ix.compile(prog))
                else:
                    parts.append(f"{ix.compile(prog)} * {stride}")
        parts.append(repr(const))
        return f"V[{slot}][" + " + ".join(parts) + "]"

    def __repr__(self) -> str:
        subs = ",".join(map(repr, self.indices))
        star = "*" if self.is_store else ""
        fld = f".{self.field}" if self.field else ""
        return f"{self.array.name}{fld}({subs}){star}"


class Node:
    """Base class for body nodes."""

    __slots__ = ()


class Stmt(Node):
    """One source statement: an ordered list of references plus arithmetic.

    ``ops`` counts the non-memory operations the statement performs; the
    timing model charges them at the machine's issue width.  References are
    executed in order (loads before the store, matching Fortran semantics,
    is the caller's responsibility when building the list).
    """

    __slots__ = ("accesses", "ops", "loc", "plan")

    def __init__(self, accesses: Sequence[Access], ops: int = 1, loc: str = "") -> None:
        self.accesses = list(accesses)
        self.ops = int(ops)
        self.loc = loc
        #: Flat execution plan: (rid, addr_fn, is_store) in event order,
        #: including subscript loads; built at Program finalize.
        self.plan: List[Tuple[int, Callable[[Env], int], bool]] = []
        for acc in self.accesses:
            if not acc.loc:
                acc.loc = loc


class ScalarAssign(Node):
    """Assign an expression to a scalar local variable (register-resident).

    The assignment itself emits no memory traffic, but any :class:`Load`
    inside ``expr`` does.  Used for computed indices like GTC's cell ids.
    """

    __slots__ = ("var", "expr", "loc", "plan", "_run")

    def __init__(self, var: str, expr: ExprLike, loc: str = "") -> None:
        self.var = var
        self.expr = as_expr(expr)
        self.loc = loc
        #: Event plan for the loads embedded in ``expr``.
        self.plan: List[Tuple[int, Callable[[Env], int], bool]] = []
        self._run: Optional[Callable] = None


class Loop(Node):
    """A counted loop: ``for var = lo, hi, step`` (inclusive bounds).

    Loops are scopes: the executor emits enter/exit events carrying the
    loop's scope id.  ``is_time_loop`` marks algorithmic time-step loops so
    the recommendation engine can apply Table I's last row.
    """

    __slots__ = (
        "var", "lo", "hi", "step", "body", "name", "loc",
        "sid", "is_time_loop", "_lo_fn", "_hi_fn",
    )

    def __init__(
        self,
        var: str,
        lo: ExprLike,
        hi: ExprLike,
        body: Sequence[Node],
        step: int = 1,
        name: str = "",
        loc: str = "",
        is_time_loop: bool = False,
    ) -> None:
        if step == 0:
            raise ValueError("loop step must be non-zero")
        self.var = var
        self.lo = as_expr(lo)
        self.hi = as_expr(hi)
        self.step = int(step)
        self.body = list(body)
        self.name = name or f"loop_{var}"
        self.loc = loc
        self.sid = -1
        self.is_time_loop = is_time_loop
        self._lo_fn: Optional[Callable[[Env], int]] = None
        self._hi_fn: Optional[Callable[[Env], int]] = None


class Call(Node):
    """Invoke another routine (a scope boundary, as in the paper)."""

    __slots__ = ("callee", "loc")

    def __init__(self, callee: str, loc: str = "") -> None:
        self.callee = callee
        self.loc = loc


class Routine(Node):
    """A procedure: the outermost scope unit of attribution."""

    __slots__ = ("name", "body", "sid", "loc", "language")

    def __init__(
        self,
        name: str,
        body: Sequence[Node],
        loc: str = "",
        language: str = "fortran",
    ) -> None:
        self.name = name
        self.body = list(body)
        self.sid = -1
        self.loc = loc or name
        self.language = language


# ---------------------------------------------------------------------------
# Scope / reference metadata
# ---------------------------------------------------------------------------

class ScopeInfo:
    """Static description of one scope (routine or loop)."""

    __slots__ = ("sid", "name", "kind", "parent", "routine", "loc",
                 "is_time_loop", "depth", "node")

    def __init__(self, sid: int, name: str, kind: str, parent: int,
                 routine: str, loc: str, is_time_loop: bool, depth: int,
                 node: Node) -> None:
        self.sid = sid
        self.name = name
        self.kind = kind            # "routine" | "loop"
        self.parent = parent        # parent scope id within the same routine
        self.routine = routine
        self.loc = loc
        self.is_time_loop = is_time_loop
        self.depth = depth
        self.node = node

    def __repr__(self) -> str:
        return f"<scope {self.sid} {self.kind} {self.name}>"


class RefInfo:
    """Static description of one memory reference."""

    __slots__ = ("rid", "array", "field", "is_store", "loc", "scope", "access")

    def __init__(self, rid: int, array: str, field: Optional[str],
                 is_store: bool, loc: str, scope: int, access: Access) -> None:
        self.rid = rid
        self.array = array
        self.field = field
        self.is_store = is_store
        self.loc = loc
        self.scope = scope
        self.access = access

    def __repr__(self) -> str:
        return f"<ref {self.rid} {self.access!r} @{self.loc}>"


# ---------------------------------------------------------------------------
# Program
# ---------------------------------------------------------------------------

class Program:
    """A finalized kernel: routines + layout + scope/reference tables."""

    def __init__(
        self,
        name: str,
        layout: MemoryLayout,
        routines: Sequence[Routine],
        entry: str = "main",
        params: Optional[Dict[str, int]] = None,
    ) -> None:
        self.name = name
        self.layout = layout
        self.routines: Dict[str, Routine] = {r.name: r for r in routines}
        if len(self.routines) != len(routines):
            raise ValueError("duplicate routine names")
        if entry not in self.routines:
            raise ValueError(f"entry routine {entry!r} not defined")
        self.entry = entry
        self.params: Dict[str, int] = dict(params or {})
        self.scopes: List[ScopeInfo] = []
        self.refs: List[RefInfo] = []
        self._value_arrays: List[DataObject] = []
        self._value_slots: Dict[str, int] = {}
        self._finalized = False
        self.finalize()

    # -- finalize: assign ids, compile hot paths ------------------------

    def value_slot(self, array: DataObject) -> int:
        """Slot of ``array``'s backing store in the executor's V tuple."""
        slot = self._value_slots.get(array.name)
        if slot is None:
            if array.values is None:
                raise ValueError(
                    f"array {array.name!r} used in a Load() but has no "
                    f"value backing store; declare it with index_array()"
                )
            slot = len(self._value_arrays)
            self._value_slots[array.name] = slot
            self._value_arrays.append(array)
        return slot

    def value_stores(self) -> Tuple:
        """Backing stores for the compiled closures.

        Converted to plain lists: index-array contents are *frozen* when the
        Program is constructed (apps precompute them before building the AST).
        """
        return tuple(
            a.values.tolist() if hasattr(a.values, "tolist") else list(a.values)
            for a in self._value_arrays
        )

    def finalize(self) -> None:
        if self._finalized:
            return
        for routine in self.routines.values():
            sid = len(self.scopes)
            routine.sid = sid
            self.scopes.append(ScopeInfo(
                sid, routine.name, "routine", -1, routine.name,
                routine.loc, False, 0, routine,
            ))
        for routine in self.routines.values():
            self._finalize_body(routine.body, routine.sid, routine, depth=1)
        self._compile()
        self._finalized = True

    def _finalize_body(self, body: Sequence[Node], parent_sid: int,
                       routine: Routine, depth: int) -> None:
        for node in body:
            if isinstance(node, Loop):
                sid = len(self.scopes)
                node.sid = sid
                self.scopes.append(ScopeInfo(
                    sid, node.name, "loop", parent_sid, routine.name,
                    node.loc, node.is_time_loop, depth, node,
                ))
                self._finalize_body(node.body, sid, routine, depth + 1)
            elif isinstance(node, Stmt):
                for acc in node.accesses:
                    self._register_ref(acc, parent_sid)
            elif isinstance(node, ScalarAssign):
                for acc in _loads_in_expr(node.expr):
                    acc.loc = acc.loc or node.loc
                    self._register_ref(acc, parent_sid)
            elif isinstance(node, Call):
                if node.callee not in self.routines:
                    raise ValueError(f"call to undefined routine {node.callee!r}")
            else:
                raise TypeError(f"unexpected body node: {node!r}")

    def _register_ref(self, acc: Access, scope_sid: int) -> None:
        # Subscript loads (indirect indexing) are references too.
        for ix in acc.indices:
            for inner in _loads_in_expr(ix):
                inner.loc = inner.loc or acc.loc
                self._register_ref(inner, scope_sid)
        if acc.rid >= 0:
            raise ValueError(
                f"reference {acc!r} appears in more than one statement; "
                f"build a fresh Access per occurrence"
            )
        acc.rid = len(self.refs)
        acc.scope = scope_sid
        self.refs.append(RefInfo(
            acc.rid, acc.array.name, acc.field, acc.is_store,
            acc.loc, scope_sid, acc,
        ))

    def _compile(self) -> None:
        """Compile loop bounds and reference addresses to closures.

        Two phases: source generation first (which registers every value
        array in a slot), then evaluation against the complete slot tuple —
        a closure compiled early must still see arrays registered later.
        """
        jobs: List[Tuple[Callable[[Callable], None], str]] = []
        for routine in self.routines.values():
            self._gen_body(routine.body, jobs)
        #: Globals of every compiled fragment (value stores and builtins);
        #: code generated later from the same fragments runs in it too.
        self.namespace = {"V": self.value_stores(), "min": min, "max": max}
        for setter, src in jobs:
            setter(eval(src, self.namespace))

    def _gen_body(self, body: Sequence[Node], jobs: List) -> None:
        for node in body:
            if isinstance(node, Loop):
                jobs.append((_setter(node, "_lo_fn"),
                             f"lambda env: {node.lo.compile(self)}"))
                jobs.append((_setter(node, "_hi_fn"),
                             f"lambda env: {node.hi.compile(self)}"))
                self._gen_body(node.body, jobs)
            elif isinstance(node, Stmt):
                node.plan = []
                for acc in node.accesses:
                    self._gen_access(acc, node.plan, jobs)
            elif isinstance(node, ScalarAssign):
                node.plan = []
                for acc in _loads_in_expr(node.expr):
                    self._gen_access(acc, node.plan, jobs, loads_only=True)
                jobs.append((_setter(node, "_run"),
                             f"lambda env: {node.expr.compile(self)}"))

    def _gen_access(self, acc: Access, plan: List, jobs: List,
                    loads_only: bool = False) -> None:
        for ix in acc.indices:
            for inner in _loads_in_expr(ix):
                self._gen_access(inner, plan, jobs, loads_only=True)
        rid, is_store = acc.rid, acc.is_store

        def set_addr(fn: Callable, acc=acc, plan=plan,
                     rid=rid, is_store=is_store) -> None:
            acc._addr_fn = fn
            plan.append((rid, fn, is_store))

        jobs.append((set_addr, f"lambda env: {acc.compile_addr(self)}"))
        if acc.array.values is not None and not acc.is_store:
            jobs.append((_setter(acc, "_value_fn"),
                         f"lambda env: {acc.compile_value(self)}"))

    # -- introspection ---------------------------------------------------

    def scope(self, sid: int) -> ScopeInfo:
        return self.scopes[sid]

    def ref(self, rid: int) -> RefInfo:
        return self.refs[rid]

    def scope_named(self, name: str) -> ScopeInfo:
        for info in self.scopes:
            if info.name == name:
                return info
        raise KeyError(name)

    def loops_of(self, routine_name: str) -> List[ScopeInfo]:
        return [s for s in self.scopes
                if s.routine == routine_name and s.kind == "loop"]

    def enclosing_loops(self, sid: int) -> List[ScopeInfo]:
        """Loop scopes enclosing scope ``sid``, innermost first."""
        chain: List[ScopeInfo] = []
        info = self.scopes[sid]
        while info.parent >= 0:
            if info.kind == "loop":
                chain.append(info)
            info = self.scopes[info.parent]
        if info.kind == "loop":
            chain.append(info)
        return chain

    def __repr__(self) -> str:
        return (f"Program({self.name!r}, {len(self.routines)} routines, "
                f"{len(self.scopes)} scopes, {len(self.refs)} refs)")


def _setter(obj, attr: str) -> Callable:
    """Return a callback storing its argument as ``obj.attr``."""
    def set_it(fn: Callable) -> None:
        setattr(obj, attr, fn)
    return set_it


def _loads_in_expr(expr: Expr) -> List[Access]:
    """Collect Load accesses inside an expression tree, evaluation order."""
    found: List[Access] = []
    _walk_loads(expr, found)
    return found


def _walk_loads(expr: Expr, out: List[Access]) -> None:
    if isinstance(expr, Load):
        for ix in expr.access.indices:
            _walk_loads(ix, out)
        out.append(expr.access)
    elif isinstance(expr, _BinOp):
        _walk_loads(expr.left, out)
        _walk_loads(expr.right, out)
    elif isinstance(expr, (Min, Max)):
        for arg in expr.args:
            _walk_loads(arg, out)
