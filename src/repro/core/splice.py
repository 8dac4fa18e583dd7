"""Build a method's loop by splicing the stage methods it calls.

:func:`splice` turns a template such as ``Simulator._run_fast``::

    def _run_fast(self, n):
        for _ in range(n):
            self._step()

into one function: every statement ``self.<stage>(args)`` naming a method
in ``stages`` is replaced by that method's body, recursively, with each
parameter bound to its argument. The stage methods stay the only written
form of the pipeline; the spliced function runs the same statements without
a frame per stage, and is compiled under the class's own file name with the
stages' line numbers, so tracebacks, profiles and coverage name the stage
lines that ran.

Rules (any construct outside them raises ``SpliceError`` at generation):

- A top-level guard ``if cond: return`` becomes ``if not cond:`` around the
  rest of the body; any other ``return`` raises.
- A stage call must be a statement with positional arguments only.
- A *leading binding* is one of the ``name = expr`` statements a stage
  opens with, where ``expr`` only reads names, constants, attributes and
  subscripts, with arithmetic. Its name is hoisted out of the loop, bound
  once per call, when every binding of the name in the spliced function is
  that same statement and the value reads only ``self``, module names,
  other hoisted names and attributes the spliced code never assigns. A
  name bound only by leading bindings must have one value.
- A spliced body must not rebind a local its caller still reads afterwards,
  nor any module name another stage reads.
- The source file must still be the one the class was loaded from (each
  method's first line is compared), so an edit after import cannot mix
  versions in one process.
"""

from __future__ import annotations

import ast
import copy
import inspect
import sys
from typing import Any, Callable, Iterator

__all__ = ["SpliceError", "splice"]

_SIMPLE = (ast.Assign, ast.AugAssign, ast.Expr, ast.Pass, ast.Delete)
_PURE = (ast.Name, ast.Constant, ast.Attribute, ast.Subscript, ast.BinOp)
_OPS = (ast.expr_context, ast.operator)
_SCOPED = (ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
           ast.NamedExpr, ast.Yield, ast.YieldFrom, ast.Await)


class SpliceError(ValueError):
    """A stage method uses a construct the splicer does not handle."""


def _stage_call(s: ast.stmt, stages: tuple[str, ...]) -> ast.Call | None:
    v = s.value if isinstance(s, ast.Expr) else None
    f = v.func if isinstance(v, ast.Call) else None
    if isinstance(f, ast.Attribute) and f.attr in stages and _is_self(f.value):
        return v  # type: ignore[return-value]
    return None


def _is_self(e: ast.AST) -> bool:
    return isinstance(e, ast.Name) and e.id == "self"


def _pure(e: ast.AST, name_ok: Callable[[str], bool] = lambda _: True,
          attr_ok: Callable[[str], bool] = lambda _: True) -> bool:
    """``e`` has no side effects; under the two predicates, it is also run-invariant."""
    if not isinstance(e, _PURE) or isinstance(e, ast.Attribute) and not attr_ok(e.attr):
        return False
    if isinstance(e, ast.Name):
        return name_ok(e.id)
    return all(_pure(c, name_ok, attr_ok) for c in ast.iter_child_nodes(e)
               if not isinstance(c, _OPS))


def _unguard(body: list[ast.stmt], where: str) -> list[ast.stmt]:
    """Rewrite top-level ``if cond: return`` guards; reject any other return."""
    for k, s in enumerate(body):
        if (isinstance(s, ast.If) and not s.orelse and len(s.body) == 1
                and isinstance(s.body[0], ast.Return) and s.body[0].value is None):
            t = s.test
            neg = t.operand if isinstance(t, ast.UnaryOp) and isinstance(t.op, ast.Not) else (
                ast.copy_location(ast.UnaryOp(op=ast.Not(), operand=t), t))
            rest = _unguard(body[k + 1:], where) or [ast.copy_location(ast.Pass(), s)]
            return body[:k] + [ast.copy_location(ast.If(test=neg, body=rest, orelse=[]), s)]
    for n in (n for s in body for n in ast.walk(s) if isinstance(n, ast.Return)):
        raise SpliceError(f"{where}: line {n.lineno}: return outside a top-level guard")
    return body


def _header(s: ast.stmt) -> list[ast.AST]:
    """The parts of ``s`` that ``s`` itself evaluates (not its nested blocks)."""
    if isinstance(s, (ast.If, ast.While)):
        return [s.test]
    return [s.target, s.iter] if isinstance(s, ast.For) else [s]


def _walk(body: list[ast.stmt]) -> Iterator[ast.stmt]:
    for s in body:
        yield s
        for field in ("body", "orelse"):
            yield from _walk(getattr(s, field, []))


class _Splicer:
    def __init__(self, methods: dict[str, ast.FunctionDef], stages: tuple[str, ...]) -> None:
        self.methods, self.stages = methods, stages
        self.leading: set[int] = set()  # id() of every stage's leading bindings
        self.spliced: list[tuple[str, set[str], set[str]]] = []  # stage, binds, live after
        self.free: dict[str, set[str]] = {}  # stage -> module names it reads
        self.ready: dict[str, tuple[list[ast.stmt], set[str]]] = {}
        self.rw: dict[int, tuple[set[str], set[str]]] = {}
        self.attrs: set[str] = set()  # attribute names the spliced code assigns
        self.indexed: set[str] = set()  # dumps of the subscripted values it assigns

    def names(self, s: ast.stmt) -> tuple[set[str], set[str]]:
        """The names ``s`` itself reads and binds (cached; checks ``s`` too)."""
        if id(s) not in self.rw:
            reads: set[str] = set()
            binds: set[str] = set()
            for n in (n for part in _header(s) for n in ast.walk(part)):
                if isinstance(n, ast.Name):
                    (reads if isinstance(n.ctx, ast.Load) else binds).add(n.id)
                elif isinstance(n, _SCOPED):
                    raise SpliceError(f"line {n.lineno}: {type(n).__name__}")
                elif not isinstance(getattr(n, "ctx", None), ast.Load):
                    if isinstance(n, ast.Attribute):
                        self.attrs.add(n.attr)
                    elif isinstance(n, ast.Subscript):
                        self.indexed.add(ast.dump(n.value))
                elif (isinstance(n, ast.Attribute) and n.attr in self.stages
                        and _is_self(n.value) and not _stage_call(s, self.stages)):
                    raise SpliceError(f"line {n.lineno}: self.{n.attr} used other than "
                                      "as a call statement")
            self.rw[id(s)] = reads | binds if isinstance(s, ast.AugAssign) else reads, binds
        return self.rw[id(s)]

    def prepare(self, fn: ast.FunctionDef) -> tuple[list[ast.stmt], set[str]]:
        """Check ``fn`` once; return its body unguarded, and the names it binds."""
        if fn.name not in self.ready:
            body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
            for s in body:
                if not (isinstance(s, ast.Assign) and len(s.targets) == 1
                        and isinstance(s.targets[0], ast.Name) and _pure(s.value)):
                    break
                self.leading.add(id(s))
            body = _unguard(list(body), fn.name)
            reads, binds = (set().union(*x) for x in zip(*map(self.names, _walk(body))))
            self.free[fn.name] = reads - binds - {a.arg for a in fn.args.args}
            self.ready[fn.name] = body, binds
        return self.ready[fn.name]

    def live(self, body: list[ast.stmt], out: set[str], rec: dict[int, set[str]],
             loop: tuple[set[str], set[str]] = (set(), set())) -> set[str]:
        """Names live before ``body``; records the live set after each stage call."""
        live = set(out)
        for s in reversed(body):
            reads, binds = self.names(s) if isinstance(s, (*_SIMPLE, ast.If, ast.For,
                                                          ast.While)) else (set(), set())
            if isinstance(s, ast.If):
                live = self.live(s.body, live, rec, loop) | self.live(s.orelse, live, rec, loop)
            elif isinstance(s, (ast.For, ast.While)) and not s.orelse:
                # live at the loop head (a while re-tests): iterate to the fixpoint
                head = live | reads if isinstance(s, ast.While) else set(live)
                while not (new := self.live(s.body, head, rec, (live, head)) - binds) <= head:
                    head |= new
                live = head
            elif isinstance(s, (ast.Break, ast.Continue)):
                live = set(loop[isinstance(s, ast.Continue)])
            elif isinstance(s, _SIMPLE):
                if _stage_call(s, self.stages):
                    rec[id(s)] = set(live)
                live -= binds
            else:
                raise SpliceError(f"line {s.lineno}: unsupported {type(s).__name__}")
            live |= reads
        return live

    def body(self, fn: ast.FunctionDef, out: set[str],
             active: tuple[str, ...]) -> tuple[list[ast.stmt], set[str]]:
        """``fn``'s body with its stage calls spliced, and every name it binds."""
        body, binds = self.prepare(fn)
        rec: dict[int, set[str]] = {}
        self.live(body, out, rec)
        binds = set(binds)
        return self.expand(body, rec, active + (fn.name,), binds), binds

    def expand(self, body: list[ast.stmt], rec: dict[int, set[str]],
               active: tuple[str, ...], binds: set[str]) -> list[ast.stmt]:
        # Simple statements are never mutated, so splices share them; each
        # splice gets its own copy of a compound statement and its blocks.
        out: list[ast.stmt] = []
        for s in body:
            call = _stage_call(s, self.stages)
            if call is not None:
                out += self.inline(s, call, rec[id(s)], active, binds)
                continue
            if not isinstance(s, _SIMPLE):
                s = copy.copy(s)
                for field in ("body", "orelse"):
                    if getattr(s, field, None):
                        setattr(s, field, self.expand(getattr(s, field), rec, active, binds))
            out.append(s)
        return out

    def inline(self, s: ast.stmt, call: ast.Call, live: set[str], active: tuple[str, ...],
               caller_binds: set[str]) -> list[ast.stmt]:
        name = call.func.attr  # type: ignore[attr-defined]
        fn, where = self.methods.get(name), f"line {s.lineno}: {name}"
        if fn is None or name in active:
            raise SpliceError(f"{where}: missing or recursive")
        a = fn.args
        params = [p.arg for p in a.args[1:]]
        if (a.vararg or a.kwarg or a.kwonlyargs or a.defaults or a.posonlyargs
                or call.keywords or len(call.args) != len(params)
                or any(isinstance(x, ast.Starred) for x in call.args)):
            raise SpliceError(f"{where}: needs exactly its positional arguments")
        binds = [(p, arg) for p, arg in zip(params, call.args)
                 if not (isinstance(arg, ast.Name) and arg.id == p)]
        for k, (_, arg) in enumerate(binds):  # bound in order: none may read a prior one
            if any(isinstance(n, ast.Name) and n.id in dict(binds[:k]) for n in ast.walk(arg)):
                raise SpliceError(f"{where}: an argument reads an earlier parameter")
        body, bound = self.body(fn, live, active)
        bound |= {p for p, _ in binds}
        self.spliced.append((name, bound, live))
        caller_binds |= bound
        return [ast.copy_location(ast.Assign(targets=[ast.copy_location(
            ast.Name(id=p, ctx=ast.Store()), s)], value=arg), s) for p, arg in binds] + body


def _drop(body: list[ast.stmt], dead: set[int]) -> list[ast.stmt]:
    out = [s for s in body if id(s) not in dead]
    for s in out:
        for field in ("body", "orelse"):
            if getattr(s, field, None):
                setattr(s, field, _drop(getattr(s, field), dead) or [
                    ast.copy_location(ast.Pass(), s)])
    return out


def splice(cls: type, name: str, stages: tuple[str, ...]) -> Callable[..., Any]:
    """Return ``cls.<name>`` with every call to a method in ``stages`` spliced.

    Raises :class:`SpliceError` for any construct outside the module rules.
    """
    filename = inspect.getsourcefile(cls) or ""
    with open(filename, encoding="utf-8") as f:
        tree = ast.parse(f.read(), filename)
    found = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == cls.__name__]
    if len(found) != 1:
        raise SpliceError(f"{filename}: no single class named {cls.__name__}")
    methods = {f.name: f for f in found[0].body if isinstance(f, ast.FunctionDef)}
    for n in (name, *stages):  # the file must still be what the class was built from
        code = getattr(cls.__dict__.get(n), "__code__", None)
        if n in methods and code is not None and code.co_firstlineno != methods[n].lineno:
            raise SpliceError(f"{filename} changed since {cls.__name__} was loaded ({n})")
    template = methods[name]
    sp = _Splicer(methods, stages)
    body, _ = sp.body(template, set(), ())
    stmts = list({id(s): s for s in _walk(body)}.values())
    binds: dict[str, list[ast.stmt]] = {}
    for s in stmts:
        for n in sp.names(s)[1]:
            binds.setdefault(n, []).append(s)
    local = set(binds) | {a.arg for a in template.args.args}
    hoisted = set()
    for n, ss in binds.items():
        if any(id(s) in sp.leading for s in ss) and all(
                isinstance(s, ast.Assign) and len(s.targets) == 1
                and isinstance(s.targets[0], ast.Name) for s in ss):
            if len({ast.dump(s.value) for s in ss}) > 1:  # type: ignore[attr-defined]
                raise SpliceError(f"hoisted name {n!r} is bound to two different values")
            hoisted.add(n)
    while True:  # keep the names whose value reads nothing the loop changes
        keep = {n for n in hoisted if _pure(
            binds[n][0].value,  # type: ignore[attr-defined]
            lambda x: x == "self" or x in hoisted or x not in local,
            lambda a: a not in sp.attrs) and not any(
            isinstance(e, ast.Subscript) and ast.dump(e.value) in sp.indexed
            for e in ast.walk(binds[n][0]))}
        if keep == hoisted:
            break
        hoisted = keep
    for stage, bound, live in sp.spliced:
        if (bound & live) - hoisted:
            raise SpliceError(f"{stage} rebinds {sorted((bound & live) - hoisted)}, "
                              "still read by its caller")
    for stage, free in sp.free.items():
        if free & local:
            raise SpliceError(f"{stage} reads module names {sorted(free & local)} "
                              "that the spliced function binds")
    dead = [s for s in stmts if isinstance(s, ast.Assign) and sp.names(s)[1] & hoisted]
    top: dict[str, ast.stmt] = {}
    for s in dead:  # the first binding of each hoisted name, in order
        top.setdefault(s.targets[0].id, s)  # type: ignore[attr-defined]
    fn = copy.copy(template)
    fn.body = list(top.values()) + _drop(body, set(map(id, dead)))
    fn.decorator_list, fn.returns, fn.args = [], None, copy.copy(fn.args)
    fn.args.args = [ast.copy_location(ast.arg(arg=a.arg, annotation=None), a)
                    for a in fn.args.args]
    module = ast.fix_missing_locations(ast.Module(body=[fn], type_ignores=[]))
    namespace: dict[str, Any] = {}
    exec(compile(module, filename, "exec"), vars(sys.modules[cls.__module__]), namespace)
    out = namespace[name]
    out.__qualname__, out.__doc__ = f"{cls.__qualname__}.{name}", ast.get_docstring(template)
    return out  # type: ignore[no-any-return]
