"""Determinism lint: hazards that can break cross-backend bit-identity.

Study JSON must be byte-identical across the serial, process and
distributed backends, so anything whose result depends on process
identity — unseeded RNG, wall clocks in outcome paths, set-iteration
order, float accumulation over unordered collections, ``id()``-keyed
ordering — is a lint finding here rather than a differential-test
failure later.

Rules
-----
DET101  unseeded ``random`` / ``numpy.random`` use outside ``sim.rng``
DET102  wall-clock call in a sim-time or outcome code path
DET103  iteration over a set (or over dict views feeding serialization)
        without an explicit ``sorted()``
DET104  float accumulation over an unordered collection
DET105  ``id()``-dependent ordering or keying
DET106  environment-variable read in any module the pass walks —
        execution is configured through arguments only, so an env read
        is a setting no job or session carries and can fork behaviour
        between hosts
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.lint.core import (
    Finding,
    Module,
    ModuleCache,
    apply_suppressions,
    canonical_call_name,
    dotted_name,
    import_aliases,
)

#: Subdirectories of ``src/repro`` the determinism pass walks: the
#: model packages (the kernel and chip, the applications, the traffic
#: that draws every arrival, the scenarios, the governors that set
#: every V/F level, power accounting), the experiments, and the layers
#: whose outcome payloads feed the byte-identity contract (wall clocks
#: in backends are allowlisted — backend orchestration times real work
#: by design), plus ``api``, which builds every session's backend.
DETERMINISM_SCOPE: Tuple[str, ...] = (
    "sim", "npu", "apps", "traffic", "scenarios", "dvs", "power",
    "experiments", "sweep", "obs", "loc", "trace", "backends", "studies",
    "api",
)

#: Module-level ``random`` functions that draw from the global,
#: process-seeded generator.
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "random", "randint", "randrange", "uniform", "choice", "choices",
        "shuffle", "sample", "gauss", "normalvariate", "expovariate",
        "betavariate", "gammavariate", "lognormvariate", "vonmisesvariate",
        "paretovariate", "weibullvariate", "triangular", "getrandbits",
        "seed",
    }
)

#: Wall-clock callables (canonical dotted names).
_WALL_CLOCK_FNS = frozenset(
    {
        "time.time", "time.time_ns", "time.perf_counter",
        "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
        "time.process_time", "time.process_time_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }
)

#: Files (relative to the repo root) where wall clocks are the point:
#: wall-span tracing and backend orchestration measure real elapsed
#: time by design and never feed sim-time or outcome payloads.
WALL_CLOCK_ALLOWLIST: Tuple[str, ...] = (
    "src/repro/obs/spans.py",
    "src/repro/backends/base.py",
    "src/repro/backends/local.py",
    "src/repro/backends/worker.py",
    "src/repro/backends/distributed.py",
)

#: Serialization/hashing sinks: a dict-view iteration whose loop body
#: calls one of these is order-sensitive output.
_SERIALIZATION_SINKS = frozenset(
    {
        "json.dump", "json.dumps", "hashlib.md5", "hashlib.sha1",
        "hashlib.sha256", "hashlib.new", "pickle.dump", "pickle.dumps",
    }
)


def _call_name(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    if isinstance(node, ast.Call):
        return canonical_call_name(node, aliases)
    return None


class _SetTracker(ast.NodeVisitor):
    """Tracks which local names are (likely) bound to sets.

    Intra-function and intentionally conservative: a name counts as
    set-typed only when assigned directly from a set literal, a set
    comprehension, ``set(...)``/``frozenset(...)``, a set-typed binop,
    or the first element of ``concurrent.futures.wait(...)`` unpacking.
    """

    def __init__(self, aliases: Dict[str, str]):
        self.aliases = aliases
        self.set_names: Set[str] = set()
        self._root: Optional[ast.AST] = None

    def visit(self, node: ast.AST) -> None:
        if self._root is None:
            self._root = node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # stay inside one scope; nested functions get their own
        super().visit(node)

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = canonical_call_name(node, self.aliases)
            if name in {"set", "frozenset"}:
                return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if isinstance(node, ast.Attribute) and node.attr in {
            "intersection", "union", "difference", "symmetric_difference"
        }:
            return self._is_set_expr(node.value)
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        value = node.value
        for target in node.targets:
            if isinstance(target, ast.Name) and self._is_set_expr(value):
                self.set_names.add(target.id)
            elif (
                isinstance(target, ast.Tuple)
                and isinstance(value, ast.Call)
                and (canonical_call_name(value, self.aliases) or "").endswith(
                    "futures.wait"
                )
            ):
                # ``done, pending = wait(...)`` — both elements are sets.
                for element in target.elts:
                    if isinstance(element, ast.Name):
                        self.set_names.add(element.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if (
            isinstance(node.target, ast.Name)
            and node.value is not None
            and self._is_set_expr(node.value)
        ):
            self.set_names.add(node.target.id)
        self.generic_visit(node)


def _iter_functions(tree: ast.Module) -> List[ast.AST]:
    """Every function/method body plus the module body itself."""
    scopes: List[ast.AST] = [tree]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes.append(node)
    return scopes


def _walk_scope(scope: ast.AST) -> List[ast.AST]:
    """Walk ``scope`` without descending into nested functions.

    Each loop/call must be attributed to exactly one scope, otherwise
    a hazard inside a nested function would be reported twice (once
    from the enclosing scope's walk, once from its own).
    """
    out: List[ast.AST] = []
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return out


def _is_sorted_wrapped(node: ast.AST, aliases: Dict[str, str]) -> bool:
    """True when the iterable is ``sorted(...)`` (or list(sorted(...)))."""
    name = _call_name(node, aliases)
    if name == "sorted":
        return True
    if name in {"list", "tuple"} and isinstance(node, ast.Call) and node.args:
        return _is_sorted_wrapped(node.args[0], aliases)
    return False


def _body_serializes(body: Sequence[ast.stmt], aliases: Dict[str, str]) -> bool:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                name = canonical_call_name(node, aliases)
                if name in _SERIALIZATION_SINKS:
                    return True
    return False


def _dict_view_call(node: ast.AST) -> Optional[str]:
    """``items``/``keys``/``values`` when node is ``<expr>.<view>()``."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in {"items", "keys", "values"}
        and not node.args
        and not node.keywords
    ):
        return node.func.attr
    return None


def _check_module(module: Module) -> List[Finding]:
    findings: List[Finding] = []
    tree = module.tree
    if tree is None:
        return findings
    aliases = import_aliases(tree)
    rel = module.rel_path
    in_rng_module = rel.replace("\\", "/").endswith("sim/rng.py")
    wall_clock_ok = rel.replace("\\", "/") in WALL_CLOCK_ALLOWLIST

    # --- DET101: unseeded RNG ------------------------------------------
    if not in_rng_module:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported = (
                    node.module
                    if isinstance(node, ast.ImportFrom)
                    else None
                )
                if imported == "random":
                    for alias in node.names:
                        if alias.name in _GLOBAL_RANDOM_FNS:
                            findings.append(
                                Finding(
                                    code="DET101",
                                    message=(
                                        f"import of global-state "
                                        f"random.{alias.name} — draws from "
                                        "the process-wide generator"
                                    ),
                                    path=rel,
                                    line=node.lineno,
                                    col=node.col_offset,
                                    hint=(
                                        "use the run's seeded "
                                        "repro.sim.rng generator instead"
                                    ),
                                )
                            )
                continue
            if not isinstance(node, ast.Call):
                continue
            name = canonical_call_name(node, aliases)
            if name is None:
                continue
            head, _, fn = name.rpartition(".")
            if head == "random" and fn in _GLOBAL_RANDOM_FNS:
                findings.append(
                    Finding(
                        code="DET101",
                        message=(
                            f"call to random.{fn}() uses the process-wide "
                            "unseeded generator"
                        ),
                        path=rel,
                        line=node.lineno,
                        col=node.col_offset,
                        hint="route randomness through repro.sim.rng",
                    )
                )
            elif name == "random.Random" and not node.args and not node.keywords:
                findings.append(
                    Finding(
                        code="DET101",
                        message="random.Random() constructed without a seed",
                        path=rel,
                        line=node.lineno,
                        col=node.col_offset,
                        hint="pass an explicit seed: random.Random(seed)",
                    )
                )
            elif name is not None and name.startswith("numpy.random."):
                findings.append(
                    Finding(
                        code="DET101",
                        message=f"{name}() — numpy global RNG state",
                        path=rel,
                        line=node.lineno,
                        col=node.col_offset,
                        hint=(
                            "use a seeded numpy.random.Generator owned by "
                            "repro.sim.rng"
                        ),
                    )
                )

    # --- DET102: wall clocks -------------------------------------------
    if not wall_clock_ok:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = canonical_call_name(node, aliases)
            if name in _WALL_CLOCK_FNS:
                findings.append(
                    Finding(
                        code="DET102",
                        message=(
                            f"wall-clock call {name}() in a sim-time/outcome "
                            "code path"
                        ),
                        path=rel,
                        line=node.lineno,
                        col=node.col_offset,
                        hint=(
                            "use kernel sim time, or move the measurement "
                            "into the wall-span layer (repro.obs.spans)"
                        ),
                    )
                )

    # --- DET103/DET104: unordered iteration + float accumulation -------
    for scope in _iter_functions(tree):
        tracker = _SetTracker(aliases)
        tracker.visit(scope)

        scope_nodes = _walk_scope(scope)
        loops: List[Tuple[ast.AST, ast.AST, Sequence[ast.stmt]]] = []
        for node in scope_nodes:
            if isinstance(node, ast.For):
                loops.append((node, node.iter, node.body))
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                for gen in node.generators:
                    loops.append((node, gen.iter, ()))

        for owner, iterable, body in loops:
            if _is_sorted_wrapped(iterable, aliases):
                continue
            if tracker._is_set_expr(iterable):
                findings.append(
                    Finding(
                        code="DET103",
                        message=(
                            "iteration over a set — order depends on hash "
                            "seeding / object identity"
                        ),
                        path=rel,
                        line=owner.lineno,
                        col=owner.col_offset,
                        hint="iterate sorted(...) or a deterministic sequence",
                    )
                )
                if _accumulates_float(body):
                    findings.append(
                        Finding(
                            code="DET104",
                            message=(
                                "float accumulation inside set-order "
                                "iteration — sum depends on visit order"
                            ),
                            path=rel,
                            line=owner.lineno,
                            col=owner.col_offset,
                            hint=(
                                "accumulate over a sorted sequence (float "
                                "addition is order-sensitive)"
                            ),
                        )
                    )
                continue
            view = _dict_view_call(iterable)
            if view is not None and body and _body_serializes(body, aliases):
                findings.append(
                    Finding(
                        code="DET103",
                        message=(
                            f"dict .{view}() iteration feeds serialization/"
                            "hashing without sorted()"
                        ),
                        path=rel,
                        line=owner.lineno,
                        col=owner.col_offset,
                        hint=(
                            "wrap in sorted(...) (or serialize with "
                            "sort_keys=True) so the byte stream is stable"
                        ),
                    )
                )

        # ``sum(<set>)`` / ``math.fsum(<set>)`` outside a loop.
        for node in scope_nodes:
            if not isinstance(node, ast.Call):
                continue
            name = canonical_call_name(node, aliases)
            if name in {"sum", "math.fsum"} and node.args:
                if tracker._is_set_expr(node.args[0]) and not _is_sorted_wrapped(
                    node.args[0], aliases
                ):
                    findings.append(
                        Finding(
                            code="DET104",
                            message=(
                                f"{name}() over a set — float addition order "
                                "is unspecified"
                            ),
                            path=rel,
                            line=node.lineno,
                            col=node.col_offset,
                            hint="sum over sorted(...) instead",
                        )
                    )

    # --- DET106: environment reads --------------------------------------
    # Execution is configured through arguments only (a job's config, a
    # session's policies), so every module in scope is covered: an env
    # read is a setting no job or session carries.
    constants = _module_str_constants(tree)
    for node in ast.walk(tree):
        var = _env_read_variable(node, aliases, constants)
        if var is _NO_ENV_READ:
            continue
        shown = f"{var!r}" if var is not None else "a dynamic name"
        findings.append(
            Finding(
                code="DET106",
                message=(
                    f"environment read of {shown} — a setting no job or "
                    "session carries, which can fork behaviour between "
                    "hosts"
                ),
                path=rel,
                line=node.lineno,
                col=node.col_offset,
                hint="pass the setting as an argument (RunConfig, "
                "ExecutionPolicy)",
            )
        )

    # --- DET105: id()-dependent ordering --------------------------------
    shadowed = _locally_bound_names(tree)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
            and "id" not in shadowed
        ):
            findings.append(
                Finding(
                    code="DET105",
                    message=(
                        "id() produces process-dependent values — any "
                        "ordering or keying built on it is nondeterministic"
                    ),
                    path=rel,
                    line=node.lineno,
                    col=node.col_offset,
                    hint=(
                        "key on stable identifiers (indices, names, config "
                        "hashes), never object identity"
                    ),
                )
            )

    return apply_suppressions(module, findings)


#: Sentinel distinguishing "not an env read at all" from "env read whose
#: variable name could not be resolved" (the latter is still a finding).
_NO_ENV_READ = object()


def _module_str_constants(tree: ast.Module) -> Dict[str, str]:
    """Module-level ``NAME = "literal"`` bindings (env-var name style)."""
    constants: Dict[str, str] = {}
    for stmt in tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str)
        ):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    constants[target.id] = stmt.value.value
    return constants


def _env_read_variable(node, aliases, constants):
    """The variable name an AST node reads from the environment.

    Recognizes ``os.environ.get(X, ...)``, ``os.getenv(X, ...)`` and
    ``os.environ[X]``.  Returns the resolved variable name (a literal or
    a module-level string constant), ``None`` for an env read whose name
    cannot be resolved statically, or :data:`_NO_ENV_READ` when the node
    is not an environment read.
    """
    key = None
    if isinstance(node, ast.Call):
        name = canonical_call_name(node, aliases)
        if name not in {"os.environ.get", "os.getenv"} or not node.args:
            return _NO_ENV_READ
        key = node.args[0]
    elif isinstance(node, ast.Subscript):
        if dotted_name(node.value) != "os.environ":
            return _NO_ENV_READ
        key = node.slice
    else:
        return _NO_ENV_READ
    if isinstance(key, ast.Constant) and isinstance(key.value, str):
        return key.value
    if isinstance(key, ast.Name):
        return constants.get(key.id)
    return None


def _accumulates_float(body: Sequence[ast.stmt]) -> bool:
    """AugAssign ``+=`` anywhere in the loop body."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
                return True
    return False


def _locally_bound_names(tree: ast.Module) -> Set[str]:
    """Names assigned/imported at any scope (cheap shadowing check)."""
    bound: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bound.add(node.name)
            for arg in list(node.args.args) + list(node.args.kwonlyargs):
                bound.add(arg.arg)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add((alias.asname or alias.name).split(".")[0])
    return bound


def check_determinism(
    cache: ModuleCache, scope: Sequence[str] = DETERMINISM_SCOPE
) -> List[Finding]:
    """Run DET101–DET105 over ``src/repro/<scope>`` via ``cache``."""
    findings: List[Finding] = []
    for module in cache.modules_under(*scope):
        if module.parse_error is not None:
            findings.append(
                Finding(
                    code="DET100",
                    message=f"syntax error: {module.parse_error.msg}",
                    path=module.rel_path,
                    line=module.parse_error.lineno or 0,
                    hint="fix the syntax error so the file can be analyzed",
                )
            )
            continue
        findings.extend(_check_module(module))
    return findings
