"""The per-file AST rules (SIM001-SIM004, SIM008, SIM010, SIM011).

Each rule targets a hazard this codebase actually depends on avoiding:
the engine's bit-identical parallel-vs-serial guarantee and its
content-addressed disk cache (see :mod:`repro.engine`) survive only if
simulation code is a pure function of explicit seeds and configs.
SIM006 (cache-key completeness) and SIM012 (worker purity) are
whole-project rules and live in :mod:`repro.analysis.project`.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .config import LintConfig, path_matches
from .core import ASTRule, FileContext, Finding

#: ``random`` module functions that draw from the hidden global RNG.
_GLOBAL_RANDOM_FUNCS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "triangular", "betavariate", "expovariate",
    "gammavariate", "gauss", "lognormvariate", "normalvariate",
    "vonmisesvariate", "paretovariate", "weibullvariate", "getrandbits",
    "randbytes", "seed",
})

#: Wall-clock reads: values that differ between two identical runs.
_WALLCLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns", "time.localtime",
    "time.gmtime", "time.ctime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Modules whose import signals unsafe/implicit serialization.
_UNSAFE_SERIALIZATION_MODULES = frozenset({
    "pickle", "cPickle", "_pickle", "dill", "shelve", "marshal",
})

#: Order-sensitive consumers of an iterable (``sorted``/``min``/``max``/
#: ``len``/``any``/``all`` are order-insensitive and stay legal).
_ORDER_SENSITIVE_CONSUMERS = frozenset({"list", "tuple", "sum", "enumerate"})


def _is_set_expr(node: ast.AST, ctx: FileContext) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return ctx.qualname(node.func) in {"set", "frozenset"}
    return False


def _is_values_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "values"
            and not node.args and not node.keywords)


class UnseededRandomRule(ASTRule):
    """SIM001: randomness must come from an explicitly seeded generator.

    The module-level ``random.*`` functions share one hidden
    interpreter-global state: results then depend on call order across
    the whole process, import side effects, and which worker executed
    the task — breaking the engine's bit-identical guarantee.  The
    sanctioned pattern is ``random.Random(seed)`` threaded explicitly,
    as :class:`repro.traces.generator.ProgramWalker` does.
    """

    id = "SIM001"
    name = "unseeded-random"
    severity = "error"
    description = ("global/unseeded random usage; construct "
                   "random.Random(seed) and thread it explicitly")

    def check(self, ctx: FileContext,
              config: LintConfig) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qn = ctx.qualname(node.func)
            if qn is None:
                continue
            if qn.startswith("random.") and \
                    qn.split(".", 1)[1] in _GLOBAL_RANDOM_FUNCS:
                yield self.finding(
                    ctx, node,
                    f"{qn}() draws from the process-global RNG; use an "
                    "explicitly seeded random.Random(seed) instance")
            elif qn == "random.Random" and not node.args and \
                    not node.keywords:
                yield self.finding(
                    ctx, node,
                    "random.Random() without a seed falls back to OS "
                    "entropy; pass an explicit seed")
            elif qn == "random.SystemRandom":
                yield self.finding(
                    ctx, node,
                    "random.SystemRandom is inherently non-deterministic; "
                    "simulation code must use random.Random(seed)")


class WallClockRule(ASTRule):
    """SIM002: no wall-clock reads outside the engine-stats allowlist.

    A timestamp that leaks into a result, a cache payload, or a control
    decision makes two identical runs differ.  The engine's throughput
    accounting and the host-side observability layer are the only
    sanctioned consumers (``LintConfig.wallclock_allow``).
    """

    id = "SIM002"
    name = "wall-clock"
    severity = "error"
    description = ("wall-clock read outside the allowlist; timing belongs "
                   "in engine stats only")

    def check(self, ctx: FileContext,
              config: LintConfig) -> Iterable[Finding]:
        if path_matches(ctx.relpath, config.wallclock_allow):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qn = ctx.qualname(node.func)
            if qn in _WALLCLOCK_CALLS:
                yield self.finding(
                    ctx, node,
                    f"{qn}() reads the wall clock; simulation results must "
                    "be pure functions of seeds and configs (allowlist: "
                    "LintConfig.wallclock_allow)")


class BuiltinHashRule(ASTRule):
    """SIM003: builtin ``hash()`` is process-salted for str/bytes.

    With ``PYTHONHASHSEED`` unset, ``hash("x")`` differs between worker
    processes and between CLI invocations — any cache key, table index,
    or tie-break derived from it silently destroys cross-process result
    identity.  Seeded helpers (``repro.frontend.history.pc_hash``,
    ``fold_bits``, ``mix_segment``) or ``hashlib`` are the sanctioned
    paths.
    """

    id = "SIM003"
    name = "builtin-hash"
    severity = "error"
    description = ("builtin hash() is salted per process; use "
                   "repro.frontend.history helpers or hashlib")

    def check(self, ctx: FileContext,
              config: LintConfig) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if ctx.qualname(node.func) == "hash":
                yield self.finding(
                    ctx, node,
                    "builtin hash() is salted per process for str/bytes "
                    "(PYTHONHASHSEED); use repro.frontend.history.pc_hash/"
                    "fold_bits or hashlib for stable hashing")


class SetOrderRule(ASTRule):
    """SIM004: set iteration order must never feed ordered results.

    Set iteration order depends on element hashes — salted per process
    for strings — so materializing or accumulating a set (``list(s)``,
    ``sum(s)``, ``for x in s`` appending) is non-reproducible across
    workers.  ``sorted(s)`` and pure membership tests stay legal.  The
    rule also flags ``sum(d.values())``: float accumulation order then
    tracks dict insertion history; ``math.fsum`` (exact, order-free) or
    summing over an explicit ordering is the sanctioned form.
    """

    id = "SIM004"
    name = "set-order"
    severity = "error"
    description = ("iteration/accumulation over an unordered container; "
                   "wrap in sorted() or use math.fsum")

    def check(self, ctx: FileContext,
              config: LintConfig) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_set_expr(node.iter, ctx):
                    yield self.finding(
                        ctx, node.iter,
                        "iterating a set has hash-dependent order; iterate "
                        "sorted(...) instead")
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                                   ast.DictComp)):
                for gen in node.generators:
                    if _is_set_expr(gen.iter, ctx):
                        yield self.finding(
                            ctx, gen.iter,
                            "comprehension over a set has hash-dependent "
                            "order; iterate sorted(...) instead")
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)

    def _check_call(self, ctx: FileContext,
                    node: ast.Call) -> Iterable[Finding]:
        qn = ctx.qualname(node.func)
        first = node.args[0] if node.args else None
        if first is None:
            return
        if qn in _ORDER_SENSITIVE_CONSUMERS and _is_set_expr(first, ctx):
            yield self.finding(
                ctx, node,
                f"{qn}() over a set depends on hash order; wrap the set "
                "in sorted() first")
        elif qn == "sum" and _is_values_call(first):
            yield self.finding(
                ctx, node,
                "sum() over dict .values() ties float accumulation order "
                "to insertion history; use math.fsum (exact, order-"
                "independent) or sum over sorted(d.items())")
        elif isinstance(node.func, ast.Attribute) and \
                node.func.attr == "join" and _is_set_expr(first, ctx):
            yield self.finding(
                ctx, node,
                "str.join over a set depends on hash order; join "
                "sorted(...) instead")


class UnsafeSerializationRule(ASTRule):
    """SIM008: pickle/eval-class constructs outside the serialization module.

    The engine's cache and wire formats are intentionally JSON-only:
    pickle payloads are version-fragile (silently invalidating or, worse,
    mis-reading cache entries across releases) and ``eval``/``exec`` on
    anything derived from disk is an injection hazard.  The allowlist
    (``serialization_allow``) names the one module permitted to own
    serialization decisions.
    """

    id = "SIM008"
    name = "unsafe-serialization"
    severity = "error"
    description = "pickle/marshal/eval outside the serialization module"

    def check(self, ctx: FileContext,
              config: LintConfig) -> Iterable[Finding]:
        if path_matches(ctx.relpath, config.serialization_allow):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    if top in _UNSAFE_SERIALIZATION_MODULES:
                        yield self.finding(
                            ctx, node,
                            f"import {alias.name}: cache/wire formats are "
                            "JSON-only; route serialization through "
                            "repro.serialization")
            elif isinstance(node, ast.ImportFrom):
                top = (node.module or "").split(".")[0]
                if not node.level and top in _UNSAFE_SERIALIZATION_MODULES:
                    yield self.finding(
                        ctx, node,
                        f"from {node.module} import ...: cache/wire formats "
                        "are JSON-only; route serialization through "
                        "repro.serialization")
            elif isinstance(node, ast.Call):
                qn = ctx.qualname(node.func)
                if qn in ("eval", "exec"):
                    yield self.finding(
                        ctx, node,
                        f"{qn}() on constructed input; use ast.literal_eval "
                        "or an explicit parser")


class FloatSumRule(ASTRule):
    """SIM010: plain ``sum()`` over a float series in aggregation code.

    Naive left-to-right float addition accumulates rounding error that
    depends on the order of the operands — two mathematically equal
    aggregations of the same values can differ in the last bits, which
    is exactly the kind of drift that makes figure means and cache
    payloads irreproducible.  ``math.fsum`` tracks partial sums exactly
    and is order-independent, so it is the sanctioned aggregator in the
    layers that average metrics (``LintConfig.fsum_paths``).
    Sums the rule can prove integral (counts, ``len()`` totals) stay
    legal: integer addition is exact in any order.
    """

    id = "SIM010"
    name = "float-sum"
    severity = "warning"
    description = ("sum() over a float sequence; math.fsum is exact and "
                   "order-independent")

    _INT_CALLS = frozenset({"len", "int", "ord", "abs"})
    _INT_OPS = (ast.Add, ast.Sub, ast.Mult, ast.FloorDiv, ast.Mod,
                ast.LShift, ast.RShift, ast.BitAnd, ast.BitOr, ast.BitXor)

    def _provably_int(self, node: ast.AST, ctx: FileContext) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, int)  # covers bool
        if isinstance(node, ast.Call):
            qn = ctx.qualname(node.func)
            if qn in self._INT_CALLS:
                # abs/int are int-preserving, not int-producing: require
                # an integral argument for them too (len/ord always are).
                if qn in ("abs", "int") and node.args:
                    return qn == "int" or \
                        self._provably_int(node.args[0], ctx)
                return True
            return False
        if isinstance(node, ast.UnaryOp) and \
                isinstance(node.op, (ast.UAdd, ast.USub, ast.Invert)):
            return self._provably_int(node.operand, ctx)
        if isinstance(node, ast.BinOp) and isinstance(node.op, self._INT_OPS):
            return self._provably_int(node.left, ctx) and \
                self._provably_int(node.right, ctx)
        if isinstance(node, ast.IfExp):
            return self._provably_int(node.body, ctx) and \
                self._provably_int(node.orelse, ctx)
        return False

    def _summed_element(self, arg: ast.AST) -> ast.AST:
        """The per-element expression a ``sum()`` accumulates."""
        if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
            return arg.elt
        return arg

    def check(self, ctx: FileContext,
              config: LintConfig) -> Iterable[Finding]:
        if not path_matches(ctx.relpath, config.fsum_paths):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            if ctx.qualname(node.func) != "sum":
                continue
            first = node.args[0]
            # Set/dict.values() accumulation is SIM004's finding already.
            if _is_set_expr(first, ctx) or _is_values_call(first):
                continue
            element_int = self._provably_int(
                self._summed_element(first), ctx)
            start_int = len(node.args) < 2 or \
                self._provably_int(node.args[1], ctx)
            if element_int and start_int:
                continue
            yield self.finding(
                ctx, node,
                "sum() accumulates floats left-to-right with order-"
                "dependent rounding; use math.fsum (exact, order-"
                "independent) or prove the series integral")


class IterationOrderRule(ASTRule):
    """SIM011: implicit "first/last element" reads of iteration order.

    ``d.popitem()`` with no arguments pops whichever item the mapping
    considers last, and ``next(iter(x))`` grabs whichever comes first —
    both encode "the order this container happened to be filled in" into
    a result.  That order is exactly what varies when tasks are sharded
    differently across workers (each worker fills its memos in its own
    arrival order), so the read is a determinism hazard even though each
    single process is self-consistent.  The deliberate forms stay legal:
    ``OrderedDict.popitem(last=False)`` names the LRU-eviction end
    explicitly (the idiom every bounded table in this repo uses), and
    ``next(iter(sorted(...)))`` pins an order first.
    """

    id = "SIM011"
    name = "iteration-order"
    severity = "error"
    description = ("implicit iteration-order read (bare .popitem() / "
                   "next(iter(...))); name the end or sort first")

    def _is_sorted_call(self, node: ast.AST, ctx: FileContext) -> bool:
        if not isinstance(node, ast.Call):
            return False
        qn = ctx.qualname(node.func)
        if qn == "sorted":
            return True
        # reversed() only pins an order if what it reverses is pinned.
        return (qn == "reversed" and node.args
                and self._is_sorted_call(node.args[0], ctx))

    def check(self, ctx: FileContext,
              config: LintConfig) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "popitem" and \
                    not node.args and not node.keywords:
                yield self.finding(
                    ctx, node,
                    ".popitem() with no arguments pops the insertion-"
                    "order end implicitly; pass last=True/False to name "
                    "the end you mean (or pop a sorted key)")
                continue
            if ctx.qualname(node.func) != "next" or not node.args:
                continue
            inner = node.args[0]
            if isinstance(inner, ast.Call) and \
                    ctx.qualname(inner.func) == "iter" and inner.args:
                if self._is_sorted_call(inner.args[0], ctx):
                    continue
                yield self.finding(
                    ctx, node,
                    "next(iter(...)) reads whichever element iteration "
                    "yields first — insertion/hash order; use "
                    "next(iter(sorted(...))) or index an explicit "
                    "ordering")


AST_RULES = (
    UnseededRandomRule(),
    WallClockRule(),
    BuiltinHashRule(),
    SetOrderRule(),
    UnsafeSerializationRule(),
    FloatSumRule(),
    IterationOrderRule(),
)
