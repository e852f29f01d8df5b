"""The benchmark's layer tracer names library entry points; keep them real.

`perfbench/layertrace.py` wraps each entry point in its BOUNDARIES table by
name and reads the sweep cache's `cache_info()`.  A rename in the library
would silently drop a layer from `--trace 1`, so this reads the table
(parsed, not imported, so nothing under perfbench/ is touched) and checks
every name still resolves.
"""

import ast
import importlib
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def _boundaries():
    tree = ast.parse(LAYERTRACE.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "BOUNDARIES"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("BOUNDARIES not found in layertrace.py")


def test_every_traced_entry_point_resolves():
    boundaries = _boundaries()
    assert boundaries
    for layer, modname, names in boundaries:
        assert modname.startswith("bilevelsense"), layer
        mod = importlib.import_module(modname)
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                assert callable(getattr(mod, cls_name).__dict__.get(meth)), \
                    f"{layer}: {modname}.{name}"
            else:
                assert callable(getattr(mod, name, None)), \
                    f"{layer}: {modname}.{name}"


def test_sweep_cache_is_visible_to_the_tracer():
    from bilevelsense import valuefn

    info = valuefn._solve_lower.cache_info()
    assert info.maxsize == 2048
    # the tracer rebinds the module global, so callers must look it up there
    assert "_solve_lower" in valuefn._sweep.__code__.co_names


def test_vrep_memo_is_visible_to_the_tracer():
    from bilevelsense import _polyalg

    info = _polyalg._vrep.cache_info()
    assert info.maxsize == _polyalg._VREP_ENTRIES == 256
    # a miss looks basic_vertices up as a module global, so the tracer's
    # wrapper of polyalg.bases counts every enumeration that runs
    assert "basic_vertices" in _polyalg._vrep.__wrapped__.__code__.co_names
    assert "_vrep" in _polyalg.standard_vrep.__code__.co_names


def test_decision_memos_are_visible_to_the_tracer():
    from bilevelsense import cq, valuefn

    assert cq._pointbased_cq.cache_info().maxsize == cq._CQ_ENTRIES == 256
    assert cq._inner_regularity.cache_info().maxsize == cq._CQ_ENTRIES
    assert valuefn._solution_set.cache_info().maxsize == \
        valuefn._SOLUTION_ENTRIES == 64
    # the solution-set memo sits behind the traced public names, which stay
    # plain functions, and pessimistic_solutions reaches its twin through
    # the module global, so valuefn.solutions counts every request
    for name in ("lower_solutions", "optimistic_solutions",
                 "pessimistic_solutions"):
        assert not hasattr(getattr(valuefn, name), "cache_info")
    assert "optimistic_solutions" in valuefn.pessimistic_solutions.__code__.co_names
    for name in ("lower_solutions", "optimistic_solutions"):
        assert "_solution_set" in getattr(valuefn, name).__code__.co_names
    # misses sweep, solve and sample through the traced module globals
    assert "_sweep" in valuefn._solution_set.__wrapped__.__code__.co_names
    assert "fd_subgradient_samples" in cq._pointbased_cq.__wrapped__.__code__.co_names
    assert {"optimistic_solutions", "pessimistic_solutions"} <= set(
        cq._mode_solutions.__code__.co_names)
    # cq_bundle itself is not memoised, so cq.bundle counts every bundle
    assert not hasattr(cq.cq_bundle, "cache_info")


def test_lp_memo_sits_behind_the_traced_solve_methods(monkeypatch):
    import inspect

    from bilevelsense import _polyalg

    assert _polyalg._lp.cache_info().maxsize == _polyalg._LP_ENTRIES == 256
    # polyalg.lp wraps the two methods, which stay plain functions on the
    # class and reach the memo through the module global, so the tracer
    # counts every request, hit or miss
    for name in ("minimize_max_violation", "maximize"):
        method = _polyalg.LPBuilder.__dict__[name]
        assert inspect.isfunction(method) and not hasattr(method, "cache_info")
        assert "_lp" in method.__code__.co_names
    # a miss reaches the HiGHS solve and a hit does not
    calls = []
    solve = _polyalg._highs_lp

    def counted(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(_polyalg, "_highs_lp", counted)
    _polyalg._lp.cache_clear()
    for _ in range(2):
        lp = _polyalg.LPBuilder()
        lp.var(ub=2.0)
        assert lp.maximize({0: 1.0})[0] == 2.0
        assert len(calls) == 1


# -- one multiplier-LP builder and one lifted system -------------------------------

SRC = Path(__file__).resolve().parent.parent / "src" / "bilevelsense"


def _calls_by_scope(name):
    """(module, enclosing class/function names) of every call to `name`
    (as a bare name or an attribute) in the package sources."""
    found = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, module, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = (func.id if isinstance(func, ast.Name)
                          else func.attr if isinstance(func, ast.Attribute)
                          else None)
                if called == name:
                    found.append((module, scope))
            visit(child, module, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, ())
    return found


def test_every_multiplier_lp_is_declared_through_one_builder():
    # certify's searches and cq's pointbased checks both declare their LPs
    # through sensitivity._System, the only place an LPBuilder is made
    sites = _calls_by_scope("LPBuilder")
    assert sites
    assert all(mod == "sensitivity" and scope[:1] == ("_System",)
               for mod, scope in sites), sites


def test_multiplier_and_inclusion_sets_read_one_lifted_system():
    # Lambda, Lambda_o and the inclusion sets are rows and right-hand sides
    # of the system `_inclusion_system` builds; none builds columns itself
    readers = {scope[0] for mod, scope in _calls_by_scope("_inclusion_system")
               if mod == "sensitivity"}
    assert {"lambda_set", "lambda_o_set", "_inclusion_xset"} <= readers
    stacks = {(mod, scope[0]) for mod, scope in _calls_by_scope("column_stack")}
    assert ("sensitivity", "_inclusion_system") in stacks
    assert not any(mod == "sensitivity" and name != "_inclusion_system"
                   for mod, name in stacks), stacks
    takers = {scope[:1] for mod, scope in _calls_by_scope("clarke_generators")
              if mod == "sensitivity"}
    assert not takers & {("lambda_set",), ("lambda_o_set",)}


# -- one interned tape under every expression walk ---------------------------------

MODEL = SRC / "model.py"


def _scoped_nodes(tree):
    """(enclosing class/function names, node) for every node of tree."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            out.append((inner, child))
            visit(child, inner)

    visit(tree, ())
    return out


def _call_graph(tree):
    """{function: functions it may call} over the functions of one module,
    each named by its scope.  A bare name may call any function of that
    name, and a class name its constructors; an attribute of self, cls or
    a class of the module may call any method of that name."""
    scoped = [(scope, node) for scope, node in _scoped_nodes(tree)
              if isinstance(node, ast.FunctionDef)]
    classes = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    graph = {}
    for scope, node in scoped:
        names = set()
        for call in ast.walk(node):
            func = getattr(call, "func", None)
            if isinstance(func, ast.Name):
                names.add(func.id)
                if func.id in classes:
                    names.update((func.id, c) for c in
                                 ("__new__", "__init__", "__post_init__"))
            elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                  and func.value.id in {"self", "cls", *classes}):
                names.add(func.attr)
        graph[scope] = {s for s, _ in scoped if s[-1] in names or s in names}
    return graph


def _on_a_cycle(graph):
    """The functions of graph that can reach themselves."""
    def reach(start):
        seen, todo = set(), list(graph[start])
        while todo:
            f = todo.pop()
            if f not in seen:
                seen.add(f)
                todo.extend(graph[f])
        return seen
    return {f for f in graph if f in reach(f)}


def test_no_model_walker_recurses():
    # the parser reads its tokens over an explicit stack and every other
    # walk runs over a node's tape, so no function of model.py calls itself,
    # directly or through others, and an expression can nest as deep as
    # memory allows
    graph = _call_graph(ast.parse(MODEL.read_text(encoding="utf-8")))
    assert ("_parse_expr",) in graph and ("Expr", "__new__") in graph
    assert not _on_a_cycle(graph), sorted(_on_a_cycle(graph))


def test_only_the_node_and_its_tape_builder_read_children():
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        for scope, node in _scoped_nodes(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "children":
                readers.add((path.stem, scope[:1]))
    assert readers == {("model", ("Expr",)), ("model", ("_Tape",))}, readers


def test_traced_expression_entry_points_stay_module_functions():
    from bilevelsense import model, valuefn

    top = {node.name for node in ast.parse(MODEL.read_text(encoding="utf-8")).body
           if isinstance(node, ast.FunctionDef)}
    traced = {name for layer, modname, names in _boundaries()
              if modname == "bilevelsense.model" for name in names}
    assert {"eval_expr", "smooth_branches", "clarke_generators"} <= traced <= top | {
        "parse_program"}
    # the walkers read the node's tape
    for name in ("eval_expr", "smooth_branches", "kink_count", "used_indices",
                 "affine_coefficients"):
        assert "_tape" in getattr(model, name).__code__.co_names, name
    # the sweep looks eval_expr up as a module global, so a wrapper (the
    # tracer's, or the call-count test's) sees every evaluation
    for name in ("_evaluate",):
        assert "eval_expr" in getattr(valuefn, name).__code__.co_names, name


# -- one certify driver, and a re-check that shares nothing with the search ---------

CERTIFY = SRC / "certify.py"


def _called_names(func_def):
    """Names called anywhere in a function's body, nested functions and
    lambdas included, as bare names or attributes (default values are not
    the body)."""
    out = set()
    for call in (c for stmt in func_def.body for c in ast.walk(stmt)):
        if isinstance(call, ast.Call):
            func = call.func
            if isinstance(func, ast.Name):
                out.add(func.id)
            elif isinstance(func, ast.Attribute):
                out.add(func.attr)
    return out


def test_the_recheck_reaches_no_search_code():
    # README: recheck_certificate shares no code with the LP search; it uses
    # polytope algebra, the projector, clarke_generators, eval_expr and
    # normal_cone_polyhedral
    tree = ast.parse(CERTIFY.read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names}
    reached, todo, calls = set(), ["recheck_certificate"], set()
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        called = _called_names(defs[name])
        calls |= called
        todo += [c for c in called if c in defs]
    forbidden = {"_System", "LPBuilder", "_cover", "_inclusion_system",
                 "_solve_inclusion", "lambda_set", "lambda_o_set",
                 "stationary_cover_hull", "_search"}
    bad = {c for c in calls if c in forbidden or c.startswith("_search")}
    assert not bad, bad
    assert not {r for r in reached if r.startswith("_search")}
    assert calls & imported <= {
        "Polytope", "clarke_generators", "distance", "eval_expr", "hull",
        "minkowski_sum", "negate", "normal_cone_polyhedral", "scale"}, \
        calls & imported


def test_both_modes_run_one_certify_driver():
    tree = ast.parse(CERTIFY.read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}
    for name in ("certify_optimistic", "certify_pessimistic"):
        assert _called_names(defs[name]) == {"_certify"}, name
    # the driver is the only code that picks the working program and the
    # search; the searches build their own covector cover
    takers = {scope[0] for mod, scope in _calls_by_scope("negated_upper")
              if mod == "certify"}
    assert takers == {"_certify", "recheck_certificate"}, takers
    cover_calls = {scope[0] for mod, scope in _calls_by_scope("_cover")}
    assert cover_calls == {"_search_variant_i", "_search_pessimistic_i"}
    hull_calls = {scope[0] for mod, scope in
                  _calls_by_scope("stationary_cover_hull") if mod == "certify"}
    assert hull_calls == {"_cover"}, hull_calls


# -- one memo idiom ----------------------------------------------------------------

# helpers that marshalled memo keys or copied memo results by hand before
# `_memo` owned those rules
RETIRED = {"_signs", "_box_signs", "_key", "_array", "_bound_key", "_fresh",
           "_linprog", "_solutions", "signs", "box_signs"}


def test_every_memo_is_declared_through_one_module():
    from bilevelsense import _memo

    assert sorted(_memo.REGISTRY) == [
        "_polyalg._lp", "_polyalg._vrep",
        "cq._inner_regularity", "cq._pointbased_cq", "valuefn._coarse_mesh",
        "valuefn._solution_set", "valuefn._solve_lower"]
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names, caches = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id == "functools":
                    caches.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, ast.ImportFrom) and node.module == "functools":
                caches.update(alias.name for alias in node.names)
            elif isinstance(node, ast.keyword):
                assert node.arg != "typed", path.name
        assert not names & RETIRED, (path.name, names & RETIRED)
        # functools' caches are used in _memo alone
        if path.name != "_memo.py":
            assert not caches & {"lru_cache", "cache"}, path.name


# -- point sets are arrays ---------------------------------------------------------

# the row converters of the tuple-of-tuples point sets
ROW_CONVERTERS = {"vertex_array", "ray_array"}


def test_point_sets_keep_no_tuple_form_converters():
    # Polytope, MultiplierSet and SolutionSet hold read-only (k, d) arrays,
    # so nothing turns them into arrays and back
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope, node in _scoped_nodes(tree):
            if isinstance(node, ast.FunctionDef):
                assert node.name not in ROW_CONVERTERS, (path.name, scope)
                assert scope[:1] != ("SolutionSet",) or node.name != "arrays", \
                    (path.name, scope)
            elif isinstance(node, ast.Attribute):
                assert node.attr not in ROW_CONVERTERS, (path.name, scope)


# -- one seed sort and one mesh evaluator in the sweep ---------------------------

# the helpers the sweep's seed rule and its filter-then-evaluate steps were
# spread over before `valuefn._refine_seeds` took one sort of the live pool
# and `valuefn._evaluate` served every mesh
RETIRED_SWEEP_HELPERS = {"_first_in_order", "_lex_first_tied", "_feasible",
                         "_eval_on"}


def test_the_sweep_keeps_one_seed_sort_and_one_evaluator():
    for path in sorted(SRC.glob("*.py")):
        for scope, node in _scoped_nodes(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.name if isinstance(node, ast.FunctionDef)
                    else node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            assert name not in RETIRED_SWEEP_HELPERS, (path.name, scope, name)
            # the seeds are deduplicated without a per-pair closure
            assert not (scope[:1] == ("_refine_seeds",) and len(scope) > 1
                        and isinstance(node, ast.FunctionDef)), (path.name, scope)


# -- one weight vector in the projector ------------------------------------------

# the parallel vertex/ray bookkeeping the projector and the group fold kept
# before both ran over one weight vector on the stacked generators [V; R]
TWIN_WEIGHT_NAMES = {"support_v", "support_r", "mu"}


def _function(path, name):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_the_projector_keeps_one_support_and_one_weight_vector():
    project = _function(SRC / "subdiff.py", "_project")
    stored = {node.id for node in ast.walk(project)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    assert not stored & TWIN_WEIGHT_NAMES, stored & TWIN_WEIGHT_NAMES
    fold = _function(SRC / "certify.py", "_fold_groups")
    params = [a.arg for a in fold.args.args]
    assert not {"lam", "mu"} & set(params), params
    assert len(params) == 4, params  # points, metadata, weights, vertex count


def test_a_tagged_hull_travels_as_one_tagged_set():
    # the LP block and the tuple fold take the TaggedSet itself, not the
    # (points, vertex count, vertex meta, ray meta) 4-tuple the covector
    # hull once travelled as
    cover = _function(SRC / "sensitivity.py", "cover")
    assert [a.arg for a in cover.args.args] == ["self", "tagged"]
    tuple_data = _function(SRC / "certify.py", "_tuple_data")
    assert [a.arg for a in tuple_data.args.args] == ["tagged", "w", "n", "shift"]


# -- one sweep engine under the traced sweep boundary ------------------------------


def test_every_sweep_runs_in_the_traced_memo_body():
    # `_sweep_batch` is the one sweep engine and only `_solve_lower` calls
    # it, so a batch swept ahead of its points' requests is timed under
    # the valuefn.sweep span of the miss that ran it, and a patched
    # `_solve_lower` stops every sweep; the refinement-level loop (the one
    # loop over refine_depth) is the engine's
    tree = ast.parse((SRC / "valuefn.py").read_text(encoding="utf-8"))
    named = [scope for scope, node in _scoped_nodes(tree)
             if isinstance(node, ast.Name) and node.id == "_sweep_batch"]
    assert named and all(scope == ("_solve_lower",) for scope in named), named
    levels = [scope for scope, node in _scoped_nodes(tree)
              if isinstance(node, ast.For) and any(
                  isinstance(sub, ast.Attribute) and sub.attr == "refine_depth"
                  for sub in ast.walk(node.iter))]
    assert levels == [("_sweep_batch",)], levels
