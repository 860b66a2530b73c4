"""Which public callables enter which layer, and how the traced run
wraps them.

Every wrapper is installed where the caller looks the callable up:
``repro.session`` imports the estimator seams by name, ``repro.core.nds``
imports the itemset miner by name, and the rest are looked up as class
or module attributes at call time.
"""

from __future__ import annotations

import types
from urllib.parse import parse_qs, urlsplit

from .spans import Tracer

#: per-op counters that the workload seed fixes exactly
DETERMINISTIC_COUNTS = (
    "worlds_evaluated", "candidates", "transactions", "itemsets",
    "replayed_worlds", "columns_redrawn", "worlds_flipped",
    "worlds_sampled", "result_bytes",
)


def _stage_children(tracer: Tracer, before: dict, after: dict) -> None:
    """Turn an engine ``stage_stats`` split into derived child spans."""
    tracer.child("stage.sampling", "draw",
                 after.get("sampling", 0.0) - before.get("sampling", 0.0))
    tracer.child("stage.bound", "bound",
                 after.get("bound", 0.0) - before.get("bound", 0.0))
    tracer.count("worlds_primed",
                 after.get("primed", 0) - before.get("primed", 0))
    tracer.count("worlds_filtered",
                 after.get("filtered", 0) - before.get("filtered", 0))


def install(tracer: Tracer) -> None:
    """Patch every layer entry point; :meth:`Tracer.restore` undoes it."""
    import repro.core.nds as core_nds
    import repro.delta as delta
    import repro.engine.estimators as estimators
    import repro.serve as serve
    import repro.session as session
    from repro.core.measures import CliqueDensity, EdgeDensity
    from repro.core.results import MPDSResult, NDSResult
    from repro.engine.indexed import MaskWorld, SubWorldView
    from repro.engine.worldstore import WorldStore

    call, gen, patch = tracer.call, tracer.generator, tracer.patch

    # -- draw ------------------------------------------------------------
    def after_store(args, kwargs, store):
        tracer.count("worlds_sampled", store.count)
        tracer.count("mask_bytes", store.mask_nbytes)

    patch(WorldStore, "from_vectorized", lambda fn: call(
        "WorldStore.from_vectorized", "draw", fn, after_store))
    patch(delta, "draw_dynamic_store", lambda fn: call(
        "delta.draw_dynamic_store", "draw", fn, after_store))
    patch(estimators, "prepare_world_stream", lambda fn: call(
        "estimators.prepare_world_stream", "draw", fn,
        lambda args, kwargs, out: tracer.count("worlds_sampled", args[1])))

    # -- bound + exact: the evaluation seams -----------------------------
    def after_store_eval(args, kwargs, out):
        stage = kwargs.get("stage_stats") or {}
        _stage_children(tracer, {}, stage)
        records = out[0] if isinstance(out, tuple) else out
        tracer.count("worlds_evaluated", len(records))
        if isinstance(out, tuple):
            tracer.count("replayed_worlds", out[1])

    patch(session, "evaluate_store_mpds", lambda fn: call(
        "evaluate_store_mpds", "exact", fn, after_store_eval))
    patch(session, "evaluate_store_transactions", lambda fn: call(
        "evaluate_store_transactions", "exact", fn, after_store_eval))

    def stream_start(args, kwargs):
        measure = args[1]
        stats = getattr(measure, "stage_stats", None)
        return (measure, stats() if stats else {},
                getattr(measure, "replayed_worlds", 0))

    def stream_finish(state, items):
        measure, before, replayed = state
        stats = getattr(measure, "stage_stats", None)
        _stage_children(tracer, before, stats() if stats else {})
        tracer.count("worlds_evaluated", items)
        tracer.count("replayed_worlds",
                     getattr(measure, "replayed_worlds", 0) - replayed)

    patch(session, "evaluate_worlds", lambda fn: gen(
        "evaluate_worlds", "exact", fn, stream_start, stream_finish))
    patch(session, "evaluate_transactions", lambda fn: gen(
        "evaluate_transactions", "exact", fn, stream_start, stream_finish))

    # -- Graph-object path -------------------------------------------------
    for cls in (EdgeDensity, CliqueDensity):
        for name in ("one_densest", "all_densest", "maximum_sized_densest"):
            patch(cls, name, lambda fn, label=f"{cls.__name__}.{name}":
                  call(label, "graphpath", fn))
    patch(MaskWorld, "to_graph", lambda fn: call(
        "MaskWorld.to_graph", "graphpath", fn))
    patch(SubWorldView, "materialize", lambda fn: call(
        "SubWorldView.materialize", "graphpath", fn))

    # -- finalize ----------------------------------------------------------
    patch(session, "finalize_mpds", lambda fn: call(
        "finalize_mpds", "mpds_finalize", fn,
        lambda args, kwargs, result:
        tracer.count("candidates", len(result.candidates))))
    patch(session, "accumulate_transactions", lambda fn: call(
        "accumulate_transactions", "nds_finalize", fn))

    def after_nds(args, kwargs, result):
        tracer.count("transactions", result.transactions)
        tracer.count("itemsets", len(result.top))

    patch(session, "finalize_nds", lambda fn: call(
        "finalize_nds", "nds_finalize", fn, after_nds))
    patch(core_nds, "top_k_closed_itemsets", lambda fn: call(
        "top_k_closed_itemsets", "nds_finalize", fn))

    # -- serialize -----------------------------------------------------------
    for cls in (MPDSResult, NDSResult):
        patch(cls, "to_dict", lambda fn, label=f"{cls.__name__}.to_dict":
              call(label, "serialize", fn))
    patch(serve, "json", lambda module: types.SimpleNamespace(
        loads=module.loads,
        dumps=call("serve.json.dumps", "serialize", module.dumps)))

    # -- delta ---------------------------------------------------------------
    def after_update(args, kwargs, summary):
        tracer.count("columns_redrawn", summary.get("columns_redrawn", 0))
        tracer.count("worlds_flipped", summary.get("worlds_flipped", 0))

    patch(session.Session, "update", lambda fn: call(
        "Session.update", "delta", fn, after_update))

    # -- serve: the handler runs on a server thread; the op id rides in
    # the request's query string, which the router ignores ---------------
    def wrap_handle(fn):
        traced = call("ReproServer.handle", "serve", fn)

        def handle(self, method, path, body):
            query = parse_qs(urlsplit(path).query)
            tracer.set_op(int(query["op"][0]) if "op" in query else None)
            return traced(self, method, path, body)

        return handle

    patch(serve.ReproServer, "handle", wrap_handle)
