"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    List the registered paper datasets and their stand-in statistics.
``stats <graph>``
    Degree/clustering/memory statistics of a dataset or MatrixMarket file.
``compress <graph> [-a ALPHA] [-o OUT.npz]``
    Compress to CBM, print the Table-II-style report, optionally persist.
``inspect <file.npz>``
    Summarise a stored CBM archive.
``bench <graph> [-a ALPHA] [-p COLUMNS]``
    Time CSR vs CBM SpMM on this machine and print the model's 1/16-core
    predictions at paper scale (for registry datasets).
``check {artifact,plan,code,concurrency} ...``
    Static invariant checks (no kernel runs): audit CBM artifacts and
    archives, prove kernel plans race-free, contract-lint the source
    tree, and run the whole-stack concurrency verifier (unified plan IR
    + happens-before races + lock-order/deadlock analysis, with an
    optional dynamic lock-witness cross-check).  Every subcommand takes
    ``--json`` for a machine-readable report.  Nonzero exit on any
    finding.
``crash-soak``
    Kill-9 chaos soak of the persistence tier: writer/trainer workloads
    SIGKILLed at randomized durability sync points, then recovered and
    checked against the crash-safety invariants.  Nonzero exit on any
    violation.
``tune <graph>``
    Route a graph through the format autotuner: per-block CBM-vs-CSR
    decision table with predicted vs measured costs.
``tune-soak``
    Workload-shift soak of the autotuner: lying cost model and
    adversarial mutations; the misprediction watchdog must re-tune with
    zero dropped or wrong requests.  Nonzero exit on any violation.

``<graph>`` is a registry name (see ``datasets``), ``mixed[:N]`` (the
router-stressing mixed-structure benchmark graph), or a path to a
MatrixMarket ``.mtx`` file.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from repro.core.builder import build_cbm
from repro.core.io import load_cbm, save_cbm
from repro.graphs.datasets import REGISTRY, load_dataset, paper_stats
from repro.graphs.stats import compute_stats
from repro.parallel.simulate import predict_cbm_spmm, predict_csr_spmm
from repro.runtime.plan import KernelPlan
from repro.sparse.csr import CSRMatrix
from repro.sparse.io import load_matrix_market
from repro.sparse.ops import spmm
from repro.utils.fmt import format_table, human_bytes, human_time
from repro.utils.timing import measure


def _load_graph(spec: str) -> tuple[str, CSRMatrix]:
    if spec in REGISTRY:
        return spec, load_dataset(spec)
    if spec == "mixed" or spec.startswith("mixed:"):
        # The mixed-structure benchmark graph (clique half + banded half)
        # is deliberately not in REGISTRY — it exists to stress the
        # format router, not to stand in for a paper dataset.
        from repro.graphs import mixed_structure_graph

        n = int(spec.partition(":")[2] or 768)
        return f"mixed({n})", mixed_structure_graph(n, seed=0)
    if os.path.exists(spec):
        a = load_matrix_market(spec)
        a.data.fill(1)  # treat any weights as structure
        return os.path.basename(spec), a
    raise SystemExit(
        f"unknown graph {spec!r}: not a registered dataset "
        f"({', '.join(sorted(REGISTRY))}), not 'mixed[:N]', and not a file"
    )


def cmd_datasets(_args) -> int:
    rows = []
    for name, spec in REGISTRY.items():
        a = load_dataset(name)
        ps = spec.paper
        rows.append(
            [
                name,
                spec.family,
                a.shape[0],
                a.nnz,
                f"{a.nnz / a.shape[0]:.1f}",
                ps.nodes,
                ps.edges,
            ]
        )
    print(
        format_table(
            ["Name", "Family", "Nodes", "Edges", "AvgDeg", "Nodes(paper)", "Edges(paper)"],
            rows,
            title="Registered datasets (synthetic stand-ins; paper originals on the right)",
        )
    )
    return 0


def cmd_stats(args) -> int:
    name, a = _load_graph(args.graph)
    st = compute_stats(a, clustering=not args.no_clustering)
    print(f"{name}: {st.nodes} nodes, {st.edges} undirected edges")
    print(f"  average degree        {st.average_degree:.2f}")
    if not args.no_clustering:
        print(f"  average clustering    {st.average_clustering:.3f}")
    print(f"  CSR footprint         {human_bytes(st.csr_bytes)}")
    return 0


def cmd_compress(args) -> int:
    name, a = _load_graph(args.graph)
    cbm, rep = build_cbm(a, alpha=args.alpha)
    print(f"{name}: compressed in {human_time(rep.seconds)} (alpha={args.alpha})")
    print(f"  candidate edges       {rep.candidate_edges}")
    print(f"  tree edges / roots    {rep.tree_edges} / {rep.roots}")
    print(f"  deltas vs nnz         {rep.total_deltas} / {rep.source_nnz}")
    print(f"  S_CBM                 {human_bytes(rep.memory_bytes)}")
    print(f"  compression ratio     {rep.compression_ratio:.2f}x")
    if args.output:
        save_cbm(args.output, cbm)
        print(f"  written to            {args.output}")
    return 0


def cmd_inspect(args) -> int:
    cbm = load_cbm(args.file)
    st = cbm.stats()
    rows = [[k, v if not isinstance(v, float) else f"{v:.4f}"] for k, v in st.items()]
    print(format_table(["field", "value"], rows, title=f"CBM archive {args.file}"))
    return 0


def cmd_bench(args) -> int:
    exit_code = 0
    name, a = _load_graph(args.graph)
    cbm, rep = build_cbm(a, alpha=args.alpha)
    x = np.random.default_rng(0).random((a.shape[1], args.columns), dtype=np.float64)
    x = x.astype(np.float32)
    t_csr = measure(lambda: spmm(a, x), max_repeats=args.repeats)
    cbm.plan()  # plan once, outside the timed region
    t_cbm = measure(lambda: cbm.matmul(x), max_repeats=args.repeats)
    print(f"{name} (alpha={args.alpha}, p={args.columns}, ratio={rep.compression_ratio:.2f}x)")
    print(f"  CSR SpMM   {human_time(t_csr.mean)} +- {human_time(t_csr.std)}")
    print(f"  CBM SpMM   {human_time(t_cbm.mean)} +- {human_time(t_cbm.std)} (planned)")
    print(f"  measured speedup (1 core): {t_csr.mean / t_cbm.mean:.2f}x")
    if args.guarded or args.strict:
        from repro.errors import ReproError
        from repro.reliability import GuardedKernel

        guard = GuardedKernel(cbm, source=a, strict=args.strict)
        mode = "strict" if args.strict else "guarded"
        try:
            guard.matmul(x)  # warm (validation buffers, plan reuse)
            t_guard = measure(lambda: guard.matmul(x), max_repeats=args.repeats)
            overhead = (t_guard.mean / t_cbm.mean - 1.0) * 100.0
            print(
                f"  CBM SpMM   {human_time(t_guard.mean)} +- {human_time(t_guard.std)} "
                f"({mode}, {overhead:+.1f}% vs planned)"
            )
        except ReproError as exc:
            # Strict mode fails fast: surface the error and a nonzero exit
            # code so CI treats any fast-path degradation as a failure.
            print(f"  {mode} guarded run FAILED: {type(exc).__name__}: {exc}")
            exit_code = 1
        gs = guard.stats.snapshot()
        print(
            f"  guard counters: {gs['calls']} calls, {gs['fallbacks']} fallbacks, "
            f"{gs['input_rejections']} input rejections, "
            f"{gs['warnings_suppressed']} warnings suppressed"
        )
        if gs["reasons"]:
            reasons = ", ".join(f"{k}={v}" for k, v in sorted(gs["reasons"].items()))
            print(f"  fallback reasons: {reasons}")
        if args.strict and gs["fallbacks"]:
            print("  strict mode: fallbacks occurred -> exit 1")
            exit_code = 1
    if args.unplanned:
        t_unp = measure(lambda: KernelPlan(cbm).execute(x), max_repeats=args.repeats)
        print(f"  CBM SpMM   {human_time(t_unp.mean)} +- {human_time(t_unp.std)} "
              "(plan built per call)")
        print(f"  plan amortisation: {t_unp.mean / t_cbm.mean:.2f}x")
    if args.graph in REGISTRY:
        ps = paper_stats(args.graph)
        s_nnz = ps.edges / a.nnz
        s_rows = ps.nodes / a.shape[0]
        for cores in (1, 16):
            c = predict_csr_spmm(a, args.columns, cores=cores, scale_nnz=s_nnz, scale_rows=s_rows)
            b = predict_cbm_spmm(cbm, args.columns, cores=cores, scale_nnz=s_nnz, scale_rows=s_rows)
            print(f"  model speedup at paper scale ({cores:2d} cores): {c.total_s / b.total_s:.2f}x")
    return exit_code


def cmd_model(args) -> int:
    from repro.parallel.report import cost_breakdown, render_breakdown

    name, a = _load_graph(args.graph)
    cbm, rep = build_cbm(a, alpha=args.alpha)
    if args.graph in REGISTRY:
        ps = paper_stats(args.graph)
        s_nnz = ps.edges / a.nnz
        s_rows = ps.nodes / a.shape[0]
        scale_note = "paper scale"
    else:
        s_nnz = s_rows = 1.0
        scale_note = "native scale"
    rows = cost_breakdown(a, cbm, args.columns, scale_nnz=s_nnz, scale_rows=s_rows)
    print(
        render_breakdown(
            rows,
            f"Machine-model cost breakdown — {name} (alpha={args.alpha}, "
            f"p={args.columns}, ratio={rep.compression_ratio:.2f}x, {scale_note})",
        )
    )
    return 0


def cmd_plan(args) -> int:
    from repro.parallel.cache import plan_working_set
    from repro.parallel.schedule import plan_update_schedule
    from repro.utils.timing import measure as _measure

    name, a = _load_graph(args.graph)
    cbm, rep = build_cbm(a, alpha=args.alpha)
    plan = cbm.plan()
    desc = plan.describe()
    rows = [[k, v if not isinstance(v, float) else f"{v:.6f}"] for k, v in desc.items()]
    print(
        format_table(
            ["field", "value"],
            rows,
            title=f"Kernel plan — {name} (alpha={args.alpha}, "
            f"ratio={rep.compression_ratio:.2f}x)",
        )
    )
    sched = plan_update_schedule(plan, args.columns, args.threads)
    ws = plan_working_set(plan, args.columns)
    print(
        f"  update-stage schedule @ {args.threads} threads: "
        f"speedup {sched.speedup:.2f}x, utilisation {sched.utilisation:.0%} "
        f"over {sched.tasks} branches"
    )
    print(f"  working set: sparse {human_bytes(ws.sparse_bytes)}, "
          f"dense {human_bytes(ws.dense_bytes)} at p={args.columns}")
    x = np.random.default_rng(0).random((a.shape[1], args.columns), dtype=np.float64)
    x = x.astype(np.float32)
    t_planned = _measure(lambda: cbm.matmul(x), max_repeats=args.repeats)
    t_per_call = _measure(lambda: KernelPlan(cbm).execute(x), max_repeats=args.repeats)
    print(f"  planned execute   {human_time(t_planned.mean)}")
    print(f"  plan per call     {human_time(t_per_call.mean)} "
          f"({t_per_call.mean / t_planned.mean:.2f}x slower)")
    return 0


def cmd_serve_bench(args) -> int:
    """Run the chaos-under-load serving soak and print its report.

    Exit code 0 only when every invariant held: zero results diverging
    from the CSR reference, zero hung requests, and (with chaos on) the
    circuit breaker both tripped to the CSR degraded tier and recovered
    to the fast tier through half-open probing.
    """
    import json
    import warnings as _warnings

    from repro.reliability.guard import FallbackWarning
    from repro.serving import run_batched_soak, run_soak

    name, a = _load_graph(args.graph)
    if args.batched:
        report = run_batched_soak(
            a,
            alpha=args.alpha,
            clients=args.clients,
            requests_per_client=args.requests,
            max_width=args.columns,
            deadline_s=args.deadline,
            workers=args.workers,
            max_columns=args.max_columns,
            latency_budget_s=args.budget_ms / 1e3,
            seed=args.seed,
        )
        print(f"batched serving soak — {name} (alpha={args.alpha}, "
              f"{args.clients} clients, max_width={args.columns}, "
              f"batch<= {args.max_columns} cols, budget {args.budget_ms:.1f}ms)")
        rows = []
        for ph in report["phases"]:
            rows.append([
                ph["phase"], ph["requests"], ph["ok"], ph["wrong"],
                ph["cross_generation"], ph["shed"], ph["deadline_misses"],
                ph["input_rejected"], ph["errors"], ph["hung"],
                f"{ph['latency_p50_ms']:.2f}" if ph["latency_p50_ms"] is not None else "-",
                f"{ph['latency_p99_ms']:.2f}" if ph["latency_p99_ms"] is not None else "-",
            ])
        print(format_table(
            ["phase", "req", "ok", "wrong", "xgen", "shed", "dl", "rej",
             "err", "hung", "p50 ms", "p99 ms"],
            rows,
        ))
        sv = report["service"]
        bt = report["batching"]
        print(f"  service: {sv['batches']} batches, {sv['coalesced']} coalesced, "
              f"{sv['batch_victims']} batch victims, {sv['retries']} retries, "
              f"{sv['swaps']} swaps")
        print(f"  collector: {bt['collector']}")
        for key, ok in report["checks"].items():
            print(f"  [{'ok' if ok else 'FAIL'}] {key}")
        for v in report["violations"]:
            print(f"  violation: {v}")
        if args.json:
            with open(args.json, "w") as fh:
                json.dump(report, fh, indent=1, sort_keys=True)
            print(f"  report written to {args.json}")
        return 0 if report["ok"] else 1
    with _warnings.catch_warnings():
        if not args.verbose:
            _warnings.simplefilter("ignore", FallbackWarning)
        report = run_soak(
            a,
            alpha=args.alpha,
            clients=args.clients,
            requests_per_client=args.requests,
            p=args.columns,
            deadline_s=args.deadline,
            threads=args.threads,
            workers=args.workers,
            fail_rate=args.fail_rate,
            stall_rate=args.stall_rate,
            seed=args.seed,
        )
    print(f"serving soak — {name} (alpha={args.alpha}, {args.clients} clients, "
          f"p={args.columns}, deadline {args.deadline:.1f}s)")
    rows = []
    for ph in report["phases"]:
        rows.append([
            ph["phase"], ph["requests"], ph["ok"], ph["wrong"], ph["shed"],
            ph["deadline_misses"], ph["input_rejected"], ph["errors"], ph["hung"],
            f"{ph['latency_p50_ms']:.2f}" if ph["latency_p50_ms"] is not None else "-",
            f"{ph['latency_p99_ms']:.2f}" if ph["latency_p99_ms"] is not None else "-",
        ])
    print(format_table(
        ["phase", "req", "ok", "wrong", "shed", "dl", "rej", "err", "hung",
         "p50 ms", "p99 ms"],
        rows,
    ))
    br = report["breaker"]
    ch = report["chaos"]
    sv = report["service"]
    print(f"  breaker: {br['state']} at tier {br['tier']}, "
          f"{br['transitions']} transitions")
    print(f"  chaos: {ch['injected_failures']} worker kills, "
          f"{ch['injected_stalls']} stalls over {ch['built']} executors")
    print(f"  service: {sv['retries']} retries, {sv['shed']} shed, "
          f"{sv['swaps']} swaps")
    for key, ok in report["checks"].items():
        print(f"  [{'ok' if ok else 'FAIL'}] {key}")
    for v in report["violations"]:
        print(f"  violation: {v}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
        print(f"  report written to {args.json}")
    return 0 if report["ok"] else 1


def _emit_check_reports(reports, json_path, verbose) -> int:
    """Render audit reports, optionally write JSON, return the exit code.

    Exit is nonzero when any report carries a finding — ``repro check``
    is a gate, so a violated invariant must fail the invoking job.
    """
    import json

    findings = 0
    for rep in reports:
        if verbose or not rep.ok:
            print(rep.render())
        else:
            print(f"{rep.subject}: clean ({sum(rep.checks.values())} checks)")
        findings += len(rep.findings)
    if json_path:
        payload = {
            "ok": findings == 0,
            "findings": findings,
            "reports": [rep.to_dict() for rep in reports],
        }
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
        print(f"audit report written to {json_path}")
    if findings:
        print(f"FAIL: {findings} finding(s)")
        return 1
    return 0


def cmd_check_artifact(args) -> int:
    """Statically audit CBM artifacts: archives or freshly built matrices."""
    from repro.staticcheck import audit_archive, audit_cbm

    reports = []
    for spec in args.target:
        if os.path.exists(spec) and spec.endswith(".npz"):
            reports.append(audit_archive(spec))
        else:
            name, a = _load_graph(spec)
            cbm, _ = build_cbm(a, alpha=args.alpha)
            reports.append(audit_cbm(cbm, subject=f"{name}(alpha={args.alpha})"))
    return _emit_check_reports(reports, args.json, args.verbose)


def cmd_check_plan(args) -> int:
    """Statically prove a kernel plan's update stage race-free.

    Also audits the batched-serving schedule: a representative
    stacked-operand :class:`BatchLayout` (mixed member widths up to the
    column cap, quantised) is proven free of cross-member aliasing,
    bounds violations, and unowned gap columns alongside each plan.
    With ``--shards N`` the process-parallel shard plan is audited too:
    every row owned by exactly one shard, and no two operand arrays
    aliasing byte spans within a shared-memory segment.

    The autotuner's hybrid format plan rides along: the cost-model
    router's block map for the graph is materialised into a
    :class:`HybridPlan` and lowered through the unified IR —
    disjoint/covering spans (HZ-H201/H202) and executor-vs-committed-map
    agreement (HZ-H201 stale map, HZ-H203 mis-route).
    """
    from repro.autotune import RouterPolicy, build_hybrid, tune
    from repro.serving.batching import BatchConfig, BatchLayout
    from repro.staticcheck import (
        analyze_hybrid_plan,
        analyze_ir,
        analyze_plan,
        analyze_shard_plan,
        lower_hybrid_plan,
    )

    cfg = BatchConfig(max_columns=args.batch_columns)
    widths = []
    w = 1
    while sum(widths) + w <= cfg.max_columns:
        widths.append(w)
        w = min(w * 2, cfg.max_columns - sum(widths) or 1)
    reports = []
    for spec in args.target:
        name, a = _load_graph(spec)
        cbm, _ = build_cbm(a, alpha=args.alpha)
        layout = BatchLayout.pack(widths, quantum=cfg.quantum, n_rows=cbm.shape[0])
        for update in ("level", "edge"):
            plan = cbm.plan(update=update)
            reports.append(
                analyze_plan(
                    plan,
                    threads=args.threads,
                    p=args.columns,
                    branch_timeout=args.branch_timeout,
                    batch_layout=layout,
                    subject=f"{name}(alpha={args.alpha},update={update})",
                )
            )
        if args.shards > 0:
            from repro.parallel.shard import ShardedPlan

            with ShardedPlan(a, num_shards=args.shards, alpha=args.alpha) as sharded:
                reports.append(
                    analyze_shard_plan(
                        sharded,
                        subject=f"{name}(alpha={args.alpha},shards={args.shards})",
                    )
                )
        # Hybrid format plan: route with the cost model (no measurement
        # race — this is a static gate), lower, and audit.
        tuned = tune(a, cbm, args.columns, policy=RouterPolicy(measure=False))
        subject = f"{name}(alpha={args.alpha},route={tuned.chosen})"
        hybrid = build_hybrid(cbm, a, tuned.decision)
        if hybrid is not None:
            reports.append(analyze_hybrid_plan(hybrid, subject=subject))
            hybrid.drain()
        else:  # pure-CBM route: audit the one-block map itself
            reports.append(
                analyze_ir(
                    lower_hybrid_plan(
                        blocks=tuned.decision.block_map(),
                        n_rows=cbm.shape[0],
                        subject=subject,
                    )
                )
            )
    return _emit_check_reports(reports, args.json, args.verbose)


def cmd_check_code(args) -> int:
    """Run the contract linter over the source tree (ruff-style output).

    Baseline hygiene rides along: entries in the baseline file that no
    longer match any current finding are reported as stale (the debt was
    paid but the ledger not updated).  Stale entries warn by default and
    fail the run under ``--strict-baseline``.
    """
    import json

    from repro.staticcheck import lint_paths_with_baseline, load_baseline

    baseline = load_baseline(args.baseline) if args.baseline else set()
    findings, stale = lint_paths_with_baseline(args.paths, baseline=baseline)
    for f in findings:
        print(f.render())
    for entry in sorted(stale):
        print(
            f"{args.baseline}: stale baseline entry `{entry}` no longer "
            "matches any finding — delete it"
        )
    checked = args.paths if len(args.paths) > 1 else args.paths[0]
    failed = bool(findings) or (bool(stale) and args.strict_baseline)
    if args.json:
        payload = {
            "ok": not failed,
            "findings": [f.to_dict() for f in findings],
            "stale_baseline": sorted(stale),
            "baseline_entries": len(baseline),
            "strict_baseline": bool(args.strict_baseline),
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
        print(f"lint report written to {args.json}")
    if findings:
        print(f"FAIL: {len(findings)} contract finding(s) in {checked}")
        return 1
    if stale and args.strict_baseline:
        print(f"FAIL: {len(stale)} stale baseline entry(ies) in {args.baseline}")
        return 1
    suffix = f", {len(stale)} stale" if stale else ""
    print(
        f"{checked}: clean (contract lint, baseline {len(baseline)} "
        f"entries{suffix})"
    )
    return 0


def _witness_exercise(a, *, alpha: int, seed: int = 0):
    """Run a miniature serving workload under the lock-witness recorder.

    Builds a small :class:`InferenceService` over ``a``, instruments its
    locks (service, stats, collector, breaker), then drives the paths
    whose lock interplay the static graph models: batched submits, a hot
    slot swap, stats snapshots, and shutdown.  Returns the populated
    :class:`LockWitness`.
    """
    from repro.serving import AdjacencySlot, BatchConfig, InferenceService
    from repro.staticcheck import witness_service

    rng = np.random.default_rng(seed)
    slot = AdjacencySlot.from_graph(a, alpha=alpha)
    with InferenceService(
        slot,
        workers=2,
        batch=BatchConfig(latency_budget_s=0.02),
        seed=seed,
    ) as svc:
        witness = witness_service(svc)
        n = a.shape[0]
        futures = [
            svc.submit(rng.standard_normal((n, 1 + (i % 3))))
            for i in range(6)
        ]
        for f in futures:
            f.result(30.0)
        svc.swap_slot(AdjacencySlot.from_graph(a, alpha=alpha))
        futures = [svc.submit(rng.standard_normal((n, 2))) for _ in range(3)]
        for f in futures:
            f.result(30.0)
        svc.stats.snapshot()
    return witness


def cmd_check_concurrency(args) -> int:
    """Whole-stack concurrency verification: IR audits + SC7xx lock pass.

    Lowers every plan shape the benchmarks construct — kernel plans
    (threaded branch replay and sequential level schedules, each with a
    prospective fused row-scaling stage), the stacked-operand batch
    layout, the N-shard process plan with its shared-memory segments,
    and the streaming snapshot/rebuild/publish protocol — into the
    unified IR and proves each free of span-discipline violations and
    happens-before races (HZ-R4xx).  Then runs the lock-order and
    blocking-call analysis (SC7xx) over the source tree, and with
    ``--witness`` cross-checks the static lock graph against acquisition
    orders recorded from a live miniature serving workload
    (SC704/SC705).  Nonzero exit on any finding.
    """
    from repro.serving.batching import BatchConfig, BatchLayout
    from repro.staticcheck import (
        FusedStage,
        analyze_ir,
        analyze_locks,
        cross_check,
        lower_batch_layout,
        lower_kernel_plan,
        lower_shard_plan,
        lower_stream_swap,
    )

    cfg = BatchConfig(max_columns=args.batch_columns)
    widths = []
    w = 1
    while sum(widths) + w <= cfg.max_columns:
        widths.append(w)
        w = min(w * 2, cfg.max_columns - sum(widths) or 1)
    reports = []
    for spec in args.target:
        name, a = _load_graph(spec)
        cbm, _ = build_cbm(a, alpha=args.alpha)
        for update in ("level", "edge"):
            plan = cbm.plan(update=update)
            fused = (
                (FusedStage("row-scale", branch=0),) if plan.branches else ()
            )
            for threaded in (True, False):
                mode = "threaded" if threaded else "sequential"
                reports.append(
                    analyze_ir(
                        lower_kernel_plan(
                            plan,
                            threaded=threaded,
                            fused=fused if threaded else (),
                            subject=(
                                f"{name}(alpha={args.alpha},"
                                f"update={update},{mode})"
                            ),
                        )
                    )
                )
        layout = BatchLayout.pack(widths, quantum=cfg.quantum, n_rows=cbm.shape[0])
        reports.append(
            analyze_ir(
                lower_batch_layout(layout, subject=f"{name}(batch-layout)")
            )
        )
        if args.shards > 0:
            from repro.parallel.shard import ShardedPlan

            with ShardedPlan(a, num_shards=args.shards, alpha=args.alpha) as sharded:
                reports.append(
                    analyze_ir(
                        lower_shard_plan(
                            sharded,
                            subject=f"{name}(shards={args.shards})",
                        )
                    )
                )
    reports.append(analyze_ir(lower_stream_swap()))
    graph = None
    if not args.no_locks:
        lock_report, graph = analyze_locks(args.paths)
        reports.append(lock_report)
    if args.witness:
        if graph is None:
            _, graph = analyze_locks(args.paths)
        _, a = _load_graph(args.target[0])
        witness = _witness_exercise(a, alpha=args.alpha, seed=args.seed)
        print(
            f"witness: {sum(witness.acquisitions.values())} acquisitions "
            f"over {len(witness.acquisitions)} locks, "
            f"{len(witness.edges)} distinct ordered pairs"
        )
        reports.append(cross_check(witness, graph))
    return _emit_check_reports(reports, args.json, args.verbose)


def cmd_crash_soak(args) -> int:
    """Kill-9 soak of the persistence tier (see repro.recovery.crashsim).

    Exit 0 only when every durability invariant held across all trials:
    no committed generation lost, latest() never corrupt, every torn
    temp file quarantined, recovery time within budget.  With
    ``--break-protocol`` the harness runs a deliberately buggy writer
    and the expected outcome inverts: a nonzero exit proves the
    invariant checks detect the bug.
    """
    import json

    from repro.recovery.crashsim import run_soak

    def progress(done, total, trial):
        if args.verbose:
            status = "ok" if trial.ok else "VIOLATION"
            print(
                f"  [{done:3d}/{total}] {trial.workload:8s} crash_at={trial.crash_at:3d} "
                f"{'killed' if trial.killed else 'clean '} "
                f"committed={len(trial.announced)} kept={len(trial.kept)} "
                f"quarantined={trial.quarantined} {status}"
            )

    workloads = (
        ("archive",)
        if args.break_protocol
        else ("archive", "trainer", "multi", "streaming")
    )
    report = run_soak(
        trials=args.trials,
        seed=args.seed,
        workloads=workloads,
        iterations=args.iterations,
        break_protocol=args.break_protocol,
        recovery_budget_s=args.recovery_budget,
        progress=progress,
    )
    print(f"crash soak — {report['trials']} trials, "
          f"{report['killed']} SIGKILLed, {report['clean_exits']} clean exits "
          f"({report['elapsed_s']:.1f}s)")
    print(f"  commits observed        {report['commits_observed']}")
    print(f"  generations quarantined {report['generations_quarantined']}")
    print(f"  stray tmp quarantined   {report['stray_tmp_quarantined']}")
    print(f"  max recovery time       {report['max_recovery_s'] * 1e3:.1f} ms "
          f"(budget {report['recovery_budget_s']:.1f}s)")
    for name, stats in report["workloads"].items():
        print(f"  {name:8s} trials={stats['trials']} kills={stats['kills']} "
              f"violations={stats['violations']}")
    for v in report["violations"]:
        print(f"  violation: {v}")
    print(f"  {'OK' if report['ok'] else 'FAIL'}: "
          f"{len(report['violations'])} violated invariant(s)")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
        print(f"  report written to {args.json}")
    return 0 if report["ok"] else 1


def cmd_stream_soak(args) -> int:
    """Mutation-storm soak of the streaming tier (repro.streaming.soak).

    Concurrent edge mutations + batched inference + background rebuilds
    + kill-9 rebuild crashes over one live system.  Exit 0 only when
    every served result bitwise-matched a published generation within
    the staleness budget, no request was dropped or hung, every crashed
    rebuild recovered or quarantined, the pinned generation survived
    retention pruning, and both the patched and the rebuilt artifacts
    passed their static audits.
    """
    import json

    from repro.streaming import run_mutation_soak

    a = None
    if args.graph:
        _, a = _load_graph(args.graph)

    def progress(msg):
        if args.verbose:
            print(f"  {msg}")

    report = run_mutation_soak(
        a,
        seed=args.seed,
        clients=args.clients,
        requests_per_client=args.requests,
        mutator_batches=args.mutations,
        edges_per_batch=args.edges,
        staleness_budget=args.staleness_budget,
        max_drift=args.max_drift,
        crash_trials=args.crash_trials,
        min_requests=args.min_requests,
        progress=progress,
    )
    w = report["workload"]
    print(
        f"mutation soak — {w['nodes']} nodes, {w['nnz_initial']} edges, "
        f"{w['clients']} clients ({report['elapsed_s']:.1f}s)"
    )
    print(f"  requests served        {report['requests']} "
          f"(verified {report['verified_ok']}, wrong {report['wrong']}, "
          f"hung {report['hung']}, dropped {report['dropped']}, "
          f"errors {report['errors']})")
    print(f"  patches applied        {report['patches_applied']} "
          f"(p50 {report['patch_p50_ms'] or 0:.2f} ms, "
          f"max staleness {report['max_staleness']}/{w['staleness_budget']})")
    print(f"  rebuilds completed     {report['rebuilds']} "
          f"(wall {report['rebuild_wall_s']})")
    print(f"  generations committed  {report['generations_committed']}")
    for t in report["crash"]:
        print(f"  crash trial            crash_at={t['crash_at']} "
              f"{'killed' if t['killed'] else 'clean'} kept={t['kept']} "
              f"quarantined={t['quarantined']} {'ok' if t['ok'] else 'VIOLATION'}")
    for name, ok in report["checks"].items():
        print(f"  {'PASS' if ok else 'FAIL'}  {name}")
    for v in report["violations"]:
        print(f"  violation: {v}")
    print(f"  {'OK' if report['ok'] else 'FAIL'}: "
          f"{len(report['violations'])} violation(s)")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True, default=str)
        print(f"  report written to {args.json}")
    return 0 if report["ok"] else 1


def cmd_shard_soak(args) -> int:
    """Worker-kill soak of the sharded process executor (repro.parallel.soak).

    Exit 0 only when every supervised execution under the SIGKILL/stall/
    torn-write storm returned the reference answer within its deadline
    and no ``/dev/shm`` segment survived the run.  With
    ``--no-supervisor`` the same storm runs against the unsupervised
    pool and the expected outcome inverts: a nonzero exit proves the
    harness's wrongness/hang checks have teeth (negative control).
    """
    import json

    from repro.parallel.soak import run_shard_soak

    a = None
    if args.graph:
        _, a = _load_graph(args.graph)

    def progress(done, total, elapsed, wrong, hung):
        if args.verbose:
            print(
                f"  [{done:3d}/{total}] {elapsed * 1e3:7.1f} ms "
                f"wrong={wrong} hung={hung}"
            )

    report = run_shard_soak(
        a,
        n=args.nodes,
        num_shards=args.shards,
        workers=args.workers,
        executions=args.executions,
        columns=args.columns,
        variant=args.variant,
        kill_rate=args.kill_rate,
        stall_rate=args.stall_rate,
        torn_rate=args.torn_rate,
        stall_seconds=args.stall_seconds,
        heartbeat_timeout_s=args.heartbeat_timeout,
        deadline_s=args.deadline,
        supervised=not args.no_supervisor,
        seed=args.seed,
        progress=progress,
    )
    w = report["workload"]
    print(
        f"shard soak — {w['nodes']} nodes, {w['nnz']} edges, "
        f"{w['num_shards']} shards × {w['workers']} workers, "
        f"{'supervised' if w['supervised'] else 'UNSUPERVISED'} "
        f"({report['elapsed_s']:.1f}s)"
    )
    print(f"  executions             {w['executions']} "
          f"(wrong {report['wrong']}, hung {report['hung']}, "
          f"errors {report['errors']})")
    print(f"  faults decided         {report['faults_decided']} "
          f"(kill {report['chaos']['kill_rate']}, "
          f"stall {report['chaos']['stall_rate']}, "
          f"torn {report['chaos']['torn_rate']})")
    if report["supervisor"] is not None:
        s = report["supervisor"]["stats"]
        print(f"  supervision            retries={s['shard_retries']} "
              f"heartbeat_kills={s['heartbeat_kills']} "
              f"checksum_rejects={s['checksum_rejects']} "
              f"quarantines={s['quarantines']} "
              f"degraded={s['degraded_executions']}")
        print(f"  breaker                {report['supervisor']['breaker']['tier']} "
              f"({report['supervisor']['breaker']['state']})")
    print(f"  latency p50/max        {report['latency_p50_ms'] or 0:.1f} / "
          f"{report['latency_max_ms'] or 0:.1f} ms")
    print(f"  shm swept at start     {len(report['swept_at_start'])}")
    print(f"  shm leaked at end      {len(report['leaked_segments'])}")
    for name, ok in report["checks"].items():
        print(f"  {'PASS' if ok else 'FAIL'}  {name}")
    for v in report["violations"]:
        print(f"  violation: {v}")
    print(f"  {'OK' if report['ok'] else 'FAIL'}: "
          f"{len(report['violations'])} violation(s)")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True, default=str)
        print(f"  report written to {args.json}")
    return 0 if report["ok"] else 1


def cmd_tune(args) -> int:
    """Route a graph through the format autotuner and print the decision.

    Calibrates the cost model on the actual matrix, prints the router's
    per-block decision table (predicted CSR vs CBM seconds per block),
    then races the candidate routes and reports the measured winner.
    ``--pin`` skips the race and forces a route; ``--no-measure`` trusts
    the model alone (what a budget-constrained background re-tune does).
    """
    import json

    from repro.autotune import CostModel, FormatRouter, RouterPolicy, tune

    name, a = _load_graph(args.graph)
    cbm, _ = build_cbm(a, alpha=args.alpha)
    policy = RouterPolicy(measure=not args.no_measure, pin=args.pin)
    model = CostModel.calibrate(a, cbm, columns=args.columns)
    routed = FormatRouter(model).decide(a, cbm, args.columns, policy=policy)
    report = tune(a, cbm, args.columns, policy=policy, model=model)

    rows = []
    for b in routed.blocks:
        c = b.cost
        rows.append(
            [
                f"[{b.lo}, {b.hi})",
                b.rows,
                c.nnz if c else "-",
                c.delta_nnz if c else "-",
                c.levels if c else "-",
                f"{c.csr_s * 1e6:.1f}" if c else "-",
                f"{c.cbm_s * 1e6:.1f}" if c else "-",
                b.fmt,
            ]
        )
    print(
        format_table(
            ["block", "rows", "nnz", "deltas", "levels", "csr(us)", "cbm(us)", "choice"],
            rows,
            title=f"{name}: router block map (p={args.columns}, alpha={args.alpha})",
        )
    )
    pred = routed.predicted
    print(f"  predicted             csr {pred.get('csr', 0.0) * 1e6:.1f} us   "
          f"cbm {pred.get('cbm', 0.0) * 1e6:.1f} us   "
          f"routed {pred.get('routed', 0.0) * 1e6:.1f} us")
    if report.candidates:
        meas = "   ".join(
            f"{k} {v * 1e6:.1f} us" for k, v in sorted(report.candidates.items())
        )
        print(f"  measured              {meas}")
    suffix = " (pinned)" if args.pin else ("" if report.measured else " (model only)")
    print(f"  chosen route          {report.chosen}{suffix}")
    print(f"  tune wall time        {human_time(report.seconds)}")
    if args.json:
        payload = {
            "graph": name,
            "alpha": args.alpha,
            **report.to_dict(),
            "table": [b.to_dict() for b in routed.blocks],
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
        print(f"  report written to {args.json}")
    return 0


def cmd_tune_soak(args) -> int:
    """Workload-shift soak of the format autotuner (repro.autotune.soak).

    The initial tune is sabotaged by a lying cost model; the watchdog
    must catch the misprediction, re-tune in the background with zero
    dropped or wrong requests, and converge back to within tolerance of
    the best static format.  Adversarial structure mutations then shift
    the workload and the drift trigger must fire a second re-tune.  With
    ``--pin FORMAT`` the negative control runs: the route is pinned, the
    retuner disabled, and a wrong pin must FAIL the convergence gate.
    """
    import json

    from repro.autotune import run_tune_soak

    a = None
    if args.graph:
        _, a = _load_graph(args.graph)

    def progress(msg):
        if args.verbose:
            print(f"  {msg}")

    report = run_tune_soak(
        a,
        seed=args.seed,
        columns=args.columns,
        clients=args.clients,
        requests_per_client=args.requests,
        mutation_batches=args.mutations,
        scatter_edges=args.edges,
        lie_factor=args.lie_factor,
        pin_format=args.pin,
        convergence_tolerance=args.tolerance,
        min_requests=args.min_requests,
        progress=progress,
    )
    w = report["workload"]
    mode = (
        f", pinned {w['pin_format']}" if w["pin_format"]
        else f", lie x{w['lie_factor']:g}"
    )
    print(f"tune soak — {w['nodes']} nodes, {w['nnz_initial']} edges, "
          f"{w['clients']} clients{mode} ({report['elapsed_s']:.1f}s)")
    print(f"  requests served        {report['requests']} "
          f"(verified {report['verified_ok']}, wrong {report['wrong']}, "
          f"hung {report['hung']}, dropped {report['dropped']}, "
          f"errors {report['errors']})")
    print(f"  route                  {report['initial_route']} -> "
          f"{report['served_route']}")
    print(f"  re-tunes               {report['retunes']} "
          f"({', '.join(report['retune_reasons']) or 'none'})")
    race = "   ".join(
        f"{k} {v * 1e6:.1f} us"
        for k, v in sorted(report["final_candidates"].items())
    )
    print(f"  final race             {race}")
    print(f"  served vs best static  {report['served_s'] * 1e6:.1f} / "
          f"{report['best_static_s'] * 1e6:.1f} us")
    for key, ok in report["checks"].items():
        print(f"  {'PASS' if ok else 'FAIL'}  {key}")
    for v in report["violations"]:
        print(f"  violation: {v}")
    print(f"  {'OK' if report['ok'] else 'FAIL'}: "
          f"{len(report['violations'])} violation(s)")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True, default=str)
        print(f"  report written to {args.json}")
    return 0 if report["ok"] else 1


def cmd_verify(args) -> int:
    from repro.core.verify import verify_cbm

    name, a = _load_graph(args.graph)
    cbm, _ = build_cbm(a, alpha=args.alpha)
    report = verify_cbm(cbm, a, runs=args.runs, columns=args.columns)
    print(f"{name}: {report}")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="CBM format toolkit (paper reproduction)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list registered datasets").set_defaults(fn=cmd_datasets)

    p = sub.add_parser("stats", help="graph statistics")
    p.add_argument("graph")
    p.add_argument("--no-clustering", action="store_true", help="skip the triangle count")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("compress", help="compress a graph to CBM")
    p.add_argument("graph")
    p.add_argument("-a", "--alpha", type=int, default=0)
    p.add_argument("-o", "--output", help="write the CBM archive here (.npz)")
    p.set_defaults(fn=cmd_compress)

    p = sub.add_parser("inspect", help="summarise a stored CBM archive")
    p.add_argument("file")
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("model", help="machine-model cost breakdown (CSR vs CBM, 1/16 cores)")
    p.add_argument("graph")
    p.add_argument("-a", "--alpha", type=int, default=0)
    p.add_argument("-p", "--columns", type=int, default=500)
    p.set_defaults(fn=cmd_model)

    p = sub.add_parser(
        "plan", help="build and summarise the kernel plan (schedule, working set, amortisation)"
    )
    p.add_argument("graph")
    p.add_argument("-a", "--alpha", type=int, default=0)
    p.add_argument("-p", "--columns", type=int, default=500)
    p.add_argument("-t", "--threads", type=int, default=16)
    p.add_argument("--repeats", type=int, default=10)
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser(
        "check",
        help="static invariant checks: artifact audit, plan race detection, "
        "contract lint, whole-stack concurrency verification "
        "(nonzero exit on findings)",
    )
    check_sub = p.add_subparsers(dest="checker", required=True)

    pc = check_sub.add_parser(
        "artifact",
        help="audit CBM artifacts (.npz archives, or graphs compressed on "
        "the fly): tree rootedness, delta consistency, Properties 1-2, "
        "scaling ranges, archive header/payload agreement",
    )
    pc.add_argument("target", nargs="+", help="archive path(s) or graph spec(s)")
    pc.add_argument("-a", "--alpha", type=int, default=0)
    pc.add_argument("--json", help="write the structured audit report here")
    pc.add_argument("--verbose", action="store_true", help="print passed checks too")
    pc.set_defaults(fn=cmd_check_artifact)

    pc = check_sub.add_parser(
        "plan",
        help="prove the branch-parallel update stage race-free for a "
        "graph's kernel plans (branches, levels, workspace pool, "
        "watchdog coverage, schedule accounting)",
    )
    pc.add_argument("target", nargs="+", help="graph spec(s)")
    pc.add_argument("-a", "--alpha", type=int, default=0)
    pc.add_argument("-p", "--columns", type=int, default=16)
    pc.add_argument("-t", "--threads", type=int, default=16)
    pc.add_argument(
        "--batch-columns",
        type=int,
        default=64,
        help="column cap of the representative stacked-operand batch "
        "layout audited alongside each plan",
    )
    pc.add_argument(
        "--branch-timeout",
        type=float,
        default=30.0,
        help="executor watchdog budget assumed per branch (None disables "
        "the timeout owner and flags a coverage gap)",
    )
    pc.add_argument(
        "--shards",
        type=int,
        default=0,
        help="also build an N-shard process plan and audit it "
        "(row coverage/overlap, shared-memory segment aliasing)",
    )
    pc.add_argument("--json", help="write the structured audit report here")
    pc.add_argument("--verbose", action="store_true", help="print passed checks too")
    pc.set_defaults(fn=cmd_check_plan)

    pc = check_sub.add_parser(
        "code",
        help="contract lint over the source tree (SC1xx-SC4xx rules, "
        "ruff-style output, optional regression baseline)",
    )
    pc.add_argument(
        "paths", nargs="*", default=["src/repro"], help="files or directories to lint"
    )
    pc.add_argument(
        "--baseline",
        default=".staticcheck.baseline",
        help="baseline file of accepted findings (CI fails only on regressions)",
    )
    pc.add_argument(
        "--strict-baseline",
        action="store_true",
        help="fail (not just warn) when baseline entries no longer match "
        "any finding",
    )
    pc.add_argument("--json", help="write the structured lint report here")
    pc.set_defaults(fn=cmd_check_code)

    pc = check_sub.add_parser(
        "concurrency",
        help="whole-stack concurrency verifier: lower every plan shape "
        "(kernel plans, batch layouts, shard plans, streaming swaps, "
        "prospective fused stages) into the unified IR, prove each free "
        "of span violations and happens-before races (HZ-R4xx), and run "
        "the lock-order/deadlock analysis over the source tree (SC7xx)",
    )
    pc.add_argument(
        "target",
        nargs="*",
        default=["Cora"],
        help="graph spec(s) whose plan shapes to audit (default: Cora)",
    )
    pc.add_argument("-a", "--alpha", type=int, default=0)
    pc.add_argument(
        "--batch-columns",
        type=int,
        default=64,
        help="column cap of the representative stacked-operand batch layout",
    )
    pc.add_argument(
        "--shards",
        type=int,
        default=2,
        help="also lower an N-shard process plan with its shared-memory "
        "segments (0 disables)",
    )
    pc.add_argument(
        "--paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories the SC7xx lock analysis scans",
    )
    pc.add_argument(
        "--no-locks",
        action="store_true",
        help="skip the SC7xx lock-order/blocking-call pass",
    )
    pc.add_argument(
        "--witness",
        action="store_true",
        help="run a miniature serving workload under the lock-witness "
        "recorder and cross-check observed acquisition orders against "
        "the static lock graph (SC704/SC705)",
    )
    pc.add_argument("--seed", type=int, default=0,
                    help="seed for the --witness workload operands")
    pc.add_argument("--json", help="write the structured audit report here")
    pc.add_argument("--verbose", action="store_true", help="print passed checks too")
    pc.set_defaults(fn=cmd_check_concurrency)

    p = sub.add_parser(
        "crash-soak",
        help="kill-9 soak of the persistence tier: SIGKILL writer/trainer "
        "workloads at randomized sync points, recover, and assert the "
        "durability invariants (nonzero exit on any violation)",
    )
    p.add_argument("--trials", type=int, default=60, help="spawn/kill/recover cycles")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iterations", type=int, default=3,
                   help="commits each worker attempts before exiting cleanly")
    p.add_argument("--recovery-budget", type=float, default=10.0,
                   help="max seconds a single recovery may take")
    p.add_argument("--break-protocol", action="store_true",
                   help="run the deliberately buggy commit-marker-first writer; "
                   "the soak must then FAIL (negative control)")
    p.add_argument("--json", help="write the full JSON report here")
    p.add_argument("--verbose", action="store_true", help="print every trial")
    p.set_defaults(fn=cmd_crash_soak)

    p = sub.add_parser(
        "stream-soak",
        help="mutation-storm soak of the streaming tier: concurrent edge "
        "mutations + batched inference + background rebuilds + kill-9 "
        "rebuild crashes, with bitwise verification of every served "
        "result (nonzero exit on any violation)",
    )
    p.add_argument("--graph", default=None,
                   help="dataset name or .npz path (default: synthetic graph)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--clients", type=int, default=4)
    p.add_argument("--requests", type=int, default=40,
                   help="storm-phase requests per client")
    p.add_argument("--mutations", type=int, default=18,
                   help="edge batches applied by the mutator")
    p.add_argument("--edges", type=int, default=3,
                   help="insertions and deletions per batch")
    p.add_argument("--staleness-budget", type=int, default=12,
                   help="max patch batches a served snapshot may lag")
    p.add_argument("--max-drift", type=float, default=0.2,
                   help="fractional op-count growth that triggers a rebuild")
    p.add_argument("--crash-trials", type=int, default=3,
                   help="kill-9 rebuild trials after the storm")
    p.add_argument("--min-requests", type=int, default=200,
                   help="fail the soak if fewer requests were served")
    p.add_argument("--json", help="write the full JSON report here")
    p.add_argument("--verbose", action="store_true", help="print phase progress")
    p.set_defaults(fn=cmd_stream_soak)

    p = sub.add_parser(
        "tune",
        help="route a graph through the format autotuner: calibrated "
        "per-block CBM-vs-CSR decision table with predicted vs measured "
        "costs, and the chosen route",
    )
    p.add_argument("graph", help="dataset name, 'mixed[:N]', or .mtx path")
    p.add_argument("-a", "--alpha", type=int, default=0)
    p.add_argument("-p", "--columns", type=int, default=8)
    p.add_argument("--pin", choices=("csr", "cbm"), default=None,
                   help="skip the race and force this route")
    p.add_argument("--no-measure", action="store_true",
                   help="trust the cost model alone (skip the measurement race)")
    p.add_argument("--json", help="write the full JSON report here")
    p.set_defaults(fn=cmd_tune)

    p = sub.add_parser(
        "tune-soak",
        help="workload-shift soak of the format autotuner: chaos-lying "
        "cost model + adversarial structure mutations; the misprediction "
        "watchdog must re-tune with zero dropped/wrong requests and "
        "converge to the best static format (nonzero exit otherwise)",
    )
    p.add_argument("--graph", default=None,
                   help="dataset name, 'mixed[:N]', or .mtx path "
                   "(default: mixed-structure graph)")
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("-p", "--columns", type=int, default=8)
    p.add_argument("--clients", type=int, default=3)
    p.add_argument("--requests", type=int, default=60,
                   help="storm-phase requests per client")
    p.add_argument("--mutations", type=int, default=3,
                   help="adversarial scatter batches in the drift phase")
    p.add_argument("--edges", type=int, default=64,
                   help="scatter edges per mutation batch")
    p.add_argument("--lie-factor", type=float, default=16.0,
                   help="how optimistically the chaos model misprices the "
                   "victim format's rates")
    p.add_argument("--tolerance", type=float, default=0.15,
                   help="served-vs-best-static convergence tolerance")
    p.add_argument("--min-requests", type=int, default=120,
                   help="fail the soak if fewer requests were served")
    p.add_argument("--pin", choices=("csr", "cbm"), default=None,
                   help="negative control: pin the route and disable the "
                   "retuner; a wrong pin must then FAIL")
    p.add_argument("--json", help="write the full JSON report here")
    p.add_argument("--verbose", action="store_true", help="print phase progress")
    p.set_defaults(fn=cmd_tune_soak)

    p = sub.add_parser(
        "shard-soak",
        help="worker-kill soak of the sharded process executor: SIGKILL/"
        "stall/torn-write chaos against supervised multi-process "
        "executions, every result verified against the CSR reference "
        "and /dev/shm checked for leaks (nonzero exit on any violation)",
    )
    p.add_argument("--graph", default=None,
                   help="dataset name or .npz path (default: synthetic graph)")
    p.add_argument("--nodes", type=int, default=400,
                   help="synthetic graph size when --graph is not given")
    p.add_argument("--shards", type=int, default=4)
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--executions", type=int, default=24)
    p.add_argument("-p", "--columns", type=int, default=8)
    p.add_argument("--variant", default="DAD", choices=("A", "AD", "DAD"))
    p.add_argument("--kill-rate", type=float, default=0.12,
                   help="per-(shard,epoch) probability of SIGKILL at a random sync point")
    p.add_argument("--stall-rate", type=float, default=0.08,
                   help="probability of a heartbeat-silent stall")
    p.add_argument("--torn-rate", type=float, default=0.12,
                   help="probability of a half-written slice with a lying commit")
    p.add_argument("--stall-seconds", type=float, default=3.0)
    p.add_argument("--heartbeat-timeout", type=float, default=0.75,
                   help="supervisor heartbeat staleness deadline")
    p.add_argument("--deadline", type=float, default=20.0,
                   help="per-execution hang budget in seconds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-supervisor", action="store_true",
                   help="run the storm unsupervised; the soak must then "
                   "FAIL (negative control)")
    p.add_argument("--json", help="write the full JSON report here")
    p.add_argument("--verbose", action="store_true", help="print every execution")
    p.set_defaults(fn=cmd_shard_soak)

    p = sub.add_parser("verify", help="run the paper's Section VI-B correctness protocol")
    p.add_argument("graph")
    p.add_argument("-a", "--alpha", type=int, default=0)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--columns", type=int, default=100)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench", help="time CSR vs CBM SpMM")
    p.add_argument("graph")
    p.add_argument("-a", "--alpha", type=int, default=4)
    p.add_argument("-p", "--columns", type=int, default=500)
    p.add_argument("--repeats", type=int, default=15)
    p.add_argument(
        "--unplanned",
        action="store_true",
        help="also time a plan built per call (plan amortisation)",
    )
    p.add_argument(
        "--guarded",
        action="store_true",
        help="also time the guarded path (validation + CSR fallback) and "
        "print its fallback counters",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="like --guarded but fail-fast: the guard re-raises instead of "
        "degrading to the CSR reference",
    )
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "serve-bench",
        help="chaos-under-load soak of the serving layer (queue, deadlines, "
        "retries, circuit breaker); nonzero exit on any violated invariant",
    )
    p.add_argument("graph")
    p.add_argument("-a", "--alpha", type=int, default=0)
    p.add_argument("-p", "--columns", type=int, default=16)
    p.add_argument("--clients", type=int, default=4, help="concurrent client threads")
    p.add_argument("--requests", type=int, default=15, help="requests per client per phase")
    p.add_argument("--deadline", type=float, default=2.0, help="per-request budget (s)")
    p.add_argument("--threads", type=int, default=2, help="update-stage worker threads")
    p.add_argument("--workers", type=int, default=2, help="service worker threads")
    p.add_argument("--fail-rate", type=float, default=0.45,
                   help="chaos-phase worker-death probability per executor")
    p.add_argument("--stall-rate", type=float, default=0.15,
                   help="chaos-phase worker-stall probability per executor")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batched", action="store_true",
                   help="soak the micro-batching stage instead: mixed-width "
                   "coalescing, hot-swap storm (generation purity), and "
                   "poisoned-member attribution")
    p.add_argument("--max-columns", type=int, default=32,
                   help="batched mode: stacked-operand column cap per batch")
    p.add_argument("--budget-ms", type=float, default=3.0,
                   help="batched mode: batch collection latency budget (ms)")
    p.add_argument("--json", help="also write the full JSON report here")
    p.add_argument("--verbose", action="store_true",
                   help="let the guard's FallbackWarnings through to stderr")
    p.set_defaults(fn=cmd_serve_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
