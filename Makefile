# Developer entry points for the YASK reproduction.
#
#   make test        — the tier-1 suite (ROADMAP.md's verify command).
#                      pytest.ini deselects @pytest.mark.slow here (the
#                      chaos/hammer/deep-property tier); the dedicated
#                      targets below re-enable it with
#                      -m "slow or not slow" (marker policy:
#                      docs/DEVELOPMENT.md)
#   make test-recovery — the durability tier at a deeper hypothesis
#                      budget: the crash-point recovery property, the
#                      database document round-trip property, plus
#                      the WAL, fault-injection and follower suites
#                      (its own CI job; tier-1 runs the same files at
#                      the default budget)
#   make bench-smoke — the floor-asserting experiments: E9 + E10
#                      (executor tiers: cold/warm and batch floors),
#                      E11 (kernel: >=3x rank_all, >=2x cold why-not;
#                      levelled dual view: ranks_at >=10x the linear
#                      pass at 20k, refine >=2x its linear ablation, a
#                      view for one missing object at ranks 11-30
#                      built >=15x faster than dual_points_all at 20k;
#                      indexed scan_top_k >=5x the full scan at 20k),
#                      E12 (sharding: cold top-k and cold why-not no
#                      slower than 0.9x at 4 shards vs 1, shards still
#                      skipped), E13 (live
#                      mutation: >=4.4x incremental ingest vs rebuild,
#                      >50% warm top-k hit rate under writes, a
#                      maintenance pass over 64 cached explain answers
#                      <=3x a pass over none, a sharded batch with
#                      removals <=2.5x an insert-only one) and E14
#                      (durability: logged ingest >=0.6x unlogged,
#                      snapshot recovery >=1x vs full-log rebuild)
#   make paper       — the paper's experiments E1–E8 (service
#                      pipeline, KcR-tree, top-k, preference and
#                      keyword refinement, λ, scalability, ablations)
#                      with timing off: their shape assertions and
#                      answer checks only (needs pytest-benchmark;
#                      its own CI job)
#   make bench-json  — refresh BENCH_E9/…/E14.json at the repo root
#                      (machine-readable perf trajectory)
#   make bench-e16-smoke — the end-to-end HTTP benchmark at smoke size
#                      (2k objects, 1 s windows, ~20 s): a real server
#                      over loopback with every oracle check on, so a
#                      transport change that corrupts a reused
#                      connection fails here (its own CI job)
#   make lint        — byte-compile every source, test and benchmark
#                      file, then run yasklint (the project-invariant
#                      static analyser in tools/analysis/yasklint —
#                      rule catalogue in docs/DEVELOPMENT.md) over src/
#                      and mypy (skipped with a notice when not
#                      installed; the CI analysis job always runs it)
#   make test-chaos  — the graceful-degradation suite: seeded fault
#                      plans (tests/chaos/) replayed against live
#                      in-process servers, asserting every response is
#                      exact, honestly degraded or a structured error
#                      (its own CI job; deterministic — same seed,
#                      same outcome, no wall-clock sleeps)
#   make test-lockdep — the concurrency suites with the runtime
#                      lock-order sanitizer enabled (YASK_LOCKDEP=1):
#                      hammer tests, the maintenance passes over the
#                      shared top-k / why-not invalidation domain +
#                      the analysis test suite
#   make test-scan   — the scan and shard tiers at their deep budget:
#                      the bucketed top-k scan (scan_top_k walking
#                      buckets of one exact TSim, equal-TSim buckets
#                      merged) vs the full scan through long mutation
#                      histories that insert new doc lengths, rows
#                      filed into x-columns after the build (the scan,
#                      the disk split row by row, the column walk), the
#                      sharded engine vs the
#                      set-path oracle, mutated engines (shard
#                      summaries, answers) vs a fresh rebuild
#                      after every batch of histories long enough to
#                      compact, and the kernel suite (the unsharded
#                      engine's top-k vs the set path and best-first
#                      over a SetR-tree through such histories; the
#                      target-aware dual view vs the linear reference
#                      — the rows it holds and their levels, ulp ties
#                      with a target's proximity and with the view's
#                      floor, a keyword level spread over doc lengths
#                      and a newly inserted doc length included, and
#                      its counts, closer-count included, vs the
#                      SetR-tree's; keyword
#                      refinement on the scan index vs the KcR-tree
#                      descent and exhaustive enumeration) and the
#                      why-not property suite (the rank walks out from
#                      q.ws, stopped part way and walked to both ends,
#                      vs the frozen row-at-a-time construction and
#                      sweep — test_rank_walk_matches_exhaustive_sweep_deep
#                      — and the preference front vs the frozen
#                      exhaustive sweep at every λ, on identical,
#                      near-parallel, at-q.ws and near-0/1 crossings)
#                      and the answer-maintenance suite (every cached
#                      top-k entry, visited by a batch's pass or not,
#                      vs a cold rescan after every batch, at
#                      YASK_TOPK_CACHE_EXAMPLES=200; its own CI job)
#   make ledger      — the work-and-parity ledger (tools/ledger.py,
#                      ~7 s): the E16 corpus in process on 4 shards,
#                      E16's mixed_rw mutation batches, and the same
#                      why-not sessions and cold queries every 50
#                      batches; prints one JSON document of kernel
#                      counter deltas, index tail sizes and answer
#                      SHA-256s, no times (identical on two runs)
#   make docs-check  — every GET/POST route in server.py must appear
#                      in docs/API.md, and every runnable fenced
#                      Python snippet in README.md / docs/API.md /
#                      docs/OPERATIONS.md must execute cleanly against
#                      a live in-process server
#                      (tools/check_doc_snippets.py)

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-recovery test-chaos test-lockdep test-scan bench-smoke paper bench-json bench-e16-smoke ledger lint docs-check

# Re-enables @pytest.mark.slow suites that pytest.ini's default
# deselects; the dedicated tiers below must run them.
ALL_MARKS = -m "slow or not slow"

test:
	$(PYTHON) -m pytest -x -q

test-recovery:
	YASK_RECOVERY_EXAMPLES=40 $(PYTHON) -m pytest tests/properties/test_prop_recovery.py tests/properties/test_prop_codec.py tests/service/test_wal.py tests/service/test_wal_faults.py tests/service/test_follower.py -q $(ALL_MARKS)

test-chaos:
	$(PYTHON) -m pytest tests/chaos -q $(ALL_MARKS)

test-scan:
	YASK_TOPK_CACHE_EXAMPLES=200 $(PYTHON) -m pytest tests/properties/test_prop_scan_index.py tests/properties/test_prop_sharding.py tests/properties/test_prop_mutations.py tests/properties/test_prop_kernel.py tests/properties/test_prop_whynot.py tests/properties/test_prop_topk_cache.py -q $(ALL_MARKS)

bench-smoke:
	$(PYTHON) -m pytest benchmarks/bench_e9_executor.py benchmarks/bench_e10_whynot_executor.py benchmarks/bench_e11_kernel.py benchmarks/bench_e12_sharding.py benchmarks/bench_e13_mutations.py benchmarks/bench_e14_durability.py -q $(ALL_MARKS)

paper:
	$(PYTHON) -m pytest benchmarks/bench_e1_service_pipeline.py benchmarks/bench_e2_kcrtree.py benchmarks/bench_e3_topk.py benchmarks/bench_e4_preference.py benchmarks/bench_e5_keyword.py benchmarks/bench_e6_lambda_effect.py benchmarks/bench_e7_scalability.py benchmarks/bench_e8_ablations.py --benchmark-disable -q $(ALL_MARKS)

bench-json:
	$(PYTHON) benchmarks/bench_json.py

bench-e16-smoke:
	$(PYTHON) benchmarks/e16/run.py --smoke

ledger:
	@PYTHONHASHSEED=0 $(PYTHON) -m tools.ledger

test-lockdep:
	YASK_LOCKDEP=1 $(PYTHON) -m pytest tests/analysis tests/service/test_concurrency.py tests/service/test_mutation_hammer.py tests/service/test_stats_snapshot.py tests/service/test_scoped_invalidation.py tests/service/test_connections.py tests/service/test_follower.py tests/properties/test_prop_topk_cache.py tests/whynot/test_context.py -q $(ALL_MARKS)

lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples tools
	$(PYTHON) -m tools.analysis.yasklint src
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy --config-file mypy.ini -p repro && echo "lint ok: mypy clean"; \
	else \
		echo "lint: mypy not installed, skipping (the CI analysis job runs it)"; \
	fi
	@echo "lint ok: sources byte-compile and yasklint is clean"

docs-check:
	@missing=0; \
	for route in $$(grep -oE '"/(healthz|api/[a-z/]+)"' src/repro/service/server.py | tr -d '"' | sort -u); do \
		if ! grep -q -- "$$route" docs/API.md; then \
			echo "docs-check: route $$route is not documented in docs/API.md"; \
			missing=1; \
		fi; \
	done; \
	if [ $$missing -ne 0 ]; then exit 1; fi; \
	echo "docs-check ok: every server route is documented in docs/API.md"
	$(PYTHON) tools/check_doc_snippets.py
