# Developer entry points. `make check` is the pre-PR gate (see ROADMAP.md).

GO ?= go

.PHONY: check vet build test race bench bench-compare bench-ab bench-long fuzz profile serve-smoke fleet-smoke crash-smoke metrics-lint

check: vet build race fuzz metrics-lint serve-smoke fleet-smoke crash-smoke bench-long

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -race covers the experiment worker pool: TestSerialParallelEquivalence
# runs every driver's cells on an 8-worker pool, and the telemetry
# isolation test runs concurrent replays on one shared Telemetry.
# -shuffle=on randomizes test order so accidental inter-test state
# (shared registries, leftover files) surfaces instead of hiding behind
# a lucky fixed order.
race:
	$(GO) test -race -shuffle=on ./...

# Short fuzz budgets over the two untrusted input surfaces (trace files
# and fault-profile JSON) plus three equivalence properties: the
# calendar queue must pop in exactly the reference heap's (time, seq)
# order on adversarial schedules, and the extent segment store and the
# sorted HDC pinned set must agree step for step with the per-block
# hash-indexed stores they replaced. Go runs one fuzz target per
# invocation.
fuzz:
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s
	$(GO) test ./internal/fault -run '^$$' -fuzz '^FuzzParseProfile$$' -fuzztime 10s
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzCalendarQueueEquivalence$$' -fuzztime 10s
	$(GO) test ./internal/cache -run '^$$' -fuzz '^FuzzSegmentStoreEquivalence$$' -fuzztime 10s
	$(GO) test ./internal/cache -run '^$$' -fuzz '^FuzzHDCRegionEquivalence$$' -fuzztime 10s

# Three passes over every benchmark at Quick scale; benchjson keeps the
# fastest run of each, and the parsed numbers land in BENCH_quick.json
# for cross-commit comparison. The fault and degraded drivers report
# separately in BENCH_faults.json — at -benchtime 5x, because those two
# benchmarks are cheap (~100-200 ms/op) and single-iteration samples on
# this host jitter more than the compare gate tolerates — and the fleet
# warm-vs-replay pair in
# BENCH_fleet.json. Every pass also appends a timestamped record to
# BENCH_history.jsonl, so the trajectory across runs survives the
# snapshot files being overwritten.
bench:
	$(GO) test -bench . -benchmem -benchtime 1x -count 3 -run '^$$' . | $(GO) run ./cmd/benchjson -o BENCH_quick.json -history BENCH_history.jsonl
	$(GO) test -bench '^Benchmark(Faults|Degraded)$$' -benchmem -benchtime 5x -count 3 -run '^$$' . | $(GO) run ./cmd/benchjson -o BENCH_faults.json -history BENCH_history.jsonl
	$(GO) test ./internal/fleet -bench '^BenchmarkFleetDegraded' -benchtime 3x -run '^$$' | $(GO) run ./cmd/benchjson -o BENCH_fleet.json -history BENCH_history.jsonl

# Re-run the full benchmark pass (best of three, like bench) and diff
# simulator-cost metrics against the committed baselines; fails on a
# regression beyond the thresholds. allocs/op is deterministic and
# gates tight; ns/op and heapMB gate at -time-threshold 25 because
# repeated identical runs on a single-CPU virtualized host swing
# 10-20% between minute-apart invocations (allocs pinned at +-0.0%
# throughout), and a gate that cries wolf on idle noise teaches people
# to ignore it. See cmd/benchjson. The fleet pass gates differently:
# warm dispatch (phase payloads injected) must beat replay dispatch
# (earlier phases re-simulated in every fault cell) by at least 1.5x
# wall clock on the degraded sweep.
bench-compare:
	$(GO) test -bench . -benchmem -benchtime 1x -count 3 -run '^$$' . | $(GO) run ./cmd/benchjson -compare BENCH_quick.json -time-threshold 25
	$(GO) test -bench '^Benchmark(Faults|Degraded)$$' -benchmem -benchtime 5x -count 3 -run '^$$' . | $(GO) run ./cmd/benchjson -compare BENCH_faults.json -time-threshold 25
	@set -e; \
	out=$$($(GO) test ./internal/fleet -bench '^BenchmarkFleetDegraded' -benchtime 3x -run '^$$'); \
	printf '%s\n' "$$out"; \
	printf '%s\n' "$$out" | awk ' \
		$$1 ~ /^BenchmarkFleetDegradedWarm/ {warm = $$3} \
		$$1 ~ /^BenchmarkFleetDegradedReplay/ {replay = $$3} \
		END { \
			if (warm == 0 || replay == 0) { print "bench-compare: fleet warm/replay benchmarks missing"; exit 1 } \
			ratio = replay / warm; \
			printf "bench-compare: fleet warm-start speedup %.2fx (replay %.0f ns/op vs warm %.0f ns/op)\n", ratio, replay, warm; \
			if (ratio < 1.5) { print "bench-compare: warm-start speedup below the 1.5x gate"; exit 1 } \
		}'

# Interleaved A/B of the perfbench benchmark on this host:
#
#   make bench-ab BASE=<rev> WORKLOAD=web-replay PAIRS=10
#
# checks BASE out with `git worktree` under .bench_build/ab-base, then
# runs `perfbench/run.py --trace 0 --seconds 30` PAIRS times on each
# side, alternating which side runs first and giving each pair a fresh
# seed (both sides of a pair share it). Each side builds from its own
# sources. It prints each end-to-end metric's median and quartiles per
# side, the head/base ratio of the medians, and the per-pair head/base
# ratio of sweep_s, the one wall-clock comparison a change should quote,
# and whether both sides of every pair reported the same exact work
# counts. Raw outputs stay in .bench_build/ab/<workload>/.
BASE ?= HEAD
WORKLOAD ?= web-replay
PAIRS ?= 10
bench-ab:
	@set -e; \
	wt=.bench_build/ab-base; out=.bench_build/ab/$(WORKLOAD); \
	rm -rf $$out; mkdir -p $$out; \
	git worktree remove --force $$wt 2>/dev/null || rm -rf $$wt; \
	git worktree prune; \
	git worktree add --detach $$wt $(BASE) >/dev/null; \
	trap 'git worktree remove --force '$$wt' 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 $(PAIRS)); do \
		seed=$$((1000 + i)); order="base head"; \
		[ $$((i % 2)) -eq 0 ] && order="head base"; \
		for side in $$order; do \
			dir=.; [ $$side = base ] && dir=$$wt; \
			echo "bench-ab: pair $$i/$(PAIRS) $$side (seed $$seed)"; \
			(cd $$dir && python3 perfbench/run.py --workload $(WORKLOAD) \
				--trace 0 --seed $$seed --seconds 30) >$$out/$$side.$$i.txt; \
		done; \
	done; \
	awk ' \
		function sortv(a, n,   i, j, t) { \
			for (i = 2; i <= n; i++) { t = a[i]; \
				for (j = i - 1; j >= 1 && a[j] > t; j--) a[j+1] = a[j]; a[j+1] = t } } \
		function q(a, n, p,   x, k) { x = 1 + p * (n - 1); k = int(x); \
			return k >= n ? a[n] : a[k] + (x - k) * (a[k+1] - a[k]) } \
		FNR == 1 { split(FILENAME, f, "/"); split(f[length(f)], g, "."); side = g[1]; pair = g[2] } \
		$$1 ~ /^(setup_s|sweep_s|warm_sweep_s|cell_p50_ms|cell_tail_ms|events_per_s|cpu_s|alloc_mb|peak_rss_mb|failed_frac)$$/ { \
			if (!($$1 in seen)) { seen[$$1] = 1; names[++nm] = $$1 } \
			val[side, $$1, ++cnt[side, $$1]] = $$2; byPair[side, $$1, pair] = $$2 } \
		$$1 == "checks:" && $$0 !~ /reference=true/ { bad = bad " " side "." pair } \
		$$1 == "count" { work[side, pair] = work[side, pair] " " $$2 "=" $$3 } \
		END { \
			printf "%-13s %35s %35s %9s\n", "metric", "base median [q1, q3]", "head median [q1, q3]", "head/base"; \
			for (m = 1; m <= nm; m++) { nme = names[m]; \
				nb = cnt["base", nme]; nh = cnt["head", nme]; \
				for (i = 1; i <= nb; i++) b[i] = val["base", nme, i]; sortv(b, nb); \
				for (i = 1; i <= nh; i++) h[i] = val["head", nme, i]; sortv(h, nh); \
				mb = q(b, nb, 0.5); mh = q(h, nh, 0.5); \
				printf "%-13s %12.4g [%9.4g, %9.4g] %12.4g [%9.4g, %9.4g] %9s\n", nme, \
					mb, q(b, nb, 0.25), q(b, nb, 0.75), mh, q(h, nh, 0.25), q(h, nh, 0.75), \
					mb != 0 ? sprintf("%.3f", mh / mb) : "-" } \
			line = ""; better = 0; np = 0; \
			for (p = 1; p <= $(PAIRS); p++) if ((("base", "sweep_s", p) in byPair) && (("head", "sweep_s", p) in byPair)) { \
				r = byPair["head", "sweep_s", p] / byPair["base", "sweep_s", p]; np++; \
				if (r < 1) better++; line = line sprintf(" %.3f", r) } \
			printf "sweep_s head/base per pair:%s (head faster in %d of %d)\n", line, better, np; \
			diff = ""; for (p = 1; p <= $(PAIRS); p++) if (work["base", p] != work["head", p]) diff = diff " " p; \
			printf "exact work counts: %s\n", diff == "" ? "equal in every pair" : "differ in pairs" diff; \
			if (bad != "") { printf "bench-ab: runs without checks reference=true:%s\n", bad; exit 1 } }' \
		$$out/base.*.txt $$out/head.*.txt

# The flat-heap gate for long-horizon runs: BenchmarkLongRun replays the
# longrun source workload at 1x and 10x the simulated makespan and fails
# if the live heap after the long run exceeds the short one by > 10%.
bench-long:
	$(GO) test -bench '^BenchmarkLongRun$$' -benchmem -benchtime 1x -run '^$$' .

# CPU and heap profiles of the Table 2 pipeline (the hottest full-system
# path: all three workloads against both systems). Inspect with
# `go tool pprof cpu.prof`.
profile:
	$(GO) run ./cmd/diskthru -experiment table2 -quick -cpuprofile cpu.prof -memprofile mem.prof

# Crash-injection smoke test, two rounds with real processes and real
# SIGKILLs. Round one: boot a journal-enabled diskthrud, submit table2,
# SIGKILL the daemon while cell payloads are still streaming into the
# journal, restart it on the same -state-dir, and require the recovered
# job's output to diff byte-identically against a fresh single-process
# `diskthru -j 1` run. Round two: submit one long degraded cell to a
# journal-enabled daemon, SIGKILL it once the job view shows it running
# with simulator events counted (so the kill is mid-cell, with no
# completed-cell record in the journal), restart, and require the
# recovered job, which re-runs the cell from its start, to produce a
# payload byte-identical to a cold rerun. The in-process variants (torn
# mid-append frames at every byte offset, journals from older daemons)
# run in the test suite; this exercises the same paths end to end.
crash-smoke:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'kill -9 $$pid $$pid2 $$pid3 $$pid4 2>/dev/null || true; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/diskthrud ./cmd/diskthrud; \
	$(GO) build -o $$tmp/diskthru ./cmd/diskthru; \
	$(GO) build -o $$tmp/diskthru-client ./cmd/diskthru-client; \
	$$tmp/diskthrud -addr 127.0.0.1:0 -addr-file $$tmp/a1 \
		-state-dir $$tmp/state >$$tmp/d1.log 2>&1 & pid=$$!; \
	for i in $$(seq 1 100); do [ -s $$tmp/a1 ] && break; sleep 0.1; done; \
	[ -s $$tmp/a1 ] || { \
		echo "crash-smoke: daemon never wrote its address"; \
		cat $$tmp/d1.log; exit 1; }; \
	job=$$($$tmp/diskthru-client -addr "http://$$(cat $$tmp/a1)" \
		submit -experiment table2 -quick -j 1 -key crash-smoke); \
	for i in $$(seq 1 600); do \
		ok=$$($$tmp/diskthru-client -addr "http://$$(cat $$tmp/a1)" metrics \
			| awk '$$1 == "serve_journal_appends_total" && $$2 >= 4 {print "yes"}'); \
		[ "$$ok" = yes ] && break; sleep 0.05; done; \
	[ "$$ok" = yes ] || { \
		echo "crash-smoke: journal never accumulated cell records"; \
		cat $$tmp/d1.log; exit 1; }; \
	kill -9 $$pid; wait $$pid 2>/dev/null || true; \
	$$tmp/diskthrud -addr 127.0.0.1:0 -addr-file $$tmp/a2 \
		-state-dir $$tmp/state >$$tmp/d2.log 2>&1 & pid2=$$!; \
	for i in $$(seq 1 100); do [ -s $$tmp/a2 ] && break; sleep 0.1; done; \
	[ -s $$tmp/a2 ] || { \
		echo "crash-smoke: restarted daemon never wrote its address"; \
		cat $$tmp/d2.log; exit 1; }; \
	$$tmp/diskthru-client -addr "http://$$(cat $$tmp/a2)" metrics \
		| grep '^serve_jobs_recovered_total{disposition="resumed"} 1' >/dev/null || { \
		echo "crash-smoke: restarted daemon did not recover the job"; \
		cat $$tmp/d2.log; exit 1; }; \
	$$tmp/diskthru-client -addr "http://$$(cat $$tmp/a2)" \
		wait "$$job" >$$tmp/recovered.out; \
	echo >>$$tmp/recovered.out; \
	$$tmp/diskthru -experiment table2 -quick -j 1 >$$tmp/single.out; \
	diff -u $$tmp/single.out $$tmp/recovered.out || { \
		echo "crash-smoke: recovered output is not byte-identical to single-node"; \
		cat $$tmp/d2.log; exit 1; }; \
	replayed=$$($$tmp/diskthru-client -addr "http://$$(cat $$tmp/a2)" metrics \
		| awk '$$1 == "serve_cells_replayed_total" {print $$2}'); \
	echo "crash-smoke: OK (byte-identical after SIGKILL; $$replayed cells replayed from journal)"; \
	$$tmp/diskthrud -addr 127.0.0.1:0 -addr-file $$tmp/a3 \
		-state-dir $$tmp/state2 -cache-bytes -1 >$$tmp/d3.log 2>&1 & pid3=$$!; \
	for i in $$(seq 1 100); do [ -s $$tmp/a3 ] && break; sleep 0.1; done; \
	[ -s $$tmp/a3 ] || { \
		echo "crash-smoke: cell daemon never wrote its address"; \
		cat $$tmp/d3.log; exit 1; }; \
	cj=$$($$tmp/diskthru-client -addr "http://$$(cat $$tmp/a3)" \
		submit -experiment degraded -quick -cell 0:0 -syn-requests 1000000 -key crash-smoke-cell); \
	midcell=; \
	for i in $$(seq 1 600); do \
		midcell=$$($$tmp/diskthru-client -addr "http://$$(cat $$tmp/a3)" status "$$cj" \
			| awk '/"state": "running"/ {run = 1} /"events": [1-9]/ {ev = 1} END {if (run && ev) print "yes"}'); \
		[ "$$midcell" = yes ] && break; sleep 0.02; done; \
	[ "$$midcell" = yes ] || { \
		echo "crash-smoke: cell job never reported simulator progress while running"; \
		cat $$tmp/d3.log; exit 1; }; \
	kill -9 $$pid3; wait $$pid3 2>/dev/null || true; \
	$$tmp/diskthrud -addr 127.0.0.1:0 -addr-file $$tmp/a4 \
		-state-dir $$tmp/state2 -cache-bytes -1 >$$tmp/d4.log 2>&1 & pid4=$$!; \
	for i in $$(seq 1 100); do [ -s $$tmp/a4 ] && break; sleep 0.1; done; \
	[ -s $$tmp/a4 ] || { \
		echo "crash-smoke: restarted cell daemon never wrote its address"; \
		cat $$tmp/d4.log; exit 1; }; \
	$$tmp/diskthru-client -addr "http://$$(cat $$tmp/a4)" metrics \
		| grep '^serve_jobs_recovered_total{disposition="resumed"} 1' >/dev/null || { \
		echo "crash-smoke: restarted daemon did not recover the cell job"; \
		cat $$tmp/d4.log; exit 1; }; \
	$$tmp/diskthru-client -addr "http://$$(cat $$tmp/a4)" \
		wait "$$cj" >$$tmp/cell-resumed.out; \
	$$tmp/diskthru-client -addr "http://$$(cat $$tmp/a4)" metrics \
		| grep '^serve_cells_replayed_total 0' >/dev/null || { \
		echo "crash-smoke: the kill was not mid-cell (a completed cell was journaled)"; \
		cat $$tmp/d4.log; exit 1; }; \
	$$tmp/diskthru-client -addr "http://$$(cat $$tmp/a4)" \
		run -experiment degraded -quick -cell 0:0 -syn-requests 1000000 \
		-key crash-smoke-cell-cold >$$tmp/cell-cold.out; \
	diff -u $$tmp/cell-cold.out $$tmp/cell-resumed.out || { \
		echo "crash-smoke: recovered cell payload differs from a cold run"; \
		cat $$tmp/d4.log; exit 1; }; \
	echo "crash-smoke: OK (mid-cell SIGKILL re-ran the cell from the journal, byte-identical)"

# Scrape a live test daemon's /metrics through HTTP and validate every
# family with the exposition parser and linter (naming conventions,
# HELP/TYPE metadata, histogram invariants, counter monotonicity across
# scrapes). Guards the Prometheus surface the same way the golden files
# guard the tables.
metrics-lint:
	$(GO) test ./internal/serve -run '^TestMetricsLint$$' -count 1
	$(GO) test ./internal/metrics -count 1

# End-to-end daemon smoke test: boot diskthrud on an ephemeral port,
# run fig1 -quick through diskthru-client, require a non-empty table.
serve-smoke:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'kill $$pid 2>/dev/null || true; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/diskthrud ./cmd/diskthrud; \
	$(GO) build -o $$tmp/diskthru-client ./cmd/diskthru-client; \
	$$tmp/diskthrud -addr 127.0.0.1:0 -addr-file $$tmp/addr \
		>$$tmp/daemon.log 2>&1 & pid=$$!; \
	for i in $$(seq 1 100); do [ -s $$tmp/addr ] && break; sleep 0.1; done; \
	[ -s $$tmp/addr ] || { \
		echo "serve-smoke: daemon never wrote its address"; \
		cat $$tmp/daemon.log; exit 1; }; \
	out=$$($$tmp/diskthru-client -addr "http://$$(cat $$tmp/addr)" \
		run -experiment fig1 -quick); \
	[ -n "$$out" ] || { echo "serve-smoke: empty result"; exit 1; }; \
	printf '%s\n' "$$out" | head -n 3; \
	echo "serve-smoke: OK"

# Fleet smoke test: boot three diskthrud daemons, run table2 -quick
# through the coordinator, and require the merged table to be
# byte-identical to a single-node `diskthru -j 1` run — the fleet's
# central determinism guarantee, checked end to end with real processes.
fleet-smoke:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'kill $$p1 $$p2 $$p3 2>/dev/null || true; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/diskthrud ./cmd/diskthrud; \
	$(GO) build -o $$tmp/diskthru ./cmd/diskthru; \
	$(GO) build -o $$tmp/diskthru-fleet ./cmd/diskthru-fleet; \
	$$tmp/diskthrud -addr 127.0.0.1:0 -addr-file $$tmp/a1 >$$tmp/d1.log 2>&1 & p1=$$!; \
	$$tmp/diskthrud -addr 127.0.0.1:0 -addr-file $$tmp/a2 >$$tmp/d2.log 2>&1 & p2=$$!; \
	$$tmp/diskthrud -addr 127.0.0.1:0 -addr-file $$tmp/a3 >$$tmp/d3.log 2>&1 & p3=$$!; \
	for i in $$(seq 1 100); do \
		[ -s $$tmp/a1 ] && [ -s $$tmp/a2 ] && [ -s $$tmp/a3 ] && break; sleep 0.1; done; \
	[ -s $$tmp/a1 ] && [ -s $$tmp/a2 ] && [ -s $$tmp/a3 ] || { \
		echo "fleet-smoke: daemons never wrote their addresses"; \
		cat $$tmp/d1.log $$tmp/d2.log $$tmp/d3.log; exit 1; }; \
	$$tmp/diskthru -experiment table2 -quick -j 1 >$$tmp/single.out; \
	$$tmp/diskthru-fleet -daemons "$$(cat $$tmp/a1),$$(cat $$tmp/a2),$$(cat $$tmp/a3)" \
		-experiment table2 -quick >$$tmp/fleet.out 2>$$tmp/fleet.log; \
	diff -u $$tmp/single.out $$tmp/fleet.out || { \
		echo "fleet-smoke: fleet output is not byte-identical to single-node"; \
		cat $$tmp/fleet.log; exit 1; }; \
	head -n 3 $$tmp/fleet.out; \
	echo "fleet-smoke: OK (byte-identical to single-node)"
