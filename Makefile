# Convenience targets for the DieHard reproduction.

.PHONY: all build test bench bench-quick bench-scaling bench-space bench-serve obs-check audit-check fuzz examples check clean

all: build

build:
	dune build @all

test:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt

bench:
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

bench-quick:
	dune exec bench/main.exe -- quick

# Parallel scaling sweep (jobs 1..8): prints the per-point
# speedup/efficiency table, records it into BENCH_throughput.json, and
# fails if any parallel run's output diverges from the sequential
# fingerprint — or, on a >= 2-core machine, if jobs=2 fails to beat
# jobs=1 in wall-clock (single-core runners skip that gate with a
# warning; see Throughput.scaling_gate).
bench-scaling:
	dune exec bench/throughput.exe -- --jobs 8

# The §4.5 space gate: run the meshing frontier (touched pages
# with/without page meshing per workload), rewrite BENCH_space.json,
# and fail unless some workload's full-mode touched-page reduction
# reaches 2x — the cap pair-only meshing can deliver, so the gate
# catches any regression in the mesher (see DESIGN.md, "Page
# meshing").  CI smoke runs the quick variant with a relaxed 1.5x bar.
bench-space:
	dune exec bench/main.exe -- space-gate

# The serve-loop SLO gate: full-scale serve bench (2M Zipf requests
# with attack injection under the supervisor), rewrites
# BENCH_serve.json, and fails on any deterministic regression —
# a seed that stops surviving, or an output checksum diverging from
# the committed baseline.  The wall-clock SLO-compliance gate is live
# on >= 2-core machines and skips loudly on single-core runners, where
# scheduling noise (not the allocator) sets the tail.  CI smoke runs
# the quick variant.
bench-serve:
	dune exec bench/main.exe -- serve-gate

# Telemetry + checkpoint gate, two legs.  First an untraced full run
# gated against the committed baseline: the obs-disabled allocation path
# and the no-checkpoint write path (dirty-page tracking is always on)
# must stay within 5% of the committed floor, and the run itself fails
# if rewind recovery is slower than from-scratch retry or its output
# fingerprint diverges.  (The legs are separate because --trace switches
# telemetry on for the whole run, which would sink the rates the
# baseline compares.)  Then a quick traced run: the trace must parse as
# JSON and cover the heap/GC/supervisor/replica spans the inspector
# expects.  Last, a supervised serve run with checkpoints dumps its
# metrics CSV, which the inspector validates (header, row shape, unique
# names, ordered histogram quantiles).
obs-check:
	dune build @all
	dune exec bench/throughput.exe -- --baseline BENCH_throughput.json --out /dev/null
	dune exec bench/throughput.exe -- --quick --trace obs_trace.json --out /dev/null
	python3 -m json.tool obs_trace.json > /dev/null
	dune exec bin/diehard_cli.exe -- obs obs_trace.json \
		--expect heap.malloc,gc.collect,gc.mark,gc.sweep,supervisor.attempt,replica.run
	rm -f obs_trace.json
	dune exec bin/diehard_cli.exe -- survive server --requests 4096 --attack-every 97 \
		--checkpoint-interval 512 --retries 1 --trace obs_serve.json --metrics obs_metrics.csv
	dune exec bin/diehard_cli.exe -- obs obs_serve.json --metrics-csv obs_metrics.csv
	rm -f obs_serve.json obs_metrics.csv

# The safety-margin audit gate: sweep M over {1.5, 2, 3, 4}, measure
# empirical overflow/dangling masking on the real heap against the
# paper's analytic curves, check the slot-choice entropy behind the
# uniformity assumption, rewrite BENCH_audit.json, and fail if any
# point deviates beyond the declared statistical tolerance (4 sigma +
# slack; see DESIGN.md, "Safety-margin auditing").  CI smoke runs the
# quick variant.
audit-check:
	dune exec bench/main.exe -- audit-gate

fuzz:
	dune exec bin/fuzz.exe -- --rounds 100 --ops 400

examples:
	dune exec examples/quickstart.exe
	dune exec examples/squid_survival.exe
	dune exec examples/fault_injection.exe
	dune exec examples/replicated_voting.exe
	dune exec examples/minic_tour.exe
	dune exec examples/heap_debugging.exe
	dune exec examples/supervised_run.exe

# Everything CI runs: full build, full test suite (including the
# parallel determinism suite), a smoke run of the survival supervisor,
# a quick allocator differential fuzz, the seven examples, and a quick
# scaling-bench divergence check at --jobs 2.
check:
	dune build @all
	dune runtest --force
	dune exec test/test_main.exe -- test parallel
	dune exec bin/diehard_cli.exe -- survive cfrac --retries 1
	dune exec bin/fuzz.exe -- --rounds 20 --ops 400
	$(MAKE) examples
	dune exec bench/throughput.exe -- --quick --jobs 2 --out /dev/null

clean:
	dune clean
