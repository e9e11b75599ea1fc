# Convenience targets for the DieHard reproduction.

.PHONY: all build test bench bench-quick gate obs-check fuzz examples check clean

all: build

build:
	dune build @all

test:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt

bench:
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

bench-quick:
	dune exec bench/main.exe -- quick

# Every gate, full size, in one run (bench/gate.ml): count-first
# checks of obs cost, the unarmed and armed write paths, rewind vs
# from-scratch recovery, the §4.5 meshing frontier, the Theorem 1-2
# audit and the serve loop, plus the one wall-clock gate, jobs=2
# scaling.  Compares against the "full" set of BENCH_gate.json, exits 3
# on a failed gate (2 on a missing or unreadable baseline), and
# rewrites the set when every gate holds.  `make check` runs the quick
# set.
gate:
	dune exec bench/main.exe -- gate

# Telemetry check, end to end.  The quick gate run writes the obs-on
# leg's Chrome trace (heap churn, then the GC, a replicated run and a
# supervised run); the trace must parse as JSON and cover the
# heap/GC/supervisor/replica spans the inspector expects.  Then a
# supervised serve run with checkpoints dumps its metrics CSV, which the
# inspector validates (header, row shape, unique names, ordered
# histogram quantiles).
obs-check:
	dune build @all
	dune exec bench/main.exe -- gate quick --trace obs_trace.json
	python3 -m json.tool obs_trace.json > /dev/null
	dune exec bin/diehard_cli.exe -- obs obs_trace.json \
		--expect heap.malloc,gc.collect,gc.mark,gc.sweep,supervisor.attempt,replica.run
	rm -f obs_trace.json
	dune exec bin/diehard_cli.exe -- survive server --requests 4096 --attack-every 97 \
		--checkpoint-interval 512 --retries 1 --trace obs_serve.json --metrics obs_metrics.csv
	dune exec bin/diehard_cli.exe -- obs obs_serve.json --metrics-csv obs_metrics.csv
	rm -f obs_serve.json obs_metrics.csv

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
# a quick allocator differential fuzz, the seven examples, and the
# quick gate run.
check:
	dune build @all
	dune runtest --force
	dune exec test/test_main.exe -- test parallel
	dune exec bin/diehard_cli.exe -- survive cfrac --retries 1
	dune exec bin/fuzz.exe -- --rounds 20 --ops 400
	$(MAKE) examples
	dune exec bench/main.exe -- gate quick

clean:
	dune clean
