.PHONY: all build test race check check-smoke soak net-smoke net-chaos perfbench-smoke loc clean

all: build

build:
	dune build

test:
	dune runtest

# Whole-program domain-safety analysis: dr_race's R1-R2 rules against the
# zone map in dr-race.zones, plus a regenerate-and-diff of the committed
# census (RACE_INVENTORY.json), over the typed trees @check writes. After
# changing module-level mutable state, take the regenerated census with
#   dune build @race; dune promote RACE_INVENTORY.json
race:
	dune build @race

# Model checker: a coverage-guided schedule campaign over every registry
# protocol against the invariant oracle (agreement / termination /
# spec-bound). `make check` is the real budget; check-smoke is the fast
# fixed-seed CI gate.
BUDGET ?= 5000
SEED ?= 1
check:
	dune exec bin/dr_check_main.exe -- --budget $(BUDGET) --seed $(SEED)

check-smoke:
	dune build @check-smoke

# Campaign soak (dr_check over every protocol, bounded budget, with
# --stats): fails on any violation and leaves the deterministic
# campaign statistics in CHECK_CAMPAIGN.json at the repo root. The gate
# itself is `dune build @check-soak`, which also fails when the fresh stats
# differ from the committed file; this target is how to re-record it.
soak:
	dune build ./bin/check_campaign.json
	cp _build/default/bin/check_campaign.json CHECK_CAMPAIGN.json

# Socket-runtime smoke: run registry protocols as k real OS processes over
# loopback (dr_download --transport net) and require the download to verify.
net-smoke:
	dune build @net-smoke

# The same socket runs under seeded fault injection (dr_download --chaos):
# dropped/corrupted/stalled transmissions, forced source disconnects, lost
# replies and a source blackout — all masked below the protocols'
# assumptions, so every run must still verify with the right verdict.
net-chaos:
	dune build @net-chaos

# The benchmark end to end: a short run of every BENCHMARK.json workload,
# through set-up, verification of every Download and the full timed loop,
# once untraced and once traced (the layer probes, the observer tally and
# the attribution table). Fails on the first non-zero exit (a failed
# verification, a crash, a build error) — what the determinism self-test's
# few-input pass cannot see.
perfbench-smoke:
	@for w in $$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do \
	  for trace in 0 1; do \
	    echo "perfbench-smoke: $$w --trace $$trace"; \
	    python3 perfbench/run.py --workload $$w --seed 1 --seconds 2 --trace $$trace || exit 1; \
	  done; \
	done

# The size every change reports: lines of .ml and .mli in lib/ and in
# prelude/ (the banned names and comparisons lib/ compiles against), and
# their sum, so code moved between the two shows; and lib/lint's share of
# lib/ (dr_race, budgeted at 650 lines in ROADMAP). Prints only; nothing is
# gated on it.
loc:
	@lib=$$(cat lib/*/*.ml lib/*/*.mli | wc -l); prelude=$$(cat prelude/*.ml prelude/*.mli | wc -l); \
	  lint=$$(cat lib/lint/*.ml lib/lint/*.mli | wc -l); \
	  echo "lib/ $$lib"; echo "prelude/ $$prelude"; echo "total $$((lib + prelude))"; \
	  echo "lib/lint $$lint"

clean:
	dune clean
