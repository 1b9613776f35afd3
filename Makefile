# Convenience targets around dune; `make check` is the tier-1 gate.

.PHONY: all build test check fmt lint smoke serve-smoke clean

all: build

build:
	dune build

test:
	dune runtest

check: build test

# Reformat dune files in place (the repo carries no .ocamlformat, so .ml
# sources are left untouched).
fmt:
	-dune build @fmt --auto-promote

# Static protocol verifier over the whole registry: header budgets (H1),
# input-enabledness (E1), Theorem 2.1 certificates (B1), impossibility
# consistency (T1), quiescence (Q1).  Exit 1 on any error-severity finding.
lint: build
	dune exec bin/nfc.exe -- lint

# A 2-second fuzz campaign must rediscover the alternating-bit phantom
# delivery (exit code 2 = violation found) and shrink it to a replayable
# minimal trace.
smoke: build
	@dune exec bin/nfc.exe -- fuzz --protocol broken-alternating-bit \
	  --budget 2 --shrink --save-trace _build/smoke.trace >/dev/null 2>&1; \
	if [ $$? -ne 2 ]; then echo "smoke: fuzzer missed the known violation"; exit 1; fi
	@dune exec bin/nfc.exe -- replay _build/smoke.trace >/dev/null 2>&1; \
	if [ $$? -ne 2 ]; then echo "smoke: replay did not confirm the violation"; exit 1; fi
	@echo "smoke: violation found, shrunk, and re-confirmed on replay"

# Boot the real `nfc serve` binary on an ephemeral port and drive it over
# HTTP: byte-identical lint verdict vs the CLI, 429 backpressure, the
# Prometheus series, and a 100-request loadgen storm with zero drops.
serve-smoke: build
	sh scripts/serve_smoke.sh

clean:
	dune clean
