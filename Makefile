GO ?= go

.PHONY: all build vet test race bench perfbench-check chaos-smoke chaos-sweep determinism-smoke prov-smoke verify-smoke serve-smoke scale-smoke fuzz-smoke fmt-check experiments

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Five samples of every root benchmark, printed to stdout: quote a median
# with its range, never a single sample.
bench:
	$(GO) test -bench=. -benchmem -count=5 -run='^$$' .

# perfbench is a module of its own, outside ./...: vet and test it so a
# change to the packages it imports cannot silently break its build.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

chaos-smoke:
	$(GO) run -race ./cmd/fvn chaos -n 25 -topo ring:6
	$(GO) run -race ./cmd/fvn chaos -n 12 -topo ring:8 -crashes 3 -reliable -checkpoint-every 10 -anti-entropy

# The chaos-campaign benchmark workload's ops 0-259 of seeds 1-10, built
# as perfbench builds them; fails unless exactly the known ops fail.
chaos-sweep:
	FVN_SWEEP=1 $(GO) test -count=1 -run 'TestChaosSweep' -v -timeout 30m ./internal/dist/

determinism-smoke:
	$(GO) test -race -count=1 -run 'TestSameSeedRunsBitForBitReproducible' ./internal/dist/

prov-smoke:
	$(GO) run -race ./cmd/fvn chaos -n 8 -topo ring:6 -prov
	$(GO) run -race ./cmd/fvn why -topo ring:6 -tuple 'bestPathCost(n0,n1,1)'

verify-smoke:
	$(GO) run -race ./cmd/fvn verify -suite -workers 4 -explain

serve-smoke:
	$(GO) test -race -run TestServeSmoke -v ./cmd/fvn

scale-smoke:
	$(GO) test -count=1 -run 'TestScaleISP10k|TestFatTreeConverges' -v -timeout 10m ./internal/dist/

# Each fuzz target for 30 s beyond its seed corpus (which go test runs).
# A crasher lands in the package's testdata/fuzz; keep it there.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 30s ./internal/ndlog
	$(GO) test -run '^$$' -fuzz '^FuzzTopoSpec$$' -fuzztime 30s ./internal/netgraph

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

experiments:
	$(GO) run ./cmd/experiments
