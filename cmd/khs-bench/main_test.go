package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: kncube
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSimulatorStep 	 3247651	       931.2 ns/op	       6 B/op	       0 allocs/op
BenchmarkSolverFigure1-8 	     120	   9876543 ns/op
BenchmarkSolveNearSat/hotspot-2d/anderson-8 	   10000	    104500 ns/op	       102.0 iters/op
PASS
ok  	kncube	3.853s
`

func TestParseExtractsBenchmarks(t *testing.T) {
	e, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if e.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Errorf("cpu = %q", e.CPU)
	}
	if len(e.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(e.Benchmarks), e.Benchmarks)
	}
	step := e.Benchmarks[0]
	if step.Name != "BenchmarkSimulatorStep" || step.Iterations != 3247651 {
		t.Errorf("step benchmark = %+v", step)
	}
	//lint:ignore floateq strconv round-trips the literal text exactly
	if step.NsPerOp != 931.2 || step.BytesPerOp != 6 || step.AllocsPerOp != 0 {
		t.Errorf("step metrics = %+v", step)
	}
	// A Step benchmark advances one simulated cycle per iteration, so the
	// derived rate is 1e9/ns.
	if got, want := step.CyclesPerSec, 1e9/931.2; got < want*0.999 || got > want*1.001 {
		t.Errorf("cycles/sec = %v, want ~%v", got, want)
	}
	solver := e.Benchmarks[1]
	//lint:ignore floateq strconv round-trips the literal text exactly
	if solver.Name != "BenchmarkSolverFigure1-8" || solver.NsPerOp != 9876543 {
		t.Errorf("solver benchmark = %+v", solver)
	}
	//lint:ignore floateq derived field must be exactly unset for non-Step benchmarks
	if solver.CyclesPerSec != 0 {
		t.Errorf("non-Step benchmark got cycles/sec %v", solver.CyclesPerSec)
	}
	accel := e.Benchmarks[2]
	//lint:ignore floateq strconv round-trips the literal text exactly
	if accel.ItersPerOp != 102 || accel.NsPerOp != 104500 {
		t.Errorf("solve benchmark = %+v, want 102 iters/op at 104500 ns/op", accel)
	}
	//lint:ignore floateq strconv round-trips the literal text exactly
	if solver.ItersPerOp != 0 || step.ItersPerOp != 0 {
		t.Errorf("iters/op leaked onto benchmarks that do not report it: %+v %+v", solver, step)
	}
}

func TestParseIgnoresNonResultLines(t *testing.T) {
	in := "BenchmarkAlone\n=== RUN TestFoo\nBenchmarkBad abc 1 ns/op\n"
	e, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Benchmarks) != 0 {
		t.Fatalf("parsed %d benchmarks from junk, want 0", len(e.Benchmarks))
	}
}

// TestParseCollapsesRepeatedSamples pins the -count handling: the lines
// of one benchmark become one record of their medians, with the sample
// count and the interquartile range of ns/op, in first-seen order.
func TestParseCollapsesRepeatedSamples(t *testing.T) {
	in := `cpu: test
BenchmarkRound/ndim/iterate-2 	 2000	 1500 ns/op	 0 B/op	 0 allocs/op
BenchmarkSolveNearSat/ndim/damped-2 	 200	 30000 ns/op	 35.00 iters/op
BenchmarkRound/ndim/iterate-2 	 2000	 1400 ns/op	 0 B/op	 0 allocs/op
BenchmarkRound/ndim/iterate-2 	 2000	 1900 ns/op	 0 B/op	 0 allocs/op
BenchmarkRound/ndim/iterate-2 	 2000	 1600 ns/op	 0 B/op	 0 allocs/op
BenchmarkSimulatorStep-2 	 1000	 1000 ns/op
BenchmarkSimulatorStep-2 	 1000	 3000 ns/op
`
	e, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Benchmarks) != 3 {
		t.Fatalf("parsed %d records, want 3: %+v", len(e.Benchmarks), e.Benchmarks)
	}
	round, near, step := e.Benchmarks[0], e.Benchmarks[1], e.Benchmarks[2]
	if round.Name != "BenchmarkRound/ndim/iterate-2" || near.Name != "BenchmarkSolveNearSat/ndim/damped-2" {
		t.Fatalf("records out of first-seen order: %q, %q", round.Name, near.Name)
	}
	// ns/op samples 1400, 1500, 1600, 1900: median 1550, quartiles 1475
	// and 1675.
	//lint:ignore floateq medians and quartiles of these integers are exact
	if round.Samples != 4 || round.NsPerOp != 1550 || round.NsPerOpIQR != 200 || round.Iterations != 2000 {
		t.Errorf("collapsed record = %+v, want 4 samples, 1550 ns/op, IQR 200", round)
	}
	//lint:ignore floateq a single sample passes through unchanged
	if near.Samples != 1 || near.NsPerOp != 30000 || near.NsPerOpIQR != 0 || near.ItersPerOp != 35 {
		t.Errorf("single-sample record = %+v", near)
	}
	// The derived simulator rate follows the median.
	if got, want := step.CyclesPerSec, 1e9/2000; got < want*0.999 || got > want*1.001 {
		t.Errorf("cycles/sec = %v, want ~%v from the median ns/op", got, want)
	}
}
