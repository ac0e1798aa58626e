// Command khs-bench converts `go test -bench` text output into a
// machine-readable benchmark trajectory file (BENCH_sim.json,
// BENCH_solve.json). The CI bench job previously piped the human-readable
// bench text straight into a file with a .json name; this tool emits actual
// JSON so the numbers can be diffed, plotted, and regression-gated across
// commits:
//
//	go test -run '^$' -bench . -benchmem ./... | go run ./cmd/khs-bench -label after -append
//	go test -run '^$' -bench '^BenchmarkSolve' . | go run ./cmd/khs-bench -o BENCH_solve.json
//
// Each invocation appends (or writes) one labelled entry holding every
// parsed benchmark. Repeated samples of one benchmark (`go test -count N`)
// collapse into one record: the sample count, the median of each metric
// and the interquartile range of ns/op, so no stored number is a single
// noisy sample:
//
//	go test -run '^$' -bench '^BenchmarkSolveNearSat$' -count 10 . | go run ./cmd/khs-bench -o BENCH_solve.json -append
//
// A record holds the name, iterations, ns/op, B/op, allocs/op, the custom
// iters/op metric the BenchmarkSolve* family reports (fixed-point rounds
// per solve — the number the Anderson acceleration work is tracked by),
// and — for the simulator Step benchmarks — the derived simulated cycles
// per second (1e9 / ns_per_op), the headline number the event-driven
// hot-loop rework is tracked by.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"kncube/internal/stats"
	"kncube/internal/telemetry"
)

// Benchmark is one benchmark's result: a parsed `go test -bench` line, or
// the medians of every line of one name.
type Benchmark struct {
	Name       string `json:"name"`
	Iterations int64  `json:"iterations"`
	// Samples is the number of result lines the record collapses; the
	// metrics below are their medians.
	Samples int     `json:"samples,omitempty"`
	NsPerOp float64 `json:"ns_per_op"`
	// NsPerOpIQR is the interquartile range of ns/op over the samples
	// (0, and omitted, for a single sample).
	NsPerOpIQR float64 `json:"ns_per_op_iqr,omitempty"`
	// BytesPerOp and AllocsPerOp are always emitted (no omitempty): zero
	// allocations is the load-bearing value for the hot-loop benchmarks.
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// ItersPerOp is the custom iters/op metric reported by the
	// BenchmarkSolve* family: fixed-point substitution rounds per op.
	ItersPerOp float64 `json:"iters_per_op,omitempty"`
	// CyclesPerSec is 1e9/NsPerOp for benchmarks that advance the
	// simulator by one cycle per iteration (name contains "Step").
	CyclesPerSec float64 `json:"cycles_per_sec,omitempty"`
}

// Entry is one labelled benchmark run (one tool invocation).
type Entry struct {
	Label      string      `json:"label"`
	Date       string      `json:"date"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// logger carries the CLI's diagnostics on stderr; the trajectory JSON goes
// to the -o file. Set in main once -log-format is parsed; nil until then.
var logger *slog.Logger

func main() {
	label := flag.String("label", "run", "label recorded on this entry (e.g. baseline, after)")
	out := flag.String("o", "BENCH_sim.json", "output file")
	appendTo := flag.Bool("append", false, "append to an existing trajectory file instead of overwriting")
	logFormat := flag.String("log-format", "text", "structured log format for diagnostics: text or json")
	flag.Parse()
	lg, err := telemetry.NewLogger(os.Stderr, *logFormat)
	if err != nil {
		fatal(err)
	}
	logger = lg

	entry, err := parse(os.Stdin)
	if err != nil {
		fatal(err)
	}
	if len(entry.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found on stdin"))
	}
	entry.Label = *label
	entry.Date = time.Now().UTC().Format("2006-01-02")

	var entries []Entry
	if *appendTo {
		if data, err := os.ReadFile(*out); err == nil {
			if err := json.Unmarshal(data, &entries); err != nil {
				fatal(fmt.Errorf("existing %s is not a trajectory file: %w", *out, err))
			}
		}
	}
	entries = append(entries, entry)

	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	logger.Info("wrote benchmarks",
		"count", len(entry.Benchmarks), "label", entry.Label, "path", *out)
}

func fatal(err error) {
	// Pre-parse failures (a bad -log-format itself) fall back to plain
	// stderr; everything after flag parsing goes through the logger.
	if logger != nil {
		logger.Error("fatal", "err", err.Error())
	} else {
		fmt.Fprintln(os.Stderr, "khs-bench:", err)
	}
	os.Exit(2)
}

// parse reads `go test -bench` output and extracts every benchmark, in
// the order each name first appears, plus the most recent cpu: context
// line. Repeated lines of one name collapse into their medians.
func parse(r io.Reader) (Entry, error) {
	var e Entry
	var order []string
	samples := map[string][]Benchmark{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if cpu, ok := strings.CutPrefix(line, "cpu:"); ok {
			e.CPU = strings.TrimSpace(cpu)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		b, ok := parseLine(line)
		if !ok {
			continue
		}
		if _, seen := samples[b.Name]; !seen {
			order = append(order, b.Name)
		}
		samples[b.Name] = append(samples[b.Name], b)
	}
	for _, name := range order {
		e.Benchmarks = append(e.Benchmarks, collapse(samples[name]))
	}
	return e, sc.Err()
}

// collapse reduces the samples of one benchmark to a record of their
// medians, with the interquartile range of ns/op.
func collapse(bs []Benchmark) Benchmark {
	field := func(get func(Benchmark) float64) []float64 {
		xs := make([]float64, len(bs))
		for i, b := range bs {
			xs[i] = get(b)
		}
		return xs
	}
	ns := field(func(b Benchmark) float64 { return b.NsPerOp })
	out := Benchmark{
		Name:        bs[0].Name,
		Iterations:  int64(math.Round(stats.MedianOf(field(func(b Benchmark) float64 { return float64(b.Iterations) })))),
		Samples:     len(bs),
		NsPerOp:     stats.MedianOf(ns),
		NsPerOpIQR:  stats.QuantileOf(ns, 0.75) - stats.QuantileOf(ns, 0.25),
		BytesPerOp:  stats.MedianOf(field(func(b Benchmark) float64 { return b.BytesPerOp })),
		AllocsPerOp: stats.MedianOf(field(func(b Benchmark) float64 { return b.AllocsPerOp })),
		ItersPerOp:  stats.MedianOf(field(func(b Benchmark) float64 { return b.ItersPerOp })),
	}
	if strings.Contains(out.Name, "Step") && out.NsPerOp > 0 {
		out.CyclesPerSec = 1e9 / out.NsPerOp
	}
	return out
}

// parseLine parses one result line of the form
//
//	BenchmarkName-8   123456   931.2 ns/op   6 B/op   0 allocs/op
//
// Unknown units are ignored; a line without an ns/op measurement is not a
// result line (e.g. "BenchmarkFoo" printed alone when -v runs it).
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0]}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b.Iterations = iters
	sawNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			b.NsPerOp = val
			sawNs = true
		case "B/op":
			b.BytesPerOp = val
		case "allocs/op":
			b.AllocsPerOp = val
		case "iters/op":
			b.ItersPerOp = val
		}
	}
	if !sawNs {
		return Benchmark{}, false
	}
	return b, true
}
