package telemetry

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func TestManifestWriterJSONLRoundTrip(t *testing.T) {
	type rec struct {
		Seed    int64  `json:"seed"`
		Outcome string `json:"outcome"`
	}
	var buf bytes.Buffer
	w := NewManifestWriter(&buf)
	for i := int64(0); i < 4; i++ {
		if err := w.Write(rec{Seed: i, Outcome: "ok"}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadJSONL[rec](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[3].Seed != 3 || got[0].Outcome != "ok" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestReadJSONLReportsBadLine(t *testing.T) {
	type rec struct {
		Iteration int `json:"iteration"`
	}
	_, err := ReadJSONL[rec](strings.NewReader("{}\nnot-json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line-2 parse error", err)
	}
}

func TestStartProfilesWritesFiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := dir+"/cpu.pprof", dir+"/mem.pprof"
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	// A little work so the CPU profile is non-degenerate.
	h := NewHistogram(ExponentialBuckets(1, 2, 12))
	for i := 0; i < 100000; i++ {
		h.Observe(float64(i % 4096))
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}
