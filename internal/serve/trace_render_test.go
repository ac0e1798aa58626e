package serve

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"kncube/internal/telemetry/span"
)

var updateRender = flag.Bool("update", false, "rewrite testdata/batch_trace.{json,jsonl} from the current rendering")

// timingField matches the three timing fields of a rendered span record:
// its start, its duration and each round's offset. They are the only bytes
// of a trace that vary between runs of the same seeded request.
var timingField = regexp.MustCompile(`"(start_unix_nano|duration_nano|offset_nano)":[0-9]+`)

func maskTiming(b []byte) []byte {
	return timingField.ReplaceAll(b, []byte(`"$1":0`))
}

// TestTraceRenderingPinned pins the bytes a retained trace renders to where
// it leaves the process: the GET /v1/traces/{id} body and the JSONL tee. The
// seeded 3-item batch joins the caller's trace (remote_parent), one item
// saturates (tail.keep "saturated"), and the tracer keeps 4 rounds per span
// so the damped solves export round events and a dropped_events count.
// Only the timing fields are masked.
func TestTraceRenderingPinned(t *testing.T) {
	var tee bytes.Buffer
	s := New(Config{MaxInflight: 4, TraceSeed: 7, TraceExport: &tee, RuntimeMetricsInterval: -1})
	s.tracer = span.New(span.Config{Exporter: s.traces, Seed: 7, MaxEventsPerSpan: 4,
		Tail: span.TailPolicy{Seed: 7}})
	h := s.Handler()

	body := `{"model":"hotspot-2d","options":{"acceleration":"none"},"items":[` +
		`{"k":8,"v":2,"lm":16,"h":0.2,"lambda":0.001},` +
		`{"k":8,"v":2,"lm":16,"h":0.2,"lambda":0.01},` +
		`{"k":8,"v":2,"lm":16,"h":0.2,"lambda":0.002}]}`
	req := httptest.NewRequest("POST", "/v1/solve:batch", strings.NewReader(body))
	req.Header.Set("traceparent", callerTraceparent)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("batch status = %d, body %s", rr.Code, rr.Body.String())
	}
	jsonl := maskTiming(bytes.Clone(tee.Bytes()))

	get := getPath(h, "/v1/traces/"+callerTraceID)
	if get.Code != http.StatusOK {
		t.Fatalf("GET /v1/traces/%s = %d", callerTraceID, get.Code)
	}
	for _, f := range []struct {
		path string
		got  []byte
	}{
		{"testdata/batch_trace.json", maskTiming(get.Body.Bytes())},
		{"testdata/batch_trace.jsonl", jsonl},
	} {
		if *updateRender {
			if err := os.WriteFile(f.path, f.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f.got, want) {
			t.Errorf("%s: rendering changed:\n got %s\nwant %s", f.path, f.got, want)
		}
	}
}
