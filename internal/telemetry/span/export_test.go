package span

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// goldenRecord is the fixpoint.solve record encoded in
// testdata/fixpoint_solve.jsonl. The file holds the bytes the export wrote
// when rounds were generic events with map attrs; Round's JSON methods
// must keep reproducing them exactly.
func goldenRecord() Record {
	return Record{
		TraceID:  "4bf92f3577b34da6a3ce929d0e0e4736",
		SpanID:   "b7ad6b7169203331",
		ParentID: "00f067aa0ba902b7",
		Name:     "fixpoint.solve",
		Start:    1760715807123456789,
		Duration: 1834250,
		Attrs: map[string]any{
			"panel":              "fig1-h20",
			"lambda_idx":         int64(4),
			"lambda":             0.000525,
			"iterations":         int64(3),
			"accelerated_rounds": int64(1),
			"damped_rounds":      int64(2),
			"residual":           3.0517578125e-07,
		},
		Rounds: []Round{
			{OffsetNano: 1200, Iteration: 1, MaxRelDelta: 0.75},
			{OffsetNano: 35000, Iteration: 2, MaxRelDelta: 0.0123456789, Accelerated: true},
			{OffsetNano: 1234567, Iteration: 3, MaxRelDelta: 3.0517578125e-07},
		},
	}
}

// TestRoundWireGolden: the JSONL encoding of a record with rounds is byte
// for byte the committed generic-event encoding, and ReadRecords decodes
// those bytes back into equal rounds.
func TestRoundWireGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/fixpoint_solve.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(goldenRecord()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("encoding changed:\n got %s\nwant %s", buf.Bytes(), want)
	}

	got, err := ReadRecords(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0].Rounds, goldenRecord().Rounds) {
		t.Fatalf("decoded rounds = %+v, want %+v", got, goldenRecord().Rounds)
	}
}

// TestReadRecordsRejectsOtherEvents: an exported event that is not a round
// fails the decode instead of being dropped or read as a zero round.
func TestReadRecordsRejectsOtherEvents(t *testing.T) {
	line := `{"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736","span_id":"b7ad6b7169203331","name":"x",` +
		`"start_unix_nano":1,"duration_nano":1,"events":[{"name":"tick","offset_nano":5,"attrs":{"iteration":1}}]}`
	if recs, err := ReadRecords(strings.NewReader(line)); err == nil || !strings.Contains(err.Error(), `"tick"`) {
		t.Fatalf("ReadRecords = %+v, %v; want an error naming the tick event", recs, err)
	}
	var r Round
	if err := json.Unmarshal([]byte(`{"offset_nano":5}`), &r); err == nil {
		t.Fatal("an event without a name decoded as a round")
	}
}

// TestRoundHoldsNoPointers keeps Round pointer-free, so a span's rounds
// slice stays out of the garbage collector's scan: a string, slice or
// interface field added later would put every retained round back into
// the mark phase.
func TestRoundHoldsNoPointers(t *testing.T) {
	var walk func(reflect.Type) string
	walk = func(typ reflect.Type) string {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			return ""
		case reflect.Array:
			return walk(typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if p := walk(typ.Field(i).Type); p != "" {
					return typ.Field(i).Name + ": " + p
				}
			}
			return ""
		}
		return typ.String()
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(Round{}), reflect.TypeOf(round{})} {
		if p := walk(typ); p != "" {
			t.Fatalf("%s holds a pointer (%s)", typ, p)
		}
	}
}
