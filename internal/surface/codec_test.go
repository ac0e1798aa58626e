package surface_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"kncube/internal/surface"
)

var (
	smallOnce sync.Once
	smallSfc  *surface.Surface
	smallErr  error
)

// smallSurface builds (once) a cheap surface whose h=0.3 row saturates
// mid-axis, for codec and store tests. The K=8, Lm=16 shape saturates
// around λ≈3.5e-3 at h=0.3 and later for the cooler rows.
func smallSurface(t *testing.T) *surface.Surface {
	t.Helper()
	smallOnce.Do(func() {
		lams := make([]float64, 14)
		for i := range lams {
			lams[i] = 2.5e-4 + 3.65e-4*float64(i) // up to ≈5e-3
		}
		d := surface.Def{
			Model: "hotspot-2d", K: 8, Dims: 2, V: 2, Lm: 16,
			Hs:      []float64{0.1, 0.2, 0.3},
			Lambdas: lams,
		}
		smallSfc, smallErr = surface.Build(d, surface.BuildOptions{})
	})
	if smallErr != nil {
		t.Fatalf("Build: %v", smallErr)
	}
	total, saturated := smallSfc.Points()
	if saturated == 0 || saturated == total {
		t.Fatalf("smallSurface frontier assumption broken: %d/%d saturated", saturated, total)
	}
	return smallSfc
}

// TestCodecRoundTrip: encode → decode reproduces the definition, every
// grid bit-for-bit, the mask, and identical lookup behaviour.
func TestCodecRoundTrip(t *testing.T) {
	s := smallSurface(t)
	data, err := surface.Encode(s)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := surface.Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Def.Key() != s.Def.Key() {
		t.Fatalf("Def key changed: %q vs %q", got.Def.Key(), s.Def.Key())
	}
	if len(got.Latency) != len(s.Latency) {
		t.Fatalf("grid size changed: %d vs %d", len(got.Latency), len(s.Latency))
	}
	for i := range s.Latency {
		if got.Saturated[i] != s.Saturated[i] {
			t.Fatalf("mask cell %d changed", i)
		}
		if math.Float64bits(got.Latency[i]) != math.Float64bits(s.Latency[i]) {
			t.Fatalf("latency cell %d changed: %x vs %x", i,
				math.Float64bits(got.Latency[i]), math.Float64bits(s.Latency[i]))
		}
	}
	// The decoded surface must answer queries exactly like the original
	// (its derived interpolation state is rebuilt on decode).
	h, lambda := 0.15, 0.5*(s.Def.Lambdas[3]+s.Def.Lambdas[4])
	a, errA := s.Eval(h, lambda)
	b, errB := got.Eval(h, lambda)
	if errA != nil || errB != nil {
		t.Fatalf("Eval: %v / %v", errA, errB)
	}
	if math.Float64bits(a.Latency) != math.Float64bits(b.Latency) {
		t.Fatalf("decoded surface answers differently: %.17g vs %.17g", a.Latency, b.Latency)
	}
}

// TestDecodeCorruption: each corruption class reports its structured
// sentinel — never a panic, never a silently-wrong surface.
func TestDecodeCorruption(t *testing.T) {
	s := smallSurface(t)
	data, err := surface.Encode(s)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	cases := []struct {
		name    string
		corrupt func([]byte) []byte
		want    error
	}{
		{"empty", func(b []byte) []byte { return nil }, surface.ErrTruncated},
		{"preamble only", func(b []byte) []byte { return b[:8] }, surface.ErrTruncated},
		{"truncated mid-header", func(b []byte) []byte { return b[:14] }, surface.ErrTruncated},
		{"truncated mid-grid", func(b []byte) []byte { return b[:len(b)/2] }, surface.ErrTruncated},
		{"truncated checksum", func(b []byte) []byte { return b[:len(b)-3] }, surface.ErrTruncated},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, surface.ErrBadMagic},
		{"version from the future", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:8], surface.Version+1)
			return b
		}, surface.ErrVersionMismatch},
		{"flipped grid bit", func(b []byte) []byte { b[len(b)-100] ^= 0x40; return b }, surface.ErrChecksum},
		// A header flip that keeps the JSON parseable (a digit change)
		// is caught by the checksum; one that breaks the JSON is caught
		// structurally. Both are covered.
		{"flipped header digit", func(b []byte) []byte {
			i := bytes.Index(b, []byte(`"k":8`))
			if i < 0 {
				panic("test header lost its k field")
			}
			b[i+4] = '9'
			return b
		}, surface.ErrChecksum},
		{"broken header json", func(b []byte) []byte { b[16] ^= 0x01; return b }, surface.ErrBadHeader},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xAA) }, surface.ErrBadHeader},
		{"huge header length", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:12], 1<<30)
			return b
		}, surface.ErrBadHeader},
	}
	for _, tc := range cases {
		buf := append([]byte(nil), data...)
		_, err := surface.Decode(tc.corrupt(buf))
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestDecodeChecksumCannotMaskStructure: re-checksummed corruption (an
// attacker or a buggy writer fixing up the trailer) still fails the
// structural checks instead of producing garbage lookups.
func TestDecodeChecksumCannotMaskStructure(t *testing.T) {
	s := smallSurface(t)
	data, err := surface.Encode(s)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	// Write NaN into an unmasked grid cell, then recompute the trailer
	// so only the structural check can catch it.
	buf := append([]byte(nil), data...)
	hdrLen := binary.LittleEndian.Uint32(buf[8:12])
	cell0 := 12 + int(hdrLen)
	binary.LittleEndian.PutUint64(buf[cell0:], math.Float64bits(math.NaN()))
	reseal(buf)
	if _, err := surface.Decode(buf); !errors.Is(err, surface.ErrBadHeader) {
		t.Errorf("NaN outside the mask: got %v, want ErrBadHeader", err)
	}
	// A mask byte that is neither 0 nor 1 is likewise structural.
	buf = append([]byte(nil), data...)
	buf[len(buf)-9] = 7 // last mask byte
	reseal(buf)
	if _, err := surface.Decode(buf); !errors.Is(err, surface.ErrBadHeader) {
		t.Errorf("mask byte 7: got %v, want ErrBadHeader", err)
	}
}

// TestDecodeRefusesRetiredOptionFields: a version-1 header that names a
// retired option field (the entrance policy, the variance form, or the
// no-VC-split switch, whose forms are frozen in results/ablations.csv) is
// ErrBadHeader, even under a valid checksum: the strict header decoder
// never drops such a field and answers with the default form instead.
func TestDecodeRefusesRetiredOptionFields(t *testing.T) {
	data, err := surface.Encode(smallSurface(t))
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	hdrLen := int(binary.LittleEndian.Uint32(data[8:12]))
	hdr := data[12 : 12+hdrLen]
	if !bytes.HasPrefix(hdr, []byte("{")) {
		t.Fatalf("header %q is not a JSON object", hdr)
	}
	for _, field := range []string{`"entrance":2`, `"variance":1`, `"no_vc_split":true`} {
		newHdr := append([]byte("{"+field+","), hdr[1:]...)
		buf := append([]byte(nil), data[:8]...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(newHdr)))
		buf = append(buf, newHdr...)
		buf = append(buf, data[12+hdrLen:]...)
		reseal(buf)
		if _, err := surface.Decode(buf); !errors.Is(err, surface.ErrBadHeader) {
			t.Errorf("header naming %s: got %v, want ErrBadHeader", field, err)
		}
	}
}

// reseal recomputes the trailing FNV-64a checksum after a deliberate
// payload edit.
func reseal(buf []byte) {
	sum := fnvSum(buf[:len(buf)-8])
	binary.LittleEndian.PutUint64(buf[len(buf)-8:], sum)
}

func fnvSum(b []byte) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	var h uint64 = offset64
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// TestWriteFileReadFile: the file helpers round-trip through disk,
// name files by content, and dedup identical surfaces.
func TestWriteFileReadFile(t *testing.T) {
	s := smallSurface(t)
	dir := t.TempDir()
	path, err := surface.WriteFile(dir, s)
	if err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if filepath.Ext(path) != surface.FileExt {
		t.Fatalf("WriteFile path %q does not end in %s", path, surface.FileExt)
	}
	again, err := surface.WriteFile(dir, s)
	if err != nil {
		t.Fatalf("second WriteFile: %v", err)
	}
	if again != path {
		t.Fatalf("identical surface wrote to a different file: %q vs %q", again, path)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("%d files in dir after two writes of one surface, want 1", len(ents))
	}
	got, err := surface.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if got.Def.Key() != s.Def.Key() {
		t.Fatalf("ReadFile key %q, want %q", got.Def.Key(), s.Def.Key())
	}
}
