package span

import (
	"fmt"
	"strings"
)

// TraceparentHeader is the W3C trace-context header name carrying the
// caller's trace id across process boundaries.
const TraceparentHeader = "traceparent"

// ParseTraceparent parses a W3C traceparent header value
// ("00-<32 hex trace-id>-<16 hex span-id>-<2 hex flags>") into a Parent.
// Per the spec, version "ff" and all-zero ids are invalid; unknown
// versions are accepted as long as the 00-format prefix parses, which
// keeps us forward-compatible with future spec revisions.
func ParseTraceparent(value string) (Parent, error) {
	parts := strings.Split(strings.TrimSpace(value), "-")
	if len(parts) < 4 {
		return Parent{}, fmt.Errorf("span: traceparent %q: want version-traceid-spanid-flags", value)
	}
	version := parts[0]
	if len(version) != 2 {
		return Parent{}, fmt.Errorf("span: traceparent version %q is not 2 hex characters", version)
	}
	if strings.EqualFold(version, "ff") {
		return Parent{}, fmt.Errorf("span: traceparent version ff is invalid")
	}
	if version == "00" && len(parts) != 4 {
		return Parent{}, fmt.Errorf("span: traceparent %q: version 00 takes exactly 4 fields", value)
	}
	tid, err := ParseTraceID(strings.ToLower(parts[1]))
	if err != nil {
		return Parent{}, err
	}
	sid, err := ParseSpanID(strings.ToLower(parts[2]))
	if err != nil {
		return Parent{}, err
	}
	flags := strings.ToLower(parts[3])
	if len(flags) != 2 {
		return Parent{}, fmt.Errorf("span: traceparent flags %q are not 2 hex characters", parts[3])
	}
	v := hexVal(flags[0])<<4 | hexVal(flags[1])
	return Parent{TraceID: tid, SpanID: sid, Sampled: v&0x01 != 0}, nil
}

// FormatTraceparent renders a Parent as a version-00 traceparent value;
// "" when p carries no usable context.
func FormatTraceparent(p Parent) string {
	if p.IsZero() {
		return ""
	}
	flags := "00"
	if p.Sampled {
		flags = "01"
	}
	return "00-" + p.TraceID.String() + "-" + p.SpanID.String() + "-" + flags
}

// hexVal decodes one lowercase-hex digit (0 for anything else).
func hexVal(c byte) byte {
	switch {
	case c >= '0' && c <= '9':
		return c - '0'
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10
	}
	return 0
}
