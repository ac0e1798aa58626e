package core

import "fmt"

// FieldError attributes a parameter-validation failure to the Spec field
// that caused it, so API layers (the khs-serve daemon in particular) can
// return structured errors — (field, reason) pairs — instead of opaque
// strings. Every variant's Rules and the registry lookup report their
// failures through this type; errors.As extracts it anywhere downstream.
//
// Field is the canonical lower-case JSON/flag name of the offending
// parameter: "model", "k", "dims", "v", "lm", "h", "lambda", or, for an
// option, its path in a request: "options.blocking".
type FieldError struct {
	Field  string
	Reason string
}

func (e *FieldError) Error() string { return e.Reason }

// fieldErrf builds a FieldError with a formatted reason. The reason keeps
// the historical "core: ..." message shape so log output is unchanged.
func fieldErrf(field, format string, args ...any) error {
	return &FieldError{Field: field, Reason: fmt.Sprintf(format, args...)}
}
