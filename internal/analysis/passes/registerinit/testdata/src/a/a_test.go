package a

import "kncube/internal/core"

// Tests may register throwaway solver variants under unique names.
func registerForTest() {
	core.Register("fixture-test-only", core.Spec{}, rules, factory)
}
