// Package a exercises the registerinit analyzer: solver registration is
// allowed only from init functions (this fixture is type-checked, never
// run, so the registrations below do not actually fire).
package a

import "kncube/internal/core"

func rules(s core.Spec) error { return nil }

func factory(s core.Spec, o core.Options) core.Solver { return nil }

func init() {
	core.Register("fixture-init", core.Spec{}, rules, factory) // init-time registration: allowed
}

func lateRegister() {
	core.Register("fixture-late", core.Spec{}, rules, factory) // want `core\.Register outside an init func`
}

var _ = func() bool {
	core.Register("fixture-var", core.Spec{}, rules, factory) // want `core\.Register outside an init func`
	return true
}()

func suppressed() {
	//lint:ignore registerinit fixture exercises the suppression path
	core.Register("fixture-suppressed", core.Spec{}, rules, factory)
}
