// Package simuse is the simhandle fixture: what a canceled event
// handle may and may not be used for.
package simuse

import "sim"

func doubleCancel(eng *sim.Engine) {
	ev := eng.At(10, func() {})
	eng.Cancel(ev)
	eng.Cancel(ev) // want "already canceled"
}

func useAfterCancel(eng *sim.Engine, sink func(*sim.Event)) {
	ev := eng.At(10, func() {})
	eng.Cancel(ev)
	sink(ev) // want "use of handle ev after Cancel"
}

func returnAfterCancel(eng *sim.Engine) *sim.Event {
	ev := eng.At(10, func() {})
	eng.Cancel(ev)
	return ev // want "use of handle ev after Cancel"
}

func storeAfterCancel(eng *sim.Engine, pending []*sim.Event) []*sim.Event {
	ev := eng.At(10, func() {})
	eng.Cancel(ev)
	pending = append(pending, ev) // want "use of handle ev after Cancel"
	return pending
}

// nestedUse: the check is lexical over the statement list, so uses
// nested under later branches are still caught.
func nestedUse(eng *sim.Engine, sink func(*sim.Event), cond bool) {
	ev := eng.At(10, func() {})
	eng.Cancel(ev)
	if cond {
		sink(ev) // want "use of handle ev after Cancel"
	}
}

// --- The documented affordances, which must stay silent. ---

// queriesAllowed: Canceled is valid forever on a canceled handle —
// that is the whole point of the never-recycle guarantee.
func queriesAllowed(eng *sim.Engine) bool {
	ev := eng.At(10, func() {})
	eng.Cancel(ev)
	return ev.Canceled()
}

func nilCompareAllowed(eng *sim.Engine) bool {
	ev := eng.At(10, func() {})
	eng.Cancel(ev)
	return ev != nil
}

// reassignRevives: a fresh At result is a fresh event; the old
// cancellation no longer applies to the variable.
func reassignRevives(eng *sim.Engine) {
	ev := eng.At(10, func() {})
	eng.Cancel(ev)
	ev = eng.At(20, func() {})
	eng.Cancel(ev)
}

// clearRef: nilling the handle is the idiomatic post-Cancel hygiene.
func clearRef(eng *sim.Engine) {
	ev := eng.At(10, func() {})
	eng.Cancel(ev)
	ev = nil
	_ = ev
}

// annotated: the double-cancel no-op is occasionally the thing under
// test; the annotation records that.
func annotated(eng *sim.Engine) {
	ev := eng.At(10, func() {})
	eng.Cancel(ev)
	eng.Cancel(ev) //lint:allow simhandle the double-cancel no-op is exercised deliberately
}
