// Package sim models the event-handle surface of the real internal/sim
// engine for the analyzer fixtures: same names, matched by the
// analyzers on the package-path tail.
package sim

type Event struct{ at int64 }

func (e *Event) Canceled() bool { return false }

type Engine struct{}

func (e *Engine) At(t int64, fn func()) *Event { return &Event{at: t} }

func (e *Engine) Cancel(ev *Event) {}
