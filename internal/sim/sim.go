// Package sim provides a deterministic discrete-event simulation kernel.
//
// Every timed experiment in this repository runs on top of this kernel: a
// nanosecond-resolution virtual clock, a specialized event queue, and a
// seeded random source. Nothing in the simulated world reads the wall
// clock, so a run is a pure function of its inputs and seed.
//
// The kernel is single-threaded by design. Concurrency in the simulated
// system (multiple hosts, devices, DMA engines) is modeled as interleaved
// events, which keeps runs reproducible and makes latency accounting
// exact. (Experiments themselves may run concurrently — each on its own
// Engine — via internal/runner.)
//
// # Event queue
//
// The queue is a hand-inlined 4-ary min-heap ordered by (time, sequence
// number), specialized to *Event: no container/heap interface dispatch,
// no per-element index maintenance. The 4-ary layout halves tree depth
// versus a binary heap, which matters because pop — the hot operation in
// a drain loop — does one sift-down per event.
//
// Cancellation is lazy: Cancel marks the event dead and the heap drops
// it when it surfaces, so Cancel is O(1) and the heap needs no
// back-pointers.
//
// # Event recycling and handle validity
//
// Fired events are recycled through a free-list on the Engine, and fresh
// events are carved from chunked allocations, so steady-state scheduling
// does not allocate. The price is a handle-validity contract:
//
//   - An *Event handle is valid from At until the event fires. Within
//     that window Cancel and Canceled work as documented.
//   - A canceled event is never recycled, so a handle you canceled stays
//     valid indefinitely: Canceled keeps reporting true, and canceling
//     it again stays a no-op.
//   - Once an event has fired, the Engine may reuse its struct for a
//     later At. Do not retain handles to fired events: clear your
//     reference when the callback runs (or cancel before it can fire).
//     Calling Cancel with a handle that outlived its event is a caller
//     bug — it may cancel an unrelated, newer event.
//
// All schedulers in this repository follow the single-owner pattern: the
// party that schedules an event either lets it fire (and overwrites its
// reference from inside the callback) or cancels it while pending.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in simulated time, in nanoseconds since the start of the
// run. It is deliberately not time.Time: simulated time has no epoch and
// must never be compared with the wall clock.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration = Time

// Common durations, mirroring time package conventions.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// MaxTime is the largest representable simulation time. It is used as a
// sentinel for "never".
const MaxTime Time = math.MaxInt64

// String renders the time with an adaptive unit, e.g. "612ns", "14.2us".
func (t Time) String() string {
	switch {
	case t < 10*Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", float64(t)/1e3)
	case t < 10*Second:
		return fmt.Sprintf("%.3fms", float64(t)/1e6)
	default:
		return fmt.Sprintf("%.3fs", float64(t)/1e9)
	}
}

// Seconds returns the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Event lifecycle states.
const (
	stateFree      uint8 = iota // never scheduled, or recycled onto the free-list
	stateScheduled              // pending in the heap
	stateFired                  // callback has run (struct may be recycled)
	stateCanceled               // canceled while pending; never recycled
)

// Event is a scheduled callback handle. The zero Event is invalid; obtain
// events from Engine.At. See the package comment for the
// handle-validity contract: a handle is good until the event fires, and a
// canceled handle is good forever.
type Event struct {
	at    Time
	seq   uint64 // tiebreaker: FIFO among events at the same instant
	fn    func()
	state uint8
}

// Canceled reports whether the event was canceled before firing: the
// one query the handle-validity contract allows on a canceled handle.
//
//lint:allow testonly TestCanceledEventNeverRecycled and the other cancel tests read it on retired handles
func (e *Event) Canceled() bool { return e.state == stateCanceled }

// eventChunk is how many Events one allocation block holds. Events are
// carved from blocks so a burst of B schedules costs B/eventChunk
// allocations instead of B, and recycled through the free-list after
// firing so steady state costs none.
const eventChunk = 256

// Engine is a discrete-event scheduler. Create one with NewEngine; the
// zero value is not usable.
type Engine struct {
	now Time
	seq uint64
	// events is a 4-ary min-heap on (at, seq). Canceled events stay in
	// place until popped (lazy deletion).
	events []*Event
	// free holds fired events available for reuse; chunk is the current
	// allocation block new events are carved from.
	free  []*Event
	chunk []Event
	rng   *Rand
	// Processed counts events executed so far; useful for run budgets and
	// detecting livelock in tests.
	processed uint64
	// Limit, when nonzero, aborts Run with ErrEventLimit after this many
	// events. Guards against accidental infinite event loops in tests.
	limit uint64
}

// NewEngine returns an engine whose clock starts at 0 and whose random
// source is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: NewRand(seed)}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *Rand { return e.rng }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// SetEventLimit sets an upper bound on the number of events a Run may
// execute; 0 means no limit.
func (e *Engine) SetEventLimit(n uint64) { e.limit = n }

// alloc returns a blank Event from the free-list, or carves one from the
// current chunk.
func (e *Engine) alloc() *Event {
	if n := len(e.free) - 1; n >= 0 {
		ev := e.free[n]
		e.free[n] = nil
		e.free = e.free[:n]
		return ev
	}
	if len(e.chunk) == 0 {
		e.chunk = make([]Event, eventChunk)
	}
	ev := &e.chunk[0]
	e.chunk = e.chunk[1:]
	return ev
}

// recycle returns a fired event to the free-list. Canceled events must
// never be recycled: their handles stay live forever by contract.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.state = stateFree
	e.free = append(e.free, ev)
}

// eventLess is the heap order: earlier time first, FIFO within an
// instant.
func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts ev, sifting the hole up from the tail. 4-ary: parent of i
// is (i-1)/4.
func (e *Engine) push(ev *Event) {
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !eventLess(ev, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	e.events = h
}

// popHead removes the heap minimum (h[0]), sifting the former tail down
// through the ≤4 children of each hole. Callers read h[0] before calling.
func (e *Engine) popHead() {
	h := e.events
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	e.events = h
	if n == 0 {
		return
	}
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if eventLess(h[j], h[m]) {
				m = j
			}
		}
		if !eventLess(h[m], last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = last
}

// At schedules fn to run at absolute time t. Scheduling in the past (t <
// Now) panics: it always indicates a modeling bug, and silently clamping
// would corrupt latency measurements.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	ev.state = stateScheduled
	e.seq++
	e.push(ev)
	return ev
}

// Cancel removes a scheduled event. Canceling nil, an already-canceled
// event, or an event whose handle is still fresh after it fired is a
// no-op. Cancellation is lazy — O(1), with the heap slot reclaimed when
// it surfaces — and a canceled event is permanently retired: its struct
// is never recycled, so the handle remains valid (and Canceled remains
// true) for the rest of the run.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.state != stateScheduled {
		return
	}
	ev.state = stateCanceled
	ev.fn = nil
}

// ErrEventLimit is returned by Run variants when the configured event
// limit is exceeded.
type ErrEventLimit struct{ Limit uint64 }

func (e ErrEventLimit) Error() string {
	return fmt.Sprintf("sim: event limit %d exceeded", e.Limit)
}

// Run executes events until the queue is empty. It returns the final
// simulated time.
func (e *Engine) Run() (Time, error) {
	return e.RunUntil(MaxTime)
}

// RunUntil executes events with timestamps <= deadline. Events scheduled
// beyond the deadline remain queued. The clock is advanced to the deadline
// if the queue empties first only when deadline != MaxTime.
func (e *Engine) RunUntil(deadline Time) (Time, error) {
	for len(e.events) > 0 {
		next := e.events[0]
		if next.state == stateCanceled {
			// Lazily-deleted: drop it (even past the deadline — it will
			// never fire). Not recycled; the canceling party may still
			// hold the handle.
			e.popHead()
			continue
		}
		if next.at > deadline {
			e.now = deadline
			return e.now, nil
		}
		e.popHead()
		e.now = next.at
		e.processed++
		if e.limit != 0 && e.processed > e.limit {
			// The limit-tripping event is dropped unfired. Retire its
			// handle (a later Cancel must be a no-op); don't recycle
			// it, the caller may still hold it.
			next.state = stateFired
			next.fn = nil
			return e.now, ErrEventLimit{Limit: e.limit}
		}
		fn := next.fn
		next.state = stateFired
		next.fn = nil
		fn()
		e.recycle(next)
	}
	if deadline != MaxTime && deadline > e.now {
		e.now = deadline
	}
	return e.now, nil
}

// Step executes exactly one event if any is pending and reports whether an
// event was executed.
//
//lint:allow testonly BenchmarkScheduleFire, BenchmarkSelfScheduling and BenchmarkScheduleCancel (gated by scripts/bench.sh) fire one event per iteration
func (e *Engine) Step() bool {
	for len(e.events) > 0 {
		next := e.events[0]
		e.popHead()
		if next.state == stateCanceled {
			continue
		}
		e.now = next.at
		e.processed++
		fn := next.fn
		next.state = stateFired
		next.fn = nil
		fn()
		e.recycle(next)
		return true
	}
	return false
}
