package sim

import "testing"

// The tests in this file pin the Cancel/Canceled contract documented in
// the package comment: a handle is valid until its event fires, and a
// canceled handle is valid forever because canceled events are never
// recycled.

// A canceled event that has been lazily dropped from the heap must never
// come back from the free-list: its handle would silently start
// describing an unrelated event.
func TestCanceledEventNeverRecycled(t *testing.T) {
	e := NewEngine(1)
	canceled := make([]*Event, 100)
	for i := range canceled {
		canceled[i] = e.At(e.Now()+Duration(i+1), func() {})
		e.Cancel(canceled[i])
	}
	if _, err := e.Run(); err != nil { // drains the lazily-deleted events
		t.Fatal(err)
	}
	// Schedule far more events than were canceled; none may reuse a
	// canceled struct.
	for i := 0; i < 1000; i++ {
		ev := e.At(e.Now()+Duration(i+1), func() {})
		for _, c := range canceled {
			if ev == c {
				t.Fatalf("canceled event %p recycled as a new event", c)
			}
		}
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The canceled handles still report their fate.
	for i, c := range canceled {
		if !c.Canceled() {
			t.Fatalf("canceled[%d] reads as not canceled after later scheduling", i)
		}
	}
}

// Fired events ARE recycled — that is the free-list working. This pins
// the allocation behavior the benchmarks rely on.
func TestFiredEventsAreRecycled(t *testing.T) {
	e := NewEngine(1)
	ev := e.At(e.Now()+1, func() {})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	ev2 := e.At(e.Now()+1, func() {})
	if ev2 != ev {
		t.Fatalf("fired event not recycled: got %p, want %p", ev2, ev)
	}
	e.Cancel(ev2)
	ev3 := e.At(e.Now()+2, func() {})
	if ev3 == ev2 { //lint:allow simhandle identity probe of the never-recycle guarantee for canceled handles
		t.Fatal("canceled event recycled")
	}
}

// Cancel inside the event's own callback is a no-op: the event has
// already fired.
func TestCancelDuringOwnCallback(t *testing.T) {
	e := NewEngine(1)
	var self *Event
	ran := false
	self = e.At(e.Now()+5, func() {
		ran = true
		e.Cancel(self)
		if self.Canceled() {
			t.Error("event canceled itself mid-fire")
		}
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("event did not fire")
	}
}

// Canceling a pending event from another event's callback prevents it
// from firing even when both share a timestamp (the canceler is earlier
// in FIFO order).
func TestCancelFromEarlierEventSameInstant(t *testing.T) {
	e := NewEngine(1)
	fired := false
	var victim *Event
	e.At(10, func() { e.Cancel(victim) })
	victim = e.At(10, func() { fired = true })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("event fired despite same-instant cancel")
	}
	if !victim.Canceled() {
		t.Fatal("victim not marked canceled")
	}
}

// A canceled event stops counting as pending at once even though it
// leaves the heap lazily.
func TestPendingWithLazyCancel(t *testing.T) {
	e := NewEngine(1)
	evs := make([]*Event, 10)
	for i := range evs {
		evs[i] = e.At(e.Now()+Duration(i+1), func() {})
	}
	if pending(e) != 10 {
		t.Fatalf("pending = %d, want 10", pending(e))
	}
	for i := 0; i < 5; i++ {
		e.Cancel(evs[i])
	}
	if pending(e) != 5 {
		t.Fatalf("pending = %d after 5 cancels, want 5", pending(e))
	}
	e.Cancel(evs[0]) // double cancel: no double decrement
	if pending(e) != 5 {
		t.Fatalf("pending = %d after double cancel, want 5", pending(e))
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if pending(e) != 0 {
		t.Fatalf("pending = %d after Run, want 0", pending(e))
	}
}

// Step must skip lazily-deleted events and report true only when a real
// event ran.
func TestStepSkipsCanceled(t *testing.T) {
	e := NewEngine(1)
	a := e.At(e.Now()+1, func() {})
	fired := false
	e.At(e.Now()+2, func() { fired = true })
	e.Cancel(a)
	if !e.Step() {
		t.Fatal("Step found nothing despite a live event")
	}
	if !fired {
		t.Fatal("Step fired the canceled event instead of the live one")
	}
	if e.Step() {
		t.Fatal("Step reported work on an empty queue")
	}
}

// Cancel on the handle of the event that tripped the event limit must
// be a no-op: the event was popped unfired, so it must neither count as
// pending nor read as canceled.
func TestCancelAfterEventLimit(t *testing.T) {
	e := NewEngine(1)
	e.SetEventLimit(1)
	e.At(e.Now()+1, func() {})
	tripper := e.At(e.Now()+2, func() { t.Error("fired past the limit") })
	if _, err := e.Run(); err == nil {
		t.Fatal("event limit not enforced")
	}
	if pending(e) != 0 {
		t.Fatalf("pending = %d after limit trip, want 0", pending(e))
	}
	e.Cancel(tripper)
	if pending(e) != 0 {
		t.Fatalf("pending = %d after canceling the tripper, want 0", pending(e))
	}
	if tripper.Canceled() {
		t.Fatal("dropped event reported Canceled")
	}
}

// pending counts e's scheduled, uncanceled events.
func pending(e *Engine) int {
	n := 0
	for _, ev := range e.events {
		if ev.state == stateScheduled {
			n++
		}
	}
	return n
}
