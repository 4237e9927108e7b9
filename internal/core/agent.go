package core

import (
	"cxlpool/internal/shm"
	"cxlpool/internal/sim"
)

// DefaultAgentPoll is the agents' channel polling cadence: a dedicated
// spinning core re-polls as soon as the previous CXL read returns, plus
// loop overhead.
const DefaultAgentPoll sim.Duration = 300

// Agent is the per-host pooling agent of §4.2: it "monitors and
// configures the PCIe device" and serves the shared-memory channels
// that carry forwarded device operations.
//
// The agent is a single spinning core that sweeps a set of services —
// one per channel it is responsible for. Every pooled device's binding
// (virtual NIC, SSD or accelerator) registers two: commands at the
// owner, completions at the user. The agent's time cursor advances
// through every poll and every forwarded operation, so agent throughput
// is honestly bounded.
type Agent struct {
	host     *Host
	interval sim.Duration

	services []*service

	running bool
	stopped bool
	poll    *sim.Event
	// pollAt/pollFn implement the self-rescheduling poll loop with one
	// closure for the agent's lifetime: only a single poll is ever
	// pending, so the fire time lives in a field instead of a fresh
	// capture per sweep.
	pollAt sim.Time
	pollFn func()

	// forwarded counts TX descriptors handed to devices.
	forwarded uint64

	// pollBuf is the agent's channel-payload scratch, reused across
	// PollInto calls: descriptors are decoded (copied into fields)
	// before the next poll overwrites it.
	pollBuf []byte
}

// service is one polled channel plus its message handler. The handler
// receives the agent's time cursor and returns the advanced cursor.
type service struct {
	rx     *shm.Receiver
	handle func(cur sim.Time, payload []byte) sim.Time
	active bool
}

func newAgent(h *Host, interval sim.Duration) *Agent {
	if interval <= 0 {
		interval = DefaultAgentPoll
	}
	return &Agent{host: h, interval: interval}
}

// addService registers a channel with the agent and starts the poll
// loop if needed.
func (a *Agent) addService(rx *shm.Receiver, handle func(sim.Time, []byte) sim.Time) *service {
	s := &service{rx: rx, handle: handle, active: true}
	a.services = append(a.services, s)
	a.ensureRunning()
	return s
}

// ensureRunning starts the poll loop on first use.
func (a *Agent) ensureRunning() {
	if a.running || a.stopped {
		return
	}
	a.running = true
	a.schedule(a.host.pod.Engine.Now() + a.interval)
}

func (a *Agent) schedule(at sim.Time) {
	if a.pollFn == nil {
		a.pollFn = func() { a.sweep(a.pollAt) }
	}
	a.pollAt = at
	a.poll = a.host.pod.Engine.At(at, a.pollFn)
}

// stop halts the loop permanently (host hot-remove).
func (a *Agent) stop() {
	a.stopped = true
	a.running = false
	if a.poll != nil {
		a.host.pod.Engine.Cancel(a.poll)
		a.poll = nil
	}
}

// sweep drains every active service once.
//
// Handlers advance the sweep's time cursor as they work; side effects
// they perform (device doorbells, completion sends) occur in program
// order within this one engine event, so their bytes become visible at
// the event's engine time even when the cursor says slightly later.
// That skew is bounded by per-message handling cost (hundreds of ns) —
// acceptable modeling noise. Handlers whose cursor advances by large
// amounts (e.g. a 20us control-plane remap) must engine-schedule their
// subsequent sends at the cursor time instead; see
// ControlPlane.executeOnTarget.
func (a *Agent) sweep(t sim.Time) {
	if a.stopped {
		return
	}
	// Compact away services deactivated since the last sweep, so a
	// long-lived host does not scan an ever-growing tail of dead
	// entries (every vNIC rebind retires two). Compaction happens only
	// here, between sweeps: handlers can deactivate services mid-drain
	// (a remap executing on this very agent), and mutating the slice
	// under the loop below would skip entries.
	live := a.services[:0]
	for _, s := range a.services {
		if s.active {
			live = append(live, s)
		}
	}
	a.services = live
	cur := t
	for _, s := range a.services {
		if !s.active {
			continue
		}
		cur = a.drain(cur, s)
	}
	a.schedule(cur + a.interval)
}

// drain processes all pending messages on one service.
func (a *Agent) drain(cur sim.Time, s *service) sim.Time {
	for {
		payload, d, ok, err := s.rx.PollInto(cur, a.pollBuf[:0])
		cur += d
		if cap(payload) > cap(a.pollBuf) {
			a.pollBuf = payload[:0]
		}
		if !ok {
			return cur
		}
		// ok with a non-nil error means the message was consumed but the
		// receiver's cursor publish failed: the payload must still be
		// handled or it would be lost (the ring has advanced past it).
		cur = s.handle(cur, payload)
		if err != nil {
			return cur
		}
	}
}
