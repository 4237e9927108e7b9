// Package accelsim models a PCIe accelerator card — the third device
// class the paper pools (§5 "soft accelerator disaggregation":
// compression engines, homomorphic-encryption offloads, smart SSDs,
// FPGAs). The execution model is the common offload shape: DMA-read an
// input buffer from host (or CXL pool) memory, compute for a
// size-dependent time on a fixed number of execution lanes, DMA-write
// the result back.
//
// Specialized accelerators "may get infrequent use and thus may sit
// idle most of the time" — exactly why the paper wants to deploy them
// at 1:16 host ratios behind the pool. This model gives that argument a
// measurable substrate: utilization, queueing, and offload latency.
package accelsim

import (
	"errors"
	"fmt"

	"cxlpool/internal/mem"
	"cxlpool/internal/pcie"
	"cxlpool/internal/sim"
)

// Kind selects a built-in accelerator profile.
type Kind int

// Built-in profiles with coarse published-order-of-magnitude numbers.
const (
	// Compression: ~10 GB/s per lane class, short setup.
	Compression Kind = iota
	// Crypto: ~4 GB/s, moderate setup.
	Crypto
	// HomomorphicEncryption: throughput measured in MB/s; the paper's
	// poster child for low-duty-cycle specialized hardware.
	HomomorphicEncryption
)

// String names the profile.
func (k Kind) String() string {
	switch k {
	case Compression:
		return "compression"
	case Crypto:
		return "crypto"
	case HomomorphicEncryption:
		return "homomorphic-encryption"
	default:
		return "unknown"
	}
}

// Profile holds the execution parameters of a kind.
type Profile struct {
	// Setup is fixed per-job latency (command decode, kernel launch).
	Setup sim.Duration
	// Throughput is per-lane processing bandwidth.
	Throughput mem.GBps
	// Lanes is the number of jobs processed concurrently.
	Lanes int
	// Expansion is output-size/input-size (1.0 = same size).
	Expansion float64
}

// DefaultProfile returns the profile for a kind.
func DefaultProfile(k Kind) Profile {
	switch k {
	case Compression:
		return Profile{Setup: 3 * sim.Microsecond, Throughput: 10, Lanes: 8, Expansion: 0.5}
	case Crypto:
		return Profile{Setup: 5 * sim.Microsecond, Throughput: 4, Lanes: 4, Expansion: 1.0}
	case HomomorphicEncryption:
		return Profile{Setup: 20 * sim.Microsecond, Throughput: 0.05, Lanes: 2, Expansion: 8.0}
	default:
		return Profile{Setup: sim.Microsecond, Throughput: 1, Lanes: 1, Expansion: 1.0}
	}
}

// Job is one completed offload.
type Job struct {
	Kind      Kind
	InputLen  int
	OutputLen int
	Latency   sim.Duration
	Err       error
}

// Errors.
var (
	ErrBadJob = errors.New("accelsim: job input must be positive")
)

// Accel is one accelerator card.
type Accel struct {
	name    string
	kind    Kind
	profile Profile
	ep      *pcie.Endpoint
	engine  *sim.Engine

	laneFree []sim.Time

	// inBuf and outBuf are the DMA staging scratch, grown once and
	// reused by every job: Submit consumes both before it returns.
	inBuf, outBuf []byte
	// jobFree recycles completion events with their callbacks (as
	// ssdsim's compFree does).
	jobFree []*jobEvent
}

// New creates an accelerator of the given kind.
func New(name string, engine *sim.Engine, kind Kind) *Accel {
	p := DefaultProfile(kind)
	return &Accel{
		name:     name,
		kind:     kind,
		profile:  p,
		ep:       pcie.NewEndpoint(name, pcie.LinkConfig{Lanes: 16, Gen: 5}),
		engine:   engine,
		laneFree: make([]sim.Time, p.Lanes),
	}
}

// Kind returns the accelerator class.
func (a *Accel) Kind() Kind { return a.kind }

// AttachHostMemory points the DMA engine at host/pool memory.
func (a *Accel) AttachHostMemory(m mem.Memory) { a.ep.AttachHostMemory(m) }

// Fail injects a device failure.
//
//lint:allow testonly TestVirtualAccelFailureAndRemap and TestForwarderTracePinned fail the device under a VirtualAccel
func (a *Accel) Fail() { a.ep.Fail() }

// Repair clears it.
//
//lint:allow testonly TestForwarderTracePinned repairs the device it failed
func (a *Accel) Repair() { a.ep.Repair() }

// OutputLen returns the output size for an input size.
func (a *Accel) OutputLen(inputLen int) int {
	out := int(float64(inputLen) * a.profile.Expansion)
	if out < 1 {
		out = 1
	}
	return out
}

// Submit offloads a job: DMA-read inputLen bytes from inAddr, compute,
// DMA-write the result to outAddr. done fires at completion.
func (a *Accel) Submit(now sim.Time, inAddr, outAddr mem.Address, inputLen int, done func(Job)) error {
	if inputLen <= 0 {
		return ErrBadJob
	}
	if a.ep.Failed() {
		return fmt.Errorf("%w: %s", pcie.ErrDeviceFailed, a.name)
	}
	// Stage in.
	in := grow(&a.inBuf, inputLen)
	dIn, err := a.ep.DMARead(now, inAddr, in)
	if err != nil {
		return err
	}
	// Compute on the least-loaded lane.
	lane := 0
	for i := range a.laneFree {
		if a.laneFree[i] < a.laneFree[lane] {
			lane = i
		}
	}
	start := now + dIn
	if a.laneFree[lane] > start {
		start = a.laneFree[lane]
	}
	compute := a.profile.Setup + a.profile.Throughput.TransferTime(inputLen)
	a.laneFree[lane] = start + compute
	// Produce output deterministically from input (checksum-expanded),
	// so pooled paths can verify integrity end to end.
	outLen := a.OutputLen(inputLen)
	out := grow(&a.outBuf, outLen)
	transform(in, out)
	dOut, err := a.ep.DMAWrite(start+compute, outAddr, out)
	if err != nil {
		return err
	}
	total := (start + compute + dOut) - now
	a.complete(now+total, done, Job{Kind: a.kind, InputLen: inputLen, OutputLen: outLen, Latency: total})
	return nil
}

// grow returns (*buf)[:n], reallocating only when n exceeds its capacity.
func grow(buf *[]byte, n int) []byte {
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	return (*buf)[:n]
}

// jobEvent is one scheduled completion, pooled with its callback so
// steady-state offload does not allocate a closure per job.
type jobEvent struct {
	a    *Accel
	done func(Job)
	j    Job
	fn   func()
}

// complete fires done(j) at `at` through a recycled completion event.
func (a *Accel) complete(at sim.Time, done func(Job), j Job) {
	var e *jobEvent
	if k := len(a.jobFree); k > 0 {
		e = a.jobFree[k-1]
		a.jobFree[k-1] = nil
		a.jobFree = a.jobFree[:k-1]
	} else {
		e = &jobEvent{a: a}
		e.fn = e.run
	}
	e.done, e.j = done, j
	a.engine.At(at, e.fn)
}

// run recycles the event before invoking the callback, so a callback
// that submits a new job can reuse it.
func (e *jobEvent) run() {
	done, j := e.done, e.j
	e.done = nil
	e.a.jobFree = append(e.a.jobFree, e)
	done(j)
}

// transform writes the device's output for in into out: each input
// byte folds into a running checksum written at its index modulo
// len(out); indexes no input byte reaches stay zero.
func transform(in, out []byte) {
	clear(out)
	var acc byte
	for i, b := range in {
		acc ^= b + byte(i)
		out[i%len(out)] = acc
	}
}

// Transform computes the reference output for an input, for integrity
// checks by callers.
//
//lint:allow testonly TestOffloadRoundTrip, TestVirtualAccelOffloadWithIntegrity and the forwarder tests check device output against it
func Transform(in []byte, outLen int) []byte {
	out := make([]byte, outLen)
	transform(in, out)
	return out
}
