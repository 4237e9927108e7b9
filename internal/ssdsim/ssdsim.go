// Package ssdsim models an NVMe datacenter SSD: submission/completion
// flow, NAND latency, internal parallelism, and bandwidth — the second
// device class the paper pools (local NVMe drives, §1/§5).
//
// Like the NIC model, the SSD DMAs user data through whatever
// mem.Memory its endpoint is attached to, so pointing it at a CXL pool
// window is all it takes to place I/O buffers in the pool.
package ssdsim

import (
	"errors"
	"fmt"

	"cxlpool/internal/mem"
	"cxlpool/internal/pcie"
	"cxlpool/internal/sim"
)

// Timing and capacity constants for a Solidigm D5-class datacenter SSD
// (paper §5: "datacenter SSDs today often provide 5 GB/s bandwidth").
const (
	// ReadLatency is the NAND read latency (TLC, no cache hit).
	ReadLatency sim.Duration = 65 * sim.Microsecond
	// WriteLatency is the program latency absorbed by the write cache.
	WriteLatency sim.Duration = 15 * sim.Microsecond
	// Bandwidth is the sustained sequential bandwidth.
	Bandwidth mem.GBps = 5
	// Parallelism is the number of concurrent NAND operations the
	// device sustains (channels × planes, simplified).
	Parallelism = 16
	// SectorSize is the logical block size.
	SectorSize = 4096
)

// Op is an NVMe command type.
type Op int

// Read and Write are the supported commands.
const (
	OpRead Op = iota
	OpWrite
)

// String names the op.
func (o Op) String() string {
	if o == OpWrite {
		return "write"
	}
	return "read"
}

// Errors.
var (
	ErrOutOfRange = errors.New("ssdsim: LBA out of range")
	ErrBadLength  = errors.New("ssdsim: length must be a positive sector multiple")
)

// Completion reports a finished command.
type Completion struct {
	Op      Op
	LBA     int64
	Len     int
	Latency sim.Duration
	Err     error
}

// Media describes the storage medium's performance profile.
type Media struct {
	// ReadLatency and WriteLatency are per-op media latencies.
	ReadLatency  sim.Duration
	WriteLatency sim.Duration
	// Bandwidth is the sustained device bandwidth.
	Bandwidth mem.GBps
}

// TLCNAND is the default datacenter-TLC profile.
func TLCNAND() Media {
	return Media{ReadLatency: ReadLatency, WriteLatency: WriteLatency, Bandwidth: Bandwidth}
}

// FastSCM is a storage-class-memory profile (Optane/Z-NAND class):
// ~10 us reads. Low-latency media makes network overheads in
// disaggregation proportionally much more painful — the crux of the
// paper's RDMA argument.
func FastSCM() Media {
	return Media{ReadLatency: 10 * sim.Microsecond, WriteLatency: 10 * sim.Microsecond, Bandwidth: 2.5}
}

// SSD is one simulated NVMe device.
type SSD struct {
	ep       *pcie.Endpoint
	engine   *sim.Engine
	media    Media
	capacity int64 // bytes
	// store is the media content, held in a sparse untimed Region so a
	// mostly-untouched multi-gigabyte SSD costs kilobytes, not its full
	// capacity, of host memory (timing comes from the media model, not
	// the store).
	store *mem.Region
	// xferBuf is the per-device DMA staging scratch, reused across
	// commands (the device serializes transfers internally).
	xferBuf []byte
	// compFree recycles completion events with their callbacks (see
	// netsim.delivery for the pattern).
	compFree []*compEvent

	// chans implements internal parallelism: commands are assigned
	// round-robin to NAND channels, each a fluid queue in time.
	chanFree []sim.Time
	next     int

	reads, writes           uint64
	bytesRead, bytesWritten uint64
}

// New creates a TLC-NAND SSD of the given capacity driven by engine.
func New(name string, engine *sim.Engine, capacity int64) *SSD {
	return NewWithMedia(name, engine, capacity, TLCNAND())
}

// NewWithMedia creates an SSD with a custom media profile.
func NewWithMedia(name string, engine *sim.Engine, capacity int64, media Media) *SSD {
	if capacity <= 0 || capacity%SectorSize != 0 {
		panic(fmt.Sprintf("ssdsim: bad capacity %d", capacity))
	}
	return &SSD{
		ep:       pcie.NewEndpoint(name, pcie.LinkConfig{Lanes: 4, Gen: 5}),
		engine:   engine,
		media:    media,
		capacity: capacity,
		store:    mem.NewRegion(name+"-media", 0, int(capacity), mem.Timing{}, nil),
		chanFree: make([]sim.Time, Parallelism),
	}
}

// AttachHostMemory points DMA at the host's buffer memory.
func (s *SSD) AttachHostMemory(m mem.Memory) { s.ep.AttachHostMemory(m) }

// Fail injects a device failure.
//
//lint:allow testonly TestVirtualSSDDeviceFailureReported and TestForwarderTracePinned fail the SSD under a VirtualSSD
func (s *SSD) Fail() { s.ep.Fail() }

// Repair clears it.
//
//lint:allow testonly TestForwarderTracePinned repairs the SSD it failed
func (s *SSD) Repair() { s.ep.Repair() }

// xfer returns the DMA staging scratch, grown to hold n bytes. The
// slice is reused by the next command; Submit consumes it before
// returning.
func (s *SSD) xfer(n int) []byte {
	if cap(s.xferBuf) < n {
		s.xferBuf = make([]byte, n)
	}
	return s.xferBuf[:n]
}

// compEvent is one scheduled completion, pooled with its callback so
// steady-state I/O does not allocate a closure per command.
type compEvent struct {
	s    *SSD
	done func(Completion)
	c    Completion
	fn   func()
}

// schedule fires done(c) at `at` through a recycled completion event.
func (s *SSD) schedule(at sim.Time, done func(Completion), c Completion) {
	var e *compEvent
	if k := len(s.compFree); k > 0 {
		e = s.compFree[k-1]
		s.compFree[k-1] = nil
		s.compFree = s.compFree[:k-1]
	} else {
		e = &compEvent{s: s}
		e.fn = e.run
	}
	e.done, e.c = done, c
	s.engine.At(at, e.fn)
}

// run recycles the event before invoking the callback, so a callback
// that submits new I/O can reuse it.
func (e *compEvent) run() {
	done, c := e.done, e.c
	e.done = nil
	e.s.compFree = append(e.s.compFree, e)
	done(c)
}

func (s *SSD) check(lba int64, n int) error {
	if n <= 0 || n%SectorSize != 0 {
		return fmt.Errorf("%w: %d", ErrBadLength, n)
	}
	if lba < 0 || lba%SectorSize != 0 || lba+int64(n) > s.capacity {
		return fmt.Errorf("%w: lba=%d len=%d cap=%d", ErrOutOfRange, lba, n, s.capacity)
	}
	return nil
}

// nandTime schedules n bytes of NAND work on the least-loaded channel
// starting at now and returns its completion delay.
func (s *SSD) nandTime(now sim.Time, n int, idle sim.Duration) sim.Duration {
	ch := s.next % Parallelism
	s.next++
	start := now
	if s.chanFree[ch] > start {
		start = s.chanFree[ch]
	}
	// Per-channel bandwidth is the device bandwidth divided across
	// channels.
	per := s.media.Bandwidth / Parallelism
	busy := idle + per.TransferTime(n)
	s.chanFree[ch] = start + busy
	return (start - now) + busy
}

// Submit issues a command. The data path is: NAND access (queued on an
// internal channel) plus DMA between the device and the host buffer at
// bufAddr. done is invoked at completion time with the result.
func (s *SSD) Submit(now sim.Time, op Op, lba int64, n int, bufAddr mem.Address, done func(Completion)) error {
	if err := s.check(lba, n); err != nil {
		return err
	}
	if s.ep.Failed() {
		return fmt.Errorf("%w", pcie.ErrDeviceFailed)
	}
	switch op {
	case OpRead:
		nand := s.nandTime(now, n, s.media.ReadLatency)
		buf := s.xfer(n)
		_ = s.store.Peek(mem.Address(lba), buf)
		dma, err := s.ep.DMAWrite(now+nand, bufAddr, buf)
		if err != nil {
			return err
		}
		total := nand + dma
		s.reads++
		s.bytesRead += uint64(n)
		s.schedule(now+total, done, Completion{Op: op, LBA: lba, Len: n, Latency: total})
	case OpWrite:
		buf := s.xfer(n)
		dma, err := s.ep.DMARead(now, bufAddr, buf)
		if err != nil {
			return err
		}
		_ = s.store.Poke(mem.Address(lba), buf)
		nand := s.nandTime(now+dma, n, s.media.WriteLatency)
		total := dma + nand
		s.writes++
		s.bytesWritten += uint64(n)
		s.schedule(now+total, done, Completion{Op: op, LBA: lba, Len: n, Latency: total})
	default:
		return fmt.Errorf("ssdsim: unknown op %d", op)
	}
	return nil
}
