package cxl

import (
	"errors"
	"fmt"

	"cxlpool/internal/mem"
	"cxlpool/internal/sim"
)

// Errors returned by pool construction and access.
var (
	ErrNoPorts      = errors.New("cxl: device has no free ports")
	ErrBadPort      = errors.New("cxl: invalid port")
	ErrNotAttached  = errors.New("cxl: host not attached to pool")
	ErrPoolExceeded = errors.New("cxl: allocation exceeds pool capacity")
)

// Link models one CXL link: a bandwidth-limited, latency-adding channel
// between a host root port and a device port. Each direction is
// serialized independently in real hardware; for the access patterns in
// this repository (request/response pairs) a single busy pointer per
// direction is sufficient.
type Link struct {
	propag sim.Duration // per-crossing propagation/flit latency
	// bps is the bandwidth in bytes per second, float64(bandwidth)*1e9,
	// and xfer64/xfer256 the transfer times of a 64 B request flit and a
	// 256 B interleave stripe. They are computed once, by the same float
	// operations mem.GBps performs, so every result has the same bits.
	bps     float64
	xfer64  sim.Duration
	xfer256 sim.Duration
	// Fluid queues per direction (see mem.Region.access for why fluid).
	backlogTx float64
	backlogRx float64
	drainTx   sim.Time
	drainRx   sim.Time
	bytesTx   uint64
	bytesRx   uint64
	congested uint64 // accesses that queued
}

// NewLink creates a link with the given shape. propagation is the
// one-way flit latency of the link itself (port + retimer + cable),
// folded into the idle latency constants when composing with media.
func NewLink(cfg LinkConfig, propagation sim.Duration) *Link {
	if cfg.Lanes <= 0 {
		panic("cxl: link with no lanes")
	}
	bw := cfg.Bandwidth()
	return &Link{
		propag:  propagation,
		bps:     float64(bw) * 1e9,
		xfer64:  bw.TransferTime(mem.CachelineSize),
		xfer256: bw.TransferTime(InterleaveGranularity),
	}
}

// transferTime is mem.GBps.TransferTime at the link's bandwidth.
func (l *Link) transferTime(n int) sim.Duration {
	switch {
	case n == mem.CachelineSize:
		return l.xfer64
	case n == InterleaveGranularity:
		return l.xfer256
	case n <= 0:
		return 0
	}
	return sim.Duration(float64(n) / l.bps * 1e9)
}

// fluid advances a fluid queue and returns the queueing delay for a new
// transfer of n bytes at time now.
func (l *Link) fluid(backlog *float64, drain *sim.Time, now sim.Time, n int) sim.Duration {
	if now > *drain {
		// mem.GBps.Bytes at the link's bandwidth.
		*backlog -= float64(int64(l.bps * float64(now-*drain) / 1e9))
		if *backlog < 0 {
			*backlog = 0
		}
		*drain = now
	}
	q := l.transferTime(int(*backlog))
	*backlog += float64(n)
	return q
}

// sendTime serializes n bytes in the host→device direction starting at
// now and returns the added delay (queueing + serialization + propagation).
func (l *Link) sendTime(now sim.Time, n int) sim.Duration {
	q := l.fluid(&l.backlogTx, &l.drainTx, now, n)
	if q > 0 {
		l.congested++
	}
	l.bytesTx += uint64(n)
	return q + l.transferTime(n) + l.propag
}

// recvTime serializes n bytes in the device→host direction.
func (l *Link) recvTime(now sim.Time, n int) sim.Duration {
	q := l.fluid(&l.backlogRx, &l.drainRx, now, n)
	if q > 0 {
		l.congested++
	}
	l.bytesRx += uint64(n)
	return q + l.transferTime(n) + l.propag
}

// MHD is a multi-headed CXL memory device: one media region exposed
// through up to MaxMHDPorts independent CXL ports, each connectable to a
// different host (§3). The media region's idle latencies already include
// one direct link crossing, matching how the paper reports end-to-end
// CXL load-to-use latency.
type MHD struct {
	name   string
	media  *mem.Region
	ports  []*Link // nil when unconnected
	failed bool
}

// ErrDeviceFailed is returned for accesses to a failed MHD.
var ErrDeviceFailed = errors.New("cxl: device failed")

// NewMHD creates an MHD with size bytes of media and the given port
// count, based at base in the shared pool address map.
func NewMHD(name string, base mem.Address, size, ports int, rng *sim.Rand) *MHD {
	return newMHD(name, mem.NewRegion(name+"/media", base, size, mediaTiming, rng), ports)
}

// mediaTiming is the timing of MHD media.
var mediaTiming = mem.Timing{
	ReadLatency:  CXLIdleReadLatency,
	WriteLatency: CXLIdleWriteLatency,
	// Media bandwidth is typically provisioned to match aggregate
	// port bandwidth; per-port links are the binding constraint.
	Bandwidth: 0,
	Jitter:    12, // controller scheduling noise, keeps CDFs realistic
}

// newMHD creates an MHD over an existing media region.
func newMHD(name string, media *mem.Region, ports int) *MHD {
	if ports <= 0 || ports > MaxMHDPorts {
		panic(fmt.Sprintf("cxl: MHD %q with invalid port count %d (1..%d)", name, ports, MaxMHDPorts))
	}
	return &MHD{
		name:  name,
		media: media,
		ports: make([]*Link, ports),
	}
}

// Base returns the device's base address in the pool map.
func (d *MHD) Base() mem.Address { return d.media.Base() }

// Size returns the media capacity in bytes.
func (d *MHD) Size() int { return d.media.Size() }

// Connect attaches a link to the first free port and returns a PortView:
// the device's memory as seen through that port. Each host gets its own
// PortView so per-host link contention is modeled separately.
func (d *MHD) Connect(cfg LinkConfig) (*PortView, error) {
	for i, p := range d.ports {
		if p == nil {
			// Propagation is part of the composed idle latency constant,
			// so the link itself adds only serialization + queueing.
			l := NewLink(cfg, 0)
			d.ports[i] = l
			return &PortView{dev: d, port: i, link: l}, nil
		}
	}
	return nil, fmt.Errorf("%w: %s has %d ports, all connected", ErrNoPorts, d.name, len(d.ports))
}

// Disconnect frees a port (host hot-remove, §5 "operational implications").
func (d *MHD) Disconnect(port int) error {
	if port < 0 || port >= len(d.ports) {
		return fmt.Errorf("%w: %d", ErrBadPort, port)
	}
	if d.ports[port] == nil {
		return fmt.Errorf("%w: port %d not connected", ErrBadPort, port)
	}
	d.ports[port] = nil
	return nil
}

// PortView is an MHD's media seen through one port's link. It implements
// mem.Memory: reads cross the link twice (request + data return), writes
// once (posted).
type PortView struct {
	dev      *MHD
	port     int
	link     *Link
	detached bool
}

// Detach marks the view unusable (hot-removed host). Subsequent accesses
// fail with ErrNotAttached.
func (v *PortView) Detach() error {
	if v.detached {
		return ErrNotAttached
	}
	v.detached = true
	return v.dev.Disconnect(v.port)
}

// Contains reports whether the device media covers [a, a+size).
func (v *PortView) Contains(a mem.Address, size int) bool {
	return v.dev.media.Contains(a, size)
}

// ReadAt reads through the port: request over the link, media access,
// data return over the link.
func (v *PortView) ReadAt(now sim.Time, a mem.Address, buf []byte) (sim.Duration, error) {
	if v.detached {
		return 0, ErrNotAttached
	}
	if v.dev.failed {
		return 0, fmt.Errorf("%w: %s", ErrDeviceFailed, v.dev.name)
	}
	// Request flit: 64 B header-class transfer.
	d := v.link.sendTime(now, mem.CachelineSize)
	md, err := v.dev.media.ReadAt(now+d, a, buf)
	if err != nil {
		return 0, err
	}
	d += md
	d += v.link.recvTime(now+d, len(buf))
	return d, nil
}

// WriteAt writes through the port (posted write: data crosses the link,
// media latency covers acceptance).
func (v *PortView) WriteAt(now sim.Time, a mem.Address, buf []byte) (sim.Duration, error) {
	if v.detached {
		return 0, ErrNotAttached
	}
	if v.dev.failed {
		return 0, fmt.Errorf("%w: %s", ErrDeviceFailed, v.dev.name)
	}
	d := v.link.sendTime(now, len(buf))
	md, err := v.dev.media.WriteAt(now+d, a, buf)
	if err != nil {
		return 0, err
	}
	return d + md, nil
}

var _ mem.Memory = (*PortView)(nil)
