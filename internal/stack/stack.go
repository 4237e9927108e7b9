// Package stack implements a Junction-style kernel-bypass UDP stack over
// the simulated NIC, with a pluggable I/O buffer pool.
//
// The paper's Figure 3 experiment is, mechanically, a one-line change to
// a network stack: allocate TX/RX *buffers* (not queues) from CXL pool
// memory instead of local DDR5. This package expresses that as a
// BufferPool with two views — the CPU-side view and the DMA-side view —
// so the paper's exact topology is reproducible: "The NIC connects to
// socket0 and uses one ×8 CXL link. Junction runs on socket1 and uses
// the other ×8 CXL link."
package stack

import (
	"errors"
	"fmt"

	"cxlpool/internal/mem"
	"cxlpool/internal/metrics"
	"cxlpool/internal/nicsim"
	"cxlpool/internal/sim"
)

// Timing constants for the software stack.
const (
	// StackTraversal is the one-way software path length of the
	// kernel-bypass stack (syscall-free, but still scheduling, protocol
	// processing, and queue handoffs).
	StackTraversal sim.Duration = 2500
	// CPUPerPacket is the fixed per-packet worker occupancy (descriptor
	// handling, UDP/IP header processing, app callback). 230 ns ≈ a
	// 4.3 Mpps single-core ceiling, matching Figure 3(a)'s ~4 MOPS
	// saturation for 75 B payloads.
	CPUPerPacket sim.Duration = 230
	// CopyBandwidth is the CPU's streaming copy bandwidth, identical for
	// DDR- and CXL-resident buffers: the worker's occupancy is bound by
	// how fast the core moves bytes, while the *latency* of where the
	// bytes live is pipelined (prefetched) and therefore shows up in
	// completion time, not throughput.
	CopyBandwidth mem.GBps = 32
)

// BufferPool is I/O buffer memory with separate CPU-side and DMA-side
// views. For local DDR the views are the same region; for CXL pool
// placement they are two different ports of the same MHD.
type BufferPool struct {
	name  string
	cpu   mem.Memory
	dma   mem.Memory
	alloc *mem.Allocator
}

// NewBufferPool builds a pool over [base, base+size) with the given
// views.
func NewBufferPool(name string, cpuView, dmaView mem.Memory, base mem.Address, size int) *BufferPool {
	return &BufferPool{
		name:  name,
		cpu:   cpuView,
		dma:   dmaView,
		alloc: mem.NewAllocator(base, size),
	}
}

// Name returns the pool name ("ddr" or "cxl").
func (p *BufferPool) Name() string { return p.name }

// DMAView returns the device-side memory view for NIC attachment.
func (p *BufferPool) DMAView() mem.Memory { return p.dma }

// Alloc grabs a buffer.
func (p *BufferPool) Alloc(n int) (mem.Address, error) { return p.alloc.Alloc(n) }

// Free releases a buffer.
func (p *BufferPool) Free(a mem.Address) error { return p.alloc.Free(a) }

// ReadCPU reads a buffer from the CPU side (timed).
func (p *BufferPool) ReadCPU(now sim.Time, a mem.Address, buf []byte) (sim.Duration, error) {
	return p.cpu.ReadAt(now, a, buf)
}

// WriteCPU writes a buffer from the CPU side (timed).
func (p *BufferPool) WriteCPU(now sim.Time, a mem.Address, buf []byte) (sim.Duration, error) {
	return p.cpu.WriteAt(now, a, buf)
}

// pending is one scheduled step of the echo path with its argument.
// The struct and its callback are made once and recycled, so a
// per-packet step allocates nothing once the free-list is warm (the
// same pattern as netsim's frame deliveries).
type pending[T any] struct {
	q   *eventQueue[T]
	arg T
	fn  func()
}

// eventQueue schedules handle(now, arg) on the engine through recycled
// pending structs.
type eventQueue[T any] struct {
	engine *sim.Engine
	handle func(now sim.Time, arg T)
	free   []*pending[T]
}

// at schedules handle(t, arg) at time t.
func (q *eventQueue[T]) at(t sim.Time, arg T) {
	var p *pending[T]
	if k := len(q.free); k > 0 {
		p = q.free[k-1]
		q.free[k-1] = nil
		q.free = q.free[:k-1]
	} else {
		p = &pending[T]{q: q}
		p.fn = p.run
	}
	p.arg = arg
	q.engine.At(t, p.fn)
}

// run fires the step. The struct is cleared and recycled before the
// handler runs, so a handler that schedules the same step reuses it.
func (p *pending[T]) run() {
	q, arg := p.q, p.arg
	var zero T
	p.arg = zero
	q.free = append(q.free, p)
	q.handle(q.engine.Now(), arg)
}

// Server is a single-worker UDP echo server (the paper's
// microbenchmark server).
type Server struct {
	engine *sim.Engine
	nic    *nicsim.NIC
	pool   *BufferPool

	bufSize int
	// workerFree tracks each worker core's next-free time; requests go
	// to the earliest-free core. The paper's testbed uses a single
	// Junction core; extra workers are for the scaling ablation.
	workerFree []sim.Time
	// reqBuf is the per-server request staging scratch (grow-once).
	reqBuf []byte

	// inbound runs each RX completion after the ingress traversal;
	// outbound transmits each echo after the egress traversal.
	inbound  eventQueue[nicsim.RxCompletion]
	outbound eventQueue[echoReply]

	served   uint64
	rxErrors uint64

	// ServiceTime records per-request worker occupancy for diagnostics.
	ServiceTime *metrics.Recorder
}

// NewServer wires an echo server to a NIC and buffer pool, posting
// ringDepth RX buffers of bufSize bytes, with one worker core.
func NewServer(engine *sim.Engine, nic *nicsim.NIC, pool *BufferPool, bufSize, ringDepth int) (*Server, error) {
	return NewServerWorkers(engine, nic, pool, bufSize, ringDepth, 1)
}

// NewServerWorkers is NewServer with a configurable worker-core count.
func NewServerWorkers(engine *sim.Engine, nic *nicsim.NIC, pool *BufferPool, bufSize, ringDepth, workers int) (*Server, error) {
	if bufSize <= 0 || ringDepth <= 0 {
		return nil, errors.New("stack: bufSize and ringDepth must be positive")
	}
	if workers <= 0 {
		return nil, errors.New("stack: need at least one worker")
	}
	s := &Server{
		engine:      engine,
		nic:         nic,
		pool:        pool,
		bufSize:     bufSize,
		workerFree:  make([]sim.Time, workers),
		ServiceTime: metrics.NewRecorder(4096),
	}
	s.inbound = eventQueue[nicsim.RxCompletion]{engine: engine, handle: s.process}
	s.outbound = eventQueue[echoReply]{engine: engine, handle: s.transmit}
	nic.AttachHostMemory(pool.DMAView())
	for i := 0; i < ringDepth; i++ {
		addr, err := pool.Alloc(bufSize)
		if err != nil {
			return nil, fmt.Errorf("stack: posting RX ring: %w", err)
		}
		if err := nic.PostRxBuffer(addr, bufSize); err != nil {
			return nil, err
		}
	}
	nic.OnReceive(s.onReceive)
	return s, nil
}

// Served returns the number of echoed requests.
func (s *Server) Served() uint64 { return s.served }

// echoReply is a prepared response: its TX buffer and the request it
// answers.
type echoReply struct {
	txAddr mem.Address
	req    nicsim.RxCompletion
}

// onReceive handles an RX completion: schedule the worker.
func (s *Server) onReceive(now sim.Time, c nicsim.RxCompletion) {
	// Ingress stack traversal, then worker processing.
	s.inbound.at(now+StackTraversal, c)
}

// process runs the echo application on the earliest-free worker core.
func (s *Server) process(now sim.Time, c nicsim.RxCompletion) {
	worker := 0
	for i := range s.workerFree {
		if s.workerFree[i] < s.workerFree[worker] {
			worker = i
		}
	}
	start := now
	if s.workerFree[worker] > start {
		start = s.workerFree[worker]
	}
	// Read the request payload (CPU-side view; the latency difference
	// between DDR and CXL placement appears here and is pipelined).
	// reqBuf is per-server scratch: req is consumed within this call
	// (the echo's WriteCPU below), never retained.
	if cap(s.reqBuf) < c.Len {
		s.reqBuf = make([]byte, c.Len)
	}
	req := s.reqBuf[:c.Len]
	rd, err := s.pool.ReadCPU(start, c.Addr, req)
	if err != nil {
		s.drop(c)
		return
	}
	// Prepare the response in a fresh TX buffer.
	txAddr, err := s.pool.Alloc(c.Len)
	if err != nil {
		// Out of buffer memory.
		s.drop(c)
		return
	}
	wr, err := s.pool.WriteCPU(start+rd, txAddr, req)
	if err != nil {
		_ = s.pool.Free(txAddr) // just allocated above: cannot be a bad free
		s.drop(c)
		return
	}
	// Worker occupancy: fixed CPU cost + streaming copy of the payload
	// in and out. Identical for DDR and CXL pools — the binding resource
	// is the core, not the buffer's home (§4.1: "maximum throughput is
	// also not affected").
	occupancy := CPUPerPacket + CopyBandwidth.TransferTime(2*c.Len)
	s.workerFree[worker] = start + occupancy
	s.ServiceTime.Record(float64(occupancy))
	// This packet's completion additionally pays the (pipelined) memory
	// latency of its own buffer accesses.
	done := start + occupancy + rd + wr
	s.outbound.at(done+StackTraversal, echoReply{txAddr: txAddr, req: c})
}

// drop discards a request the worker could not echo (counted) and
// reposts its RX buffer. The buffer came off the ring, so the ring has
// room for it.
func (s *Server) drop(c nicsim.RxCompletion) {
	s.rxErrors++
	_ = s.nic.PostRxBuffer(c.Addr, s.bufSize)
}

// transmit sends a prepared echo and recycles both of its buffers.
func (s *Server) transmit(now sim.Time, r echoReply) {
	if _, err := s.nic.Transmit(now, r.txAddr, r.req.Len, r.req.Src, r.req.Stamp); err != nil {
		s.rxErrors++
	}
	// Transmit DMA-read the TX buffer synchronously; both buffers
	// can be recycled now.
	_ = s.pool.Free(r.txAddr)
	_ = s.nic.PostRxBuffer(r.req.Addr, s.bufSize)
	s.served++
}

// Client is an open-loop UDP load generator measuring RTT percentiles,
// mirroring the paper's client host with DDR-resident buffers.
type Client struct {
	engine *sim.Engine
	nic    *nicsim.NIC
	pool   *BufferPool
	rng    *sim.Rand

	dst     string
	payload int
	// pattern is the request payload, identical for every send; built
	// once instead of per packet.
	pattern []byte

	// outbound transmits each request after the egress traversal;
	// inbound records each response after the ingress traversal.
	outbound eventQueue[clientRequest]
	inbound  eventQueue[nicsim.RxCompletion]

	sent      uint64
	responses uint64

	// Window, when nonzero, is the end of the measurement window:
	// responses arriving later are still drained but not counted toward
	// windowed throughput. Open-loop benchmarks past saturation would
	// otherwise credit backlogged deliveries to the window.
	Window            sim.Time
	responsesInWindow uint64

	// RTT holds round-trip samples in nanoseconds.
	RTT *metrics.Recorder
}

// NewClient builds a load generator with ringDepth posted RX buffers.
func NewClient(engine *sim.Engine, nic *nicsim.NIC, pool *BufferPool, dst string, payload, ringDepth int, rng *sim.Rand) (*Client, error) {
	if payload <= 0 || payload > nicsim.MTU {
		return nil, fmt.Errorf("stack: invalid payload %d", payload)
	}
	c := &Client{
		engine:  engine,
		nic:     nic,
		pool:    pool,
		rng:     rng,
		dst:     dst,
		payload: payload,
		pattern: make([]byte, payload),
		RTT:     metrics.NewRecorder(1 << 16),
	}
	c.outbound = eventQueue[clientRequest]{engine: engine, handle: c.transmit}
	c.inbound = eventQueue[nicsim.RxCompletion]{engine: engine, handle: c.record}
	for i := range c.pattern {
		c.pattern[i] = byte(i)
	}
	nic.AttachHostMemory(pool.DMAView())
	for i := 0; i < ringDepth; i++ {
		addr, err := pool.Alloc(payload)
		if err != nil {
			return nil, err
		}
		if err := nic.PostRxBuffer(addr, payload); err != nil {
			return nil, err
		}
	}
	nic.OnReceive(c.onReceive)
	return c, nil
}

// Sent and Responses report the request/response counts.
func (c *Client) Sent() uint64 { return c.sent }

// Responses returns the number of responses received.
func (c *Client) Responses() uint64 { return c.responses }

// ResponsesInWindow returns responses that arrived before Window (all
// responses when Window is zero).
func (c *Client) ResponsesInWindow() uint64 {
	if c.Window == 0 {
		return c.responses
	}
	return c.responsesInWindow
}

// Start generates Poisson arrivals at ratePPS for the given duration of
// simulated time, beginning at start. Each call is an independent
// stream.
func (c *Client) Start(start sim.Time, ratePPS float64, duration sim.Duration) {
	if ratePPS <= 0 {
		return
	}
	a := &arrivals{c: c, meanGap: sim.Duration(1e9 / ratePPS), end: start + duration}
	a.fn = a.run
	c.engine.At(start, a.fn)
}

// arrivals is one Start call's arrival stream: a single struct, with
// its callback bound once, rescheduled for every arrival.
type arrivals struct {
	c       *Client
	meanGap sim.Duration
	end     sim.Time
	fn      func()
}

// run sends the request due now and schedules the next arrival.
func (a *arrivals) run() {
	c := a.c
	t := c.engine.Now()
	c.sendOne(t)
	if next := t + c.rng.Exp(a.meanGap); next < a.end {
		c.engine.At(next, a.fn)
	}
}

// clientRequest is a request written to its TX buffer, waiting for the
// egress traversal.
type clientRequest struct {
	addr mem.Address
	// stamp is the request-initiation time, carried for RTT.
	stamp sim.Time
}

// sendOne issues one request at time t.
func (c *Client) sendOne(t sim.Time) {
	addr, err := c.pool.Alloc(c.payload)
	if err != nil {
		return // client out of buffers; open-loop drop
	}
	wr, err := c.pool.WriteCPU(t, addr, c.pattern)
	if err != nil {
		_ = c.pool.Free(addr)
		return
	}
	c.outbound.at(t+wr+StackTraversal, clientRequest{addr: addr, stamp: t})
}

// transmit puts a request on the wire and frees its TX buffer.
func (c *Client) transmit(now sim.Time, r clientRequest) {
	if _, err := c.nic.Transmit(now, r.addr, c.payload, c.dst, r.stamp); err == nil {
		c.sent++
	}
	_ = c.pool.Free(r.addr)
}

// onReceive schedules a response's ingress traversal.
func (c *Client) onReceive(now sim.Time, comp nicsim.RxCompletion) {
	c.inbound.at(now+StackTraversal, comp)
}

// record counts a response, records its RTT and reposts its buffer.
func (c *Client) record(now sim.Time, comp nicsim.RxCompletion) {
	c.responses++
	if c.Window == 0 || now <= c.Window {
		c.responsesInWindow++
	}
	c.RTT.Record(float64(now - comp.Stamp))
	_ = c.nic.PostRxBuffer(comp.Addr, c.payload)
}
