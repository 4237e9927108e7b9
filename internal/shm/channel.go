// Package shm builds software-coherent shared-memory primitives on top
// of non-coherent CXL pool memory: message channels and
// seqlock-published records.
//
// This is the §4.1 substrate of the paper: "We prototype a
// shared-memory communication channel in shared CXL memory. The channel
// is implemented as a ring buffer, with each message slot sized at 64 B
// to match the cacheline granularity. It manages cache coherence in
// software by using non-temporal stores to send messages."
//
// Senders publish slots with NT stores (cache.Cache.NTStore); receivers
// poll with invalidate+read (cache.Cache.ReadFresh). No primitive here
// assumes hardware cross-host coherence.
package shm

import (
	"encoding/binary"
	"errors"
	"fmt"

	"cxlpool/internal/cache"
	"cxlpool/internal/mem"
	"cxlpool/internal/sim"
)

// SlotSize is the ring slot size: one cacheline (§4.1).
const SlotSize = mem.CachelineSize

// slotHeaderSize is seq(4) + length(2) + flags(2).
const slotHeaderSize = 8

// MaxPayload is the largest single-slot message payload.
const MaxPayload = SlotSize - slotHeaderSize

// Channel layout constants: line 0 is reserved (channel magic/config),
// line 1 is the consumer's published cursor, slots follow.
const (
	ctrlLines    = 2
	consumerLine = 1
)

// Errors returned by channel operations.
var (
	ErrChannelFull = errors.New("shm: channel full (receiver lagging)")
	ErrTooLarge    = fmt.Errorf("shm: payload exceeds %d bytes", MaxPayload)
	ErrCorrupt     = errors.New("shm: channel corrupted")
)

// Channel describes a single-producer single-consumer ring in shared CXL
// memory. Create one with NewChannel, then bind each side with
// Sender/Receiver using the respective host's cache.
type Channel struct {
	base     mem.Address
	slots    int
	slotSize int
}

// Footprint returns the shared-memory bytes needed for a channel with
// the given slot count (default slot size).
func Footprint(slots int) int { return (slots + ctrlLines) * SlotSize }

// FootprintSlotSize is Footprint for a custom slot size.
func FootprintSlotSize(slots, slotSize int) int {
	return slots*slotSize + ctrlLines*SlotSize
}

// NewChannel lays out a channel with the given ring size at base (which
// must be cacheline-aligned shared pool memory) and the paper's 64 B
// slots.
func NewChannel(base mem.Address, slots int) (*Channel, error) {
	return NewChannelSlotSize(base, slots, SlotSize)
}

// NewChannelSlotSize lays out a channel with a custom slot size
// (multiple of the cacheline size) — the E9 slot-size ablation. The
// paper picks one cacheline "to match the cacheline granularity";
// bigger slots carry bigger payloads at proportionally higher per-
// message cost.
func NewChannelSlotSize(base mem.Address, slots, slotSize int) (*Channel, error) {
	if base%SlotSize != 0 {
		return nil, fmt.Errorf("shm: channel base %#x not cacheline aligned", uint64(base))
	}
	if slots < 2 {
		return nil, errors.New("shm: channel needs at least 2 slots")
	}
	if slotSize < SlotSize || slotSize%mem.CachelineSize != 0 {
		return nil, fmt.Errorf("shm: slot size %d must be a positive cacheline multiple", slotSize)
	}
	return &Channel{base: base, slots: slots, slotSize: slotSize}, nil
}

// Base returns the channel's base address.
func (ch *Channel) Base() mem.Address { return ch.base }

// MaxPayload returns the largest payload one slot carries.
func (ch *Channel) MaxPayload() int { return ch.slotSize - slotHeaderSize }

func (ch *Channel) slotAddr(seq uint64) mem.Address {
	return ch.base + ctrlLines*SlotSize +
		mem.Address(int(seq%uint64(ch.slots))*ch.slotSize)
}

func (ch *Channel) consumerAddr() mem.Address {
	return ch.base + consumerLine*SlotSize
}

// SendMode selects how a Sender publishes slots — the E9 coherence
// ablation. ModeNT is the paper's design; ModeWriteFlush is the
// CLFLUSH-based alternative; ModeWriteOnly is deliberately broken on
// non-coherent pools (messages sit in the sender's cache) and exists to
// demonstrate why software coherence is required at all.
type SendMode int

const (
	// ModeNT publishes with a non-temporal store (the paper's choice).
	ModeNT SendMode = iota
	// ModeWriteFlush publishes with a cached write followed by CLFLUSH.
	ModeWriteFlush
	// ModeWriteOnly performs only a cached write: INCORRECT on
	// non-coherent CXL pools, for ablation/testing.
	ModeWriteOnly
)

// String names the mode for benchmark output.
func (m SendMode) String() string {
	switch m {
	case ModeNT:
		return "ntstore"
	case ModeWriteFlush:
		return "write+clflush"
	case ModeWriteOnly:
		return "write-only(broken)"
	default:
		return "unknown"
	}
}

// Sender is the producing side of a channel, bound to one host's cache.
type Sender struct {
	ch    *Channel
	cache *cache.Cache
	// Mode selects the publish strategy (default ModeNT).
	Mode SendMode
	next uint64 // next sequence number to send (first message is 1)
	// consumedCache is the last consumer cursor we observed; refreshed
	// from shared memory only when the ring looks full, so the common
	// send path is a single NT store.
	consumedCache uint64
	sent          uint64
	fullEvents    uint64
	// slot is the per-endpoint scratch buffer the outgoing slot image is
	// assembled in; reused across Sends so the steady-state send path
	// does not allocate.
	slot []byte
	// cursor stages consumer-cursor reads; a local array would escape
	// through the cache's Memory interface on every full-ring check.
	cursor [8]byte
}

// NewSender binds the producing side to a host cache.
func (ch *Channel) NewSender(c *cache.Cache) *Sender {
	return &Sender{ch: ch, cache: c}
}

// Send publishes payload as one 64 B slot using a non-temporal store and
// returns the simulated time until the message is globally visible.
// If the ring is full it refreshes the consumer cursor once; if still
// full it returns ErrChannelFull and the latency spent discovering that.
func (s *Sender) Send(now sim.Time, payload []byte) (sim.Duration, error) {
	if len(payload) > s.ch.MaxPayload() {
		return 0, ErrTooLarge
	}
	var spent sim.Duration
	if s.next+1-s.consumedCache > uint64(s.ch.slots) {
		// Ring looks full: refresh the consumer's published cursor.
		d, err := s.cache.ReadFresh(now, s.ch.consumerAddr(), s.cursor[:])
		if err != nil {
			return 0, err
		}
		spent += d
		s.consumedCache = binary.LittleEndian.Uint64(s.cursor[:])
		if s.next+1-s.consumedCache > uint64(s.ch.slots) {
			s.fullEvents++
			return spent, ErrChannelFull
		}
	}
	seq := s.next + 1
	if cap(s.slot) < s.ch.slotSize {
		s.slot = make([]byte, s.ch.slotSize)
	}
	slot := s.slot[:s.ch.slotSize]
	binary.LittleEndian.PutUint32(slot[0:4], uint32(seq)) // truncated seq; see Receiver
	binary.LittleEndian.PutUint16(slot[4:6], uint16(len(payload)))
	slot[6], slot[7] = 0, 0 // flags
	n := copy(slot[slotHeaderSize:], payload)
	for i := slotHeaderSize + n; i < len(slot); i++ {
		slot[i] = 0 // clear residue from the previous message
	}
	addr := s.ch.slotAddr(s.next)
	var d sim.Duration
	var err error
	switch s.Mode {
	case ModeNT:
		d, err = s.cache.NTStore(now+spent, addr, slot)
	case ModeWriteFlush:
		d, err = s.cache.Write(now+spent, addr, slot)
		if err == nil {
			var fd sim.Duration
			fd, err = s.cache.FlushRange(now+spent+d, addr, s.ch.slotSize)
			d += fd
		}
	case ModeWriteOnly:
		d, err = s.cache.Write(now+spent, addr, slot)
	default:
		return 0, fmt.Errorf("shm: unknown send mode %d", s.Mode)
	}
	if err != nil {
		return 0, err
	}
	s.next = seq
	s.sent++
	return spent + d, nil
}

// Receiver is the consuming side of a channel, bound to one host's cache.
type Receiver struct {
	ch    *Channel
	cache *cache.Cache
	next  uint64 // sequence expected next (first message is 1)
	// publishEvery controls how often the consumer cursor is NT-stored
	// back to shared memory for the sender's full-check. Publishing on
	// every message would double write traffic for no latency benefit.
	publishEvery uint64
	received     uint64
	emptyPolls   uint64
	// slot is the per-endpoint scratch buffer polled slot images land
	// in; reused across Polls so the steady-state poll path does not
	// allocate.
	slot []byte
	// cursor stages consumer-cursor publishes (see Sender.cursor).
	cursor [8]byte
}

// NewReceiver binds the consuming side to a host cache.
func (ch *Channel) NewReceiver(c *cache.Cache) *Receiver {
	every := uint64(ch.slots / 4)
	if every == 0 {
		every = 1
	}
	return &Receiver{ch: ch, cache: c, publishEvery: every}
}

// Poll checks for the next message. It returns (payload, latency, ok):
// ok=false means no message was ready (latency is still the cost of the
// failed check — polling non-coherent CXL memory is not free, which is
// exactly why the paper measures this channel).
//
// The returned payload is a freshly allocated slice the caller owns.
// Hot paths should prefer PollInto, which reuses a caller-owned buffer.
func (r *Receiver) Poll(now sim.Time) ([]byte, sim.Duration, bool, error) {
	return r.PollInto(now, nil)
}

// PollInto is Poll with caller-owned payload storage: the message
// payload is appended to buf (usually scratch[:0]) and the extended
// slice returned, so a receiver polling in a loop runs allocation-free.
// The returned slice aliases buf's array when capacity suffices; it is
// the caller's to reuse or retain.
//
// When ok is true and err is non-nil, the message WAS consumed — the
// payload and latency are valid — but publishing the consumer cursor
// back to shared memory failed. Dropping the payload in that case would
// lose a message the ring has already advanced past; callers should
// process it and then surface the error.
func (r *Receiver) PollInto(now sim.Time, buf []byte) ([]byte, sim.Duration, bool, error) {
	if cap(r.slot) < r.ch.slotSize {
		r.slot = make([]byte, r.ch.slotSize)
	}
	slot := r.slot[:r.ch.slotSize]
	d, err := r.cache.ReadFresh(now, r.ch.slotAddr(r.next), slot)
	if err != nil {
		return nil, 0, false, err
	}
	wantSeq := uint32(r.next + 1)
	if binary.LittleEndian.Uint32(slot[0:4]) != wantSeq {
		r.emptyPolls++
		return nil, d, false, nil
	}
	n := int(binary.LittleEndian.Uint16(slot[4:6]))
	if n > r.ch.MaxPayload() {
		return nil, d, false, fmt.Errorf("%w: slot length %d", ErrCorrupt, n)
	}
	payload := append(buf, slot[slotHeaderSize:slotHeaderSize+n]...)
	r.next++
	r.received++
	// Periodically publish the consumer cursor so the sender can reuse
	// slots. A publish failure must not lose the already-consumed
	// message: return it alongside the error (ok stays true).
	if r.received%r.publishEvery == 0 {
		binary.LittleEndian.PutUint64(r.cursor[:], r.next)
		pd, err := r.cache.NTStore(now+d, r.ch.consumerAddr(), r.cursor[:])
		if err != nil {
			return payload, d, true, err
		}
		d += pd
	}
	return payload, d, true, nil
}
