package shm

import (
	"encoding/binary"
	"errors"

	"cxlpool/internal/cache"
	"cxlpool/internal/mem"
	"cxlpool/internal/sim"
)

// SeqRecord publishes a fixed-size record (up to one cacheline of
// payload) from one writer to many readers using a seqlock: the writer
// bumps a sequence to odd, writes the payload, bumps to even; readers
// retry if they observe an odd or changing sequence. All writer stores
// are non-temporal so the record is immediately visible across hosts.
//
// The pooling agents use SeqRecords to publish per-device health and
// load to the orchestrator (§4.2).
type SeqRecord struct {
	addr mem.Address // 2 cachelines: [0]=seq, [1]=payload
}

// SeqRecordFootprint is the shared-memory cost of one record.
const SeqRecordFootprint = 2 * mem.CachelineSize

// MaxRecordSize is the largest payload a SeqRecord can hold.
const MaxRecordSize = mem.CachelineSize

// NewSeqRecord places a record at addr (cacheline aligned, 2 lines).
func NewSeqRecord(addr mem.Address) (*SeqRecord, error) {
	if addr%mem.CachelineSize != 0 {
		return nil, errors.New("shm: record address not cacheline aligned")
	}
	return &SeqRecord{addr: addr}, nil
}

// Publish writes the payload and returns when it is globally visible.
func (s *SeqRecord) Publish(now sim.Time, c *cache.Cache, payload []byte) (sim.Duration, error) {
	if len(payload) > MaxRecordSize {
		return 0, ErrTooLarge
	}
	var seqLine [mem.CachelineSize]byte
	// Read current seq (from our own view; single writer).
	d, err := c.ReadFresh(now, s.addr, seqLine[:8])
	if err != nil {
		return 0, err
	}
	seq := binary.LittleEndian.Uint64(seqLine[:8])
	// Odd: write in progress.
	binary.LittleEndian.PutUint64(seqLine[:8], seq+1)
	wd, err := c.NTStore(now+d, s.addr, seqLine[:8])
	if err != nil {
		return 0, err
	}
	d += wd
	var body [mem.CachelineSize]byte
	copy(body[:], payload)
	wd, err = c.NTStore(now+d, s.addr+mem.CachelineSize, body[:])
	if err != nil {
		return 0, err
	}
	d += wd
	binary.LittleEndian.PutUint64(seqLine[:8], seq+2)
	wd, err = c.NTStore(now+d, s.addr, seqLine[:8])
	if err != nil {
		return 0, err
	}
	return d + wd, nil
}

// Read returns a consistent snapshot of the record, retrying while a
// write is in flight. maxRetries bounds the spin (0 means 16).
func (s *SeqRecord) Read(now sim.Time, c *cache.Cache, maxRetries int) ([]byte, sim.Duration, error) {
	if maxRetries <= 0 {
		maxRetries = 16
	}
	var total sim.Duration
	for i := 0; i < maxRetries; i++ {
		var seqLine [8]byte
		d, err := c.ReadFresh(now+total, s.addr, seqLine[:])
		if err != nil {
			return nil, 0, err
		}
		total += d
		seq1 := binary.LittleEndian.Uint64(seqLine[:])
		if seq1%2 == 1 {
			continue // writer mid-update
		}
		body := make([]byte, mem.CachelineSize)
		d, err = c.ReadFresh(now+total, s.addr+mem.CachelineSize, body)
		if err != nil {
			return nil, 0, err
		}
		total += d
		d, err = c.ReadFresh(now+total, s.addr, seqLine[:])
		if err != nil {
			return nil, 0, err
		}
		total += d
		if binary.LittleEndian.Uint64(seqLine[:]) == seq1 {
			return body, total, nil
		}
	}
	return nil, total, errors.New("shm: seqlock read starved")
}
