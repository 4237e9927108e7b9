package core

import (
	"encoding/binary"
	"errors"
	"testing"

	"cxlpool/internal/sim"
)

// flowRig: sender host0 with two vNICs (on host0's and host1's NICs),
// receiver on host2.
func flowRig(t *testing.T) (*Pod, *FlowSender, *FlowReceiver, *VirtualNIC, *VirtualNIC, *[]string) {
	t.Helper()
	p := newTestPod(t, 3)
	h0, _ := p.Host("host0")
	h1, _ := p.Host("host1")
	h2, _ := p.Host("host2")

	vA := NewVirtualNIC(h0, "vA", VNICConfig{BufSize: 2048, TxBuffers: 256})
	if _, err := vA.Bind(h0, "host0-nic0"); err != nil {
		t.Fatal(err)
	}
	vB := NewVirtualNIC(h0, "vB", VNICConfig{BufSize: 2048, TxBuffers: 256})
	if _, err := vB.Bind(h1, "host1-nic0"); err != nil {
		t.Fatal(err)
	}
	sink := NewVirtualNIC(h2, "sink", VNICConfig{BufSize: 2048, RxBuffers: 256})
	if _, err := sink.Bind(h2, "host2-nic0"); err != nil {
		t.Fatal(err)
	}

	var got []string
	fs := NewFlowSender(77, vA, "host2-nic0")
	fr := NewFlowReceiver(77, 0, func(_ sim.Time, data []byte) {
		got = append(got, string(data))
	})
	fr.Attach(sink)
	return p, fs, fr, vA, vB, &got
}

func TestFlowInOrderDelivery(t *testing.T) {
	p, fs, fr, _, _, got := flowRig(t)
	now := sim.Time(0)
	for i := 0; i < 20; i++ {
		d, err := fs.Send(now, []byte{'a' + byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		now += d + 5000
	}
	if _, err := p.Engine.RunUntil(now + 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 20 {
		t.Fatalf("delivered %d/20", len(*got))
	}
	for i, s := range *got {
		if s[0] != 'a'+byte(i) {
			t.Fatalf("out of order at %d: %q", i, s)
		}
	}
	delivered, _, dups := fr.Stats()
	if delivered != 20 || dups != 0 {
		t.Fatalf("stats delivered=%d dups=%d", delivered, dups)
	}
}

// The §5 scenario: migrate the stream to a different host's NIC
// mid-flight; the application sees a contiguous ordered stream.
func TestFlowSeamlessMigration(t *testing.T) {
	p, fs, fr, vA, vB, got := flowRig(t)
	now := sim.Time(0)
	const total = 40
	for i := 0; i < total; i++ {
		if i == total/2 {
			// Migrate WITHOUT draining: segments from the old path may
			// still be in flight.
			if err := fs.Migrate(vB); err != nil {
				t.Fatal(err)
			}
		}
		d, err := fs.Send(now, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		now += d + 2000
	}
	if _, err := p.Engine.RunUntil(now + 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(*got) != total {
		t.Fatalf("delivered %d/%d across migration", len(*got), total)
	}
	for i, s := range *got {
		if s[0] != byte(i) {
			t.Fatalf("stream reordered at %d after migration", i)
		}
	}
	if fs.migrations != 1 {
		t.Fatalf("migrations = %d", fs.migrations)
	}
	_, _, txA, _, _ := vA.Phys().Stats()
	_, _, txB, _, _ := vB.Phys().Stats()
	if txA == 0 || txB == 0 {
		t.Fatal("both paths should have carried traffic")
	}
	_ = fr
}

func TestFlowReceiverReordersExplicitly(t *testing.T) {
	var got []byte
	fr := NewFlowReceiver(5, 0, func(_ sim.Time, d []byte) { got = append(got, d[0]) })
	seg := func(seq uint64, b byte) []byte {
		buf := make([]byte, flowHeaderSize+1)
		binary.LittleEndian.PutUint64(buf[0:8], 5)
		binary.LittleEndian.PutUint64(buf[8:16], seq)
		binary.LittleEndian.PutUint32(buf[16:20], 1)
		buf[flowHeaderSize] = b
		return buf
	}
	// Deliver 2, 0, 1 -> app must see 0, 1, 2.
	if err := fr.Ingest(0, seg(2, 'C')); err != nil {
		t.Fatal(err)
	}
	if len(fr.buffered) != 1 {
		t.Fatalf("pending = %d", len(fr.buffered))
	}
	if err := fr.Ingest(0, seg(0, 'A')); err != nil {
		t.Fatal(err)
	}
	if err := fr.Ingest(0, seg(1, 'B')); err != nil {
		t.Fatal(err)
	}
	if string(got) != "ABC" {
		t.Fatalf("delivered %q", got)
	}
	_, reordered, _ := fr.Stats()
	if reordered != 1 {
		t.Fatalf("reordered = %d", reordered)
	}
}

func TestFlowReceiverDuplicatesAndForeignFlows(t *testing.T) {
	var got int
	fr := NewFlowReceiver(5, 0, func(_ sim.Time, _ []byte) { got++ })
	seg := func(id, seq uint64) []byte {
		buf := make([]byte, flowHeaderSize)
		binary.LittleEndian.PutUint64(buf[0:8], id)
		binary.LittleEndian.PutUint64(buf[8:16], seq)
		return buf
	}
	if err := fr.Ingest(0, seg(5, 0)); err != nil {
		t.Fatal(err)
	}
	if err := fr.Ingest(0, seg(5, 0)); err != nil { // stale duplicate
		t.Fatal(err)
	}
	if err := fr.Ingest(0, seg(9, 1)); err != nil { // foreign flow
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("delivered %d", got)
	}
	_, _, dups := fr.Stats()
	if dups != 1 {
		t.Fatalf("dups = %d", dups)
	}
	// Buffered duplicate.
	if err := fr.Ingest(0, seg(5, 3)); err != nil {
		t.Fatal(err)
	}
	if err := fr.Ingest(0, seg(5, 3)); err != nil {
		t.Fatal(err)
	}
	_, _, dups = fr.Stats()
	if dups != 2 {
		t.Fatalf("dups = %d", dups)
	}
}

func TestFlowReceiverOverflowAndMalformed(t *testing.T) {
	fr := NewFlowReceiver(5, 2, nil)
	seg := func(seq uint64) []byte {
		buf := make([]byte, flowHeaderSize)
		binary.LittleEndian.PutUint64(buf[0:8], 5)
		binary.LittleEndian.PutUint64(buf[8:16], seq)
		return buf
	}
	if err := fr.Ingest(0, seg(10)); err != nil {
		t.Fatal(err)
	}
	if err := fr.Ingest(0, seg(11)); err != nil {
		t.Fatal(err)
	}
	if err := fr.Ingest(0, seg(12)); !errors.Is(err, ErrFlowReorderOverflow) {
		t.Fatalf("err = %v", err)
	}
	if err := fr.Ingest(0, []byte("short")); err == nil {
		t.Fatal("short segment accepted")
	}
	bad := seg(0)
	binary.LittleEndian.PutUint32(bad[16:20], 999) // length beyond payload
	if err := fr.Ingest(0, bad); err == nil {
		t.Fatal("over-length segment accepted")
	}
}

func TestFlowMigrateValidation(t *testing.T) {
	_, fs, _, _, _, _ := flowRig(t)
	if err := fs.Migrate(nil); err == nil {
		t.Fatal("nil migration accepted")
	}
}
