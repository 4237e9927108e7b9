package netsim

import (
	"testing"

	"cxlpool/internal/sim"
)

type sink struct {
	got []*Packet
	at  []sim.Time
}

func (s *sink) FromWire(now sim.Time, p *Packet) {
	s.got = append(s.got, p)
	s.at = append(s.at, now)
}

func TestWireBytes(t *testing.T) {
	if WireBytes(75) != 75+66 {
		t.Fatalf("WireBytes(75) = %d", WireBytes(75))
	}
}

func TestFabricDelivery(t *testing.T) {
	e := sim.NewEngine(1)
	f := NewFabric("tor", e)
	var a, b sink
	if err := f.Attach("a", 12.5, &a); err != nil {
		t.Fatal(err)
	}
	if err := f.Attach("b", 12.5, &b); err != nil {
		t.Fatal(err)
	}
	p := &Packet{Src: "a", Dst: "b", Payload: []byte("hello"), Stamp: 0, Seq: 1}
	if err := f.Inject(0, p); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(b.got) != 1 || string(b.got[0].Payload) != "hello" {
		t.Fatalf("delivery failed: %+v", b.got)
	}
	// Delivery time: 2 propagations + forward + serialization.
	minLat := 2*DefaultPropagation + DefaultForwardLatency
	if b.at[0] <= minLat {
		t.Fatalf("arrival %v too early (floor %v)", b.at[0], minLat)
	}
	if p := f.ports["b"]; p.forwarded != 1 || p.drops != 0 {
		t.Fatalf("port stats fw=%d dr=%d", p.forwarded, p.drops)
	}
}

func TestFabricUnknownDst(t *testing.T) {
	e := sim.NewEngine(1)
	f := NewFabric("tor", e)
	if err := f.Inject(0, &Packet{Dst: "ghost"}); err == nil {
		t.Fatal("unknown destination accepted")
	}
}

func TestFabricEgressSerialization(t *testing.T) {
	e := sim.NewEngine(1)
	f := NewFabric("tor", e)
	var b sink
	if err := f.Attach("b", 1, &b); err != nil { // 1 GB/s: slow port
		t.Fatal(err)
	}
	big := make([]byte, 9000)
	for i := 0; i < 3; i++ {
		if err := f.Inject(0, &Packet{Dst: "b", Payload: big, Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(b.at) != 3 {
		t.Fatalf("delivered %d", len(b.at))
	}
	// Each frame takes 9066ns on a 1 GB/s egress; spacing must be >= that.
	gap1 := b.at[1] - b.at[0]
	gap2 := b.at[2] - b.at[1]
	if gap1 < 9000 || gap2 < 9000 {
		t.Fatalf("frames not serialized: gaps %v %v", gap1, gap2)
	}
}

func TestFabricFailureDropsEverything(t *testing.T) {
	e := sim.NewEngine(1)
	f := NewFabric("tor", e)
	var b sink
	if err := f.Attach("b", 12.5, &b); err != nil {
		t.Fatal(err)
	}
	f.Fail()
	if !f.down {
		t.Fatal("failed fabric not down")
	}
	if err := f.Inject(0, &Packet{Dst: "b", Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(b.got) != 0 {
		t.Fatal("failed fabric delivered a frame")
	}
	if drops(f) != 1 {
		t.Fatalf("drops = %d", drops(f))
	}
	f.Repair()
	if err := f.Inject(e.Now(), &Packet{Dst: "b", Payload: []byte("y")}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(b.got) != 1 {
		t.Fatal("repaired fabric did not deliver")
	}
}

func TestFabricMidFlightFailure(t *testing.T) {
	e := sim.NewEngine(1)
	f := NewFabric("tor", e)
	var b sink
	if err := f.Attach("b", 12.5, &b); err != nil {
		t.Fatal(err)
	}
	if err := f.Inject(0, &Packet{Dst: "b", Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	// Fail the switch before the frame arrives.
	e.At(1, func() { f.Fail() })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(b.got) != 0 {
		t.Fatal("frame survived a mid-flight switch failure")
	}
}

func TestFabricTailDrop(t *testing.T) {
	e := sim.NewEngine(1)
	f := NewFabric("tor", e)
	f.MaxQueueDelay = 1000 // 1us of buffering only
	var b sink
	if err := f.Attach("b", 1, &b); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 9000) // ~9us serialization each
	for i := 0; i < 5; i++ {
		if err := f.Inject(0, &Packet{Dst: "b", Payload: big}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if drops(f) == 0 {
		t.Fatal("no tail drops despite overload")
	}
	if len(b.got) == 0 {
		t.Fatal("everything dropped")
	}
}

func TestFabricDuplicateAttach(t *testing.T) {
	e := sim.NewEngine(1)
	f := NewFabric("tor", e)
	var b sink
	if err := f.Attach("b", 12.5, &b); err != nil {
		t.Fatal(err)
	}
	if err := f.Attach("b", 12.5, &b); err == nil {
		t.Fatal("duplicate attach accepted")
	}
	if err := f.Attach("c", 0, &b); err == nil {
		t.Fatal("zero-rate attach accepted")
	}
}

// Sustained overload: per-port drops grow monotonically with offered
// load, and every injected frame is accounted exactly once —
// forwarded + dropped always equals frames injected.
func TestTailDropAccountingConserved(t *testing.T) {
	e := sim.NewEngine(1)
	f := NewFabric("tor", e)
	f.MaxQueueDelay = 1000 // 1us of buffering at a 1 GB/s port
	var b sink
	if err := f.Attach("b", 1, &b); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 9000) // ~9us serialization each
	injected := uint64(0)
	lastDrops := uint64(0)
	for round := 0; round < 4; round++ {
		for i := 0; i < 8; i++ {
			if err := f.Inject(sim.Time(round), &Packet{Dst: "b", Payload: big}); err != nil {
				t.Fatal(err)
			}
			injected++
		}
		fw, dr := f.ports["b"].forwarded, f.ports["b"].drops
		if dr < lastDrops {
			t.Fatalf("round %d: drops went backwards (%d -> %d)", round, lastDrops, dr)
		}
		lastDrops = dr
		if fw+dr != injected {
			t.Fatalf("round %d: forwarded %d + dropped %d != injected %d", round, fw, dr, injected)
		}
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	fw, dr := f.ports["b"].forwarded, f.ports["b"].drops
	if dr == 0 {
		t.Fatal("sustained overload produced no tail drops")
	}
	if fw+dr != injected {
		t.Fatalf("final: forwarded %d + dropped %d != injected %d", fw, dr, injected)
	}
	if uint64(len(b.got)) != fw {
		t.Fatalf("deliveries %d != forwarded %d", len(b.got), fw)
	}
	if drops(f) != dr {
		t.Fatalf("fabric drop total %d != port drops %d", drops(f), dr)
	}
}

// drops totals the tail-dropped frames on all of f's egress ports.
func drops(f *Fabric) uint64 {
	var n uint64
	for _, p := range f.ports {
		n += p.drops
	}
	return n
}
