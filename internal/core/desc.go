package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"cxlpool/internal/mem"
	"cxlpool/internal/sim"
)

// Descriptor types carried over the shared-memory channels. These are
// the "device memory operations forwarded from remote hosts to the
// local host where the devices are physically attached" of §4.1.
const (
	descTx     uint8 = 1 // user→owner: transmit buffer [addr,len] to dst
	descRepost uint8 = 2 // user→owner: return RX buffer to the device
	descRxComp uint8 = 3 // owner→user: packet landed in buffer [addr,len]
	descTxComp uint8 = 4 // owner→user: TX buffer [addr] is reusable
)

// descNameLen bounds the fabric-address strings carried in descriptors.
const descNameLen = 24

// descSize is the wire size of a descriptor; it must fit a channel slot
// payload (56 B).
const descSize = 48

// errNameTooLong reports an over-long fabric address.
var errNameTooLong = errors.New("core: fabric address exceeds 24 bytes")

// descriptor is the in-memory form of a channel message.
type descriptor struct {
	kind  uint8
	len   uint16
	addr  mem.Address
	stamp sim.Time
	name  string // TX: destination; RXCOMP: source
}

// encodeInto packs the descriptor into dst, which must hold descSize
// bytes. It overwrites the full descriptor image (including the name
// field's zero padding), so dst may be a reused scratch buffer.
func (d descriptor) encodeInto(dst []byte) ([]byte, error) {
	if len(d.name) > descNameLen {
		return nil, fmt.Errorf("%w: %q", errNameTooLong, d.name)
	}
	buf := dst[:descSize]
	for i := range buf {
		buf[i] = 0
	}
	buf[0] = d.kind
	binary.LittleEndian.PutUint16(buf[2:4], d.len)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(d.addr))
	binary.LittleEndian.PutUint64(buf[16:24], uint64(d.stamp))
	copy(buf[24:24+descNameLen], d.name)
	return buf, nil
}

// decode unpacks a channel payload.
func decodeDescriptor(buf []byte) (descriptor, error) {
	if len(buf) < descSize {
		return descriptor{}, fmt.Errorf("core: short descriptor (%d bytes)", len(buf))
	}
	d := descriptor{
		kind:  buf[0],
		len:   binary.LittleEndian.Uint16(buf[2:4]),
		addr:  mem.Address(binary.LittleEndian.Uint64(buf[8:16])),
		stamp: sim.Time(binary.LittleEndian.Uint64(buf[16:24])),
	}
	name := buf[24 : 24+descNameLen]
	end := 0
	for end < len(name) && name[end] != 0 {
		end++
	}
	d.name = string(name[:end])
	switch d.kind {
	case descTx, descRepost, descRxComp, descTxComp:
	default:
		return descriptor{}, fmt.Errorf("core: unknown descriptor kind %d", d.kind)
	}
	return d, nil
}
