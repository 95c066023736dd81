package hier

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// PartialMagic prefixes the encoded-partial wire format, following the
// weight-codec magics (CFLQ1/CFLS1/CFLI1): a tier node sends its merged
// partial upward as a MsgUpdate whose payload carries this header, which
// is how a tier-aware root tells a partial from a plain weight map.
// Version 2 carries fixed-width bins; a version-1 (expansion) partial is
// rejected as malformed.
const PartialMagic = "CFHP2\n"

// Decoder hardening caps: fail fast on corrupt or hostile headers
// instead of allocating unbounded buffers.
const (
	maxParams       = 1 << 14 // distinct parameter tensors
	maxElems        = 1 << 26 // total elements across all params
	maxNameLen      = 256
	maxEntryLen     = 1 << 10 // participant / failure strings
	maxParticipants = 1 << 21
)

// ErrBadPartial is wrapped by every decode failure.
var ErrBadPartial = errors.New("hier: malformed partial")

// IsPartial reports whether blob is an encoded partial.
func IsPartial(blob []byte) bool {
	return bytes.HasPrefix(blob, []byte(PartialMagic))
}

func writeU16(buf *bytes.Buffer, v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	buf.Write(b[:])
}

func writeU32(buf *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	buf.Write(b[:])
}

func writeU64(buf *bytes.Buffer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	buf.Write(b[:])
}

func writeString(buf *bytes.Buffer, s string) {
	writeU16(buf, uint16(len(s)))
	buf.WriteString(s)
}

// writeSum writes the window top, then the bins.
func writeSum(buf *bytes.Buffer, ps *paramSum) {
	buf.WriteByte(byte(ps.top))
	for _, v := range ps.bins {
		writeU64(buf, math.Float64bits(v))
	}
}

// sumSize is writeSum's output length.
func (ps *paramSum) sumSize() int64 { return 1 + 8*int64(len(ps.bins)) }

// checkEncodable applies the caps the decoder enforces, so nothing is
// encoded that would not decode.
func (p *Partial) checkEncodable() error {
	for _, s := range p.participants {
		if len(s) > maxNameLen {
			return fmt.Errorf("hier: encode: participant name %d bytes exceeds %d", len(s), maxNameLen)
		}
	}
	for _, s := range p.failures {
		if len(s) > maxEntryLen {
			return fmt.Errorf("hier: encode: failure entry %d bytes exceeds %d", len(s), maxEntryLen)
		}
	}
	for name := range p.params {
		if len(name) > maxNameLen {
			return fmt.Errorf("hier: encode: param name %d bytes exceeds %d", len(name), maxNameLen)
		}
	}
	if p.updates > math.MaxUint32 || p.merged > math.MaxUint32 {
		return fmt.Errorf("hier: encode: counters %d/%d exceed the wire's 32 bits", p.updates, p.merged)
	}
	return nil
}

// EncodePartial serializes p deterministically: parameters sorted by
// name and accounting lists sorted, so a given fold sequence always
// encodes to identical bytes. Every element is binK bins.
func EncodePartial(p *Partial) ([]byte, error) {
	if err := p.checkEncodable(); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(p.params))
	for name := range p.params {
		names = append(names, name)
	}
	sort.Strings(names)

	var buf bytes.Buffer
	buf.WriteString(PartialMagic)
	writeU32(&buf, uint32(len(names)))
	writeU64(&buf, uint64(p.weight))
	writeU32(&buf, uint32(p.updates))
	writeU32(&buf, uint32(p.merged))
	writeSum(&buf, p.loss)
	parts, fails := p.Participants(), p.Failures()
	writeU32(&buf, uint32(len(parts)))
	for _, s := range parts {
		writeString(&buf, s)
	}
	writeU32(&buf, uint32(len(fails)))
	for _, s := range fails {
		writeString(&buf, s)
	}
	writeU64(&buf, uint64(p.bytesUp))
	writeU64(&buf, uint64(p.bytesDown))
	writeU64(&buf, uint64(p.tierBytes))
	for _, name := range names {
		ps := p.params[name]
		writeString(&buf, name)
		writeU32(&buf, uint32(ps.rows))
		writeU32(&buf, uint32(ps.cols))
		writeSum(&buf, ps)
	}
	return buf.Bytes(), nil
}

// EncodedSize returns len(EncodePartial(p)) without serializing, with
// the same validation failures, so a node that only needs byte
// accounting (the in-process controller's tier climb) skips building a
// model-sized buffer per hop. codec_test pins the two against each other.
func (p *Partial) EncodedSize() (int64, error) {
	if err := p.checkEncodable(); err != nil {
		return 0, err
	}
	size := int64(len(PartialMagic)) + 4 + 8 + 4 + 4 // magic, nparams, weight, updates, merged
	size += p.loss.sumSize()
	size += 4
	for _, s := range p.participants {
		size += 2 + int64(len(s))
	}
	size += 4
	for _, s := range p.failures {
		size += 2 + int64(len(s))
	}
	size += 8 + 8 + 8 // bytesUp, bytesDown, tierBytes
	for name, ps := range p.params {
		size += 2 + int64(len(name)) + 4 + 4 + ps.sumSize()
	}
	return size, nil
}

type decoder struct {
	b   []byte
	off int
}

func (d *decoder) fail(format string, args ...any) error {
	return fmt.Errorf("%w: %s at offset %d", ErrBadPartial, fmt.Sprintf(format, args...), d.off)
}

func (d *decoder) u16() (uint16, error) {
	if d.off+2 > len(d.b) {
		return 0, d.fail("truncated u16")
	}
	v := binary.LittleEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if d.off+4 > len(d.b) {
		return 0, d.fail("truncated u32")
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	if d.off+8 > len(d.b) {
		return 0, d.fail("truncated u64")
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v, nil
}

func (d *decoder) str(maxLen int) (string, error) {
	n, err := d.u16()
	if err != nil {
		return "", err
	}
	if int(n) > maxLen {
		return "", d.fail("string length %d exceeds %d", n, maxLen)
	}
	if d.off+int(n) > len(d.b) {
		return "", d.fail("truncated string")
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

// sum reads one writeSum image, checking the payload length exactly
// against rows·cols·binK and every bin for validity. It also returns the
// load the bins carry, recomputed rather than trusted.
func (d *decoder) sum(rows, cols int) (*paramSum, int, error) {
	if d.off >= len(d.b) {
		return nil, 0, d.fail("truncated window top")
	}
	top := int(d.b[d.off])
	d.off++
	if top > topMax {
		return nil, 0, d.fail("window top %d beyond the grid", top)
	}
	n := rows * cols * binK
	if int64(n)*8 > int64(len(d.b)-d.off) {
		return nil, 0, d.fail("%d bins exceed remaining payload", n)
	}
	ps := &paramSum{rows: rows, cols: cols, top: top, bins: make([]float64, n)}
	// Each bin sum must be a whole number of its ulps, below fullLoad
	// slice units.
	var load float64
	for j := range ps.bins {
		v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
		d.off += 8
		units := v * pow2(-ulpExp(top+j/(rows*cols))-unitExp) // exact: a power-of-two scale
		if !(math.Abs(units) < fullLoad) || units*(1<<unitExp) != math.Trunc(units*(1<<unitExp)) {
			return nil, 0, d.fail("invalid bin %v", v)
		}
		ps.bins[j] = v
		load = max(load, math.Abs(units))
	}
	return ps, int(math.Ceil(load)), nil
}

func (d *decoder) strList(count uint32, maxLen int) ([]string, error) {
	if count == 0 {
		return nil, nil
	}
	// Each entry costs at least 2 header bytes; bound allocation by the
	// bytes actually present.
	if int64(count)*2 > int64(len(d.b)-d.off) {
		return nil, d.fail("list count %d exceeds remaining payload", count)
	}
	out := make([]string, 0, count)
	for i := uint32(0); i < count; i++ {
		s, err := d.str(maxLen)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// DecodePartial parses an encoded partial, validating every length and
// cap before allocating.
func DecodePartial(blob []byte) (*Partial, error) {
	if !IsPartial(blob) {
		return nil, fmt.Errorf("%w: missing %q magic", ErrBadPartial, PartialMagic)
	}
	d := &decoder{b: blob, off: len(PartialMagic)}
	nParams, err := d.u32()
	if err != nil {
		return nil, err
	}
	if nParams > maxParams {
		return nil, d.fail("param count %d exceeds %d", nParams, maxParams)
	}
	weight, err := d.u64()
	if err != nil {
		return nil, err
	}
	if weight > math.MaxInt64 {
		return nil, d.fail("weight overflows int64")
	}
	updates, err := d.u32()
	if err != nil {
		return nil, err
	}
	merged, err := d.u32()
	if err != nil {
		return nil, err
	}
	loss, load, err := d.sum(1, 1)
	if err != nil {
		return nil, err
	}
	nParts, err := d.u32()
	if err != nil {
		return nil, err
	}
	if nParts > maxParticipants {
		return nil, d.fail("participant count %d exceeds %d", nParts, maxParticipants)
	}
	participants, err := d.strList(nParts, maxNameLen)
	if err != nil {
		return nil, err
	}
	nFails, err := d.u32()
	if err != nil {
		return nil, err
	}
	if nFails > maxParticipants {
		return nil, d.fail("failure count %d exceeds %d", nFails, maxParticipants)
	}
	failures, err := d.strList(nFails, maxEntryLen)
	if err != nil {
		return nil, err
	}
	bytesUp, err := d.u64()
	if err != nil {
		return nil, err
	}
	bytesDown, err := d.u64()
	if err != nil {
		return nil, err
	}
	tierBytes, err := d.u64()
	if err != nil {
		return nil, err
	}
	if bytesUp > math.MaxInt64 || bytesDown > math.MaxInt64 || tierBytes > math.MaxInt64 {
		return nil, d.fail("byte counter overflows int64")
	}

	p := NewPartial()
	p.weight = int64(weight)
	p.updates = int(updates)
	p.merged = int(merged)
	p.loss = loss
	p.load = load
	p.participants = participants
	p.failures = failures
	p.bytesUp = int64(bytesUp)
	p.bytesDown = int64(bytesDown)
	p.tierBytes = int64(tierBytes)

	var totalElems int64
	for i := uint32(0); i < nParams; i++ {
		name, err := d.str(maxNameLen)
		if err != nil {
			return nil, err
		}
		if _, dup := p.params[name]; dup {
			return nil, d.fail("duplicate param %q", name)
		}
		rows, err := d.u32()
		if err != nil {
			return nil, err
		}
		cols, err := d.u32()
		if err != nil {
			return nil, err
		}
		// Cap each dimension before multiplying: the int64 product of two
		// arbitrary u32s can wrap negative and slip past the elems cap.
		if rows == 0 || cols == 0 || int64(rows) > maxElems || int64(cols) > maxElems {
			return nil, d.fail("param %q shape %dx%d out of range", name, rows, cols)
		}
		elems := int64(rows) * int64(cols)
		if elems > maxElems {
			return nil, d.fail("param %q shape %dx%d out of range", name, rows, cols)
		}
		totalElems += elems
		if totalElems > maxElems {
			return nil, d.fail("total elements exceed %d", maxElems)
		}
		ps, load, err := d.sum(int(rows), int(cols))
		if err != nil {
			return nil, err
		}
		ps.name = name
		p.params[name] = ps
		p.load = max(p.load, load)
	}
	if d.off != len(d.b) {
		return nil, d.fail("%d trailing bytes", len(d.b)-d.off)
	}
	return p, nil
}
