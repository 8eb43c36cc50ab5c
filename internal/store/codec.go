package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"sti/internal/bitpack"
	"sti/internal/quant"
	"sti/internal/shard"
)

// payloadMagic guards each serialized shard payload.
const payloadMagic = 0x53544950 // "STIP"

// finishPayload appends the CRC32 trailer over everything written so
// far. Flash on cheap edge devices corrupts; a shard substituted with
// garbage weights would silently destroy accuracy, so every payload is
// integrity-checked on decode.
func finishPayload(buf *bytes.Buffer) []byte {
	sum := crc32.ChecksumIEEE(buf.Bytes())
	_ = binary.Write(buf, binary.LittleEndian, sum)
	return buf.Bytes()
}

// VerifyPayload checks and strips the CRC32 trailer.
func VerifyPayload(data []byte) ([]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("store: payload too short for checksum")
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	want := binary.LittleEndian.Uint32(trailer)
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("store: payload checksum mismatch (%#x != %#x)", got, want)
	}
	return body, nil
}

// ErrMalformedPayload is returned, wrapped, when a payload's checksum
// holds but its header counts disagree with its body. The CRC only
// proves the bytes are the ones the writer sent; a peer (PeerFetch) or
// a buggy writer can still checksum a payload whose counts would make
// the decoder allocate gigabytes or the dequantizer index past a slice.
var ErrMalformedPayload = errors.New("store: malformed payload")

// Payload is one decoded shard fidelity version: either a quantized
// block or raw float32 weights.
type Payload struct {
	Bits  int
	Count int
	Block *quant.Block // nil when Bits == shard.FullBits
	Raw   []float32    // nil when quantized
}

// Weights returns the full-fidelity float32 weights of the payload,
// dequantizing if necessary. This is the decompression step of the
// pipeline (§5.5): dictionary substitution back to FP32.
func (p *Payload) Weights() []float32 {
	if p.Bits == shard.FullBits {
		return p.Raw
	}
	return p.Block.Dequantize()
}

// WeightsInto decompresses into dst (length ≥ Count), reusing the
// pipeline's working buffer.
func (p *Payload) WeightsInto(dst []float32) []float32 {
	if p.Bits == shard.FullBits {
		copy(dst, p.Raw)
		return dst[:p.Count]
	}
	return p.Block.DequantizeInto(dst)
}

// EncodePayload serializes a quantized block into the store's on-disk
// format.
func EncodePayload(b *quant.Block) []byte {
	var buf bytes.Buffer
	writeU32 := func(v uint32) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	writeU32(payloadMagic)
	writeU32(uint32(b.Bits))
	writeU32(uint32(b.Count))
	writeU32(uint32(len(b.Centroids)))
	for _, c := range b.Centroids {
		writeU32(math.Float32bits(c))
	}
	writeU32(uint32(len(b.OutlierPos)))
	for _, p := range b.OutlierPos {
		writeU32(p)
	}
	for _, v := range b.OutlierVal {
		writeU32(math.Float32bits(v))
	}
	writeU32(uint32(len(b.Packed)))
	buf.Write(b.Packed)
	return finishPayload(&buf)
}

// EncodeRawPayload serializes full-fidelity weights.
func EncodeRawPayload(weights []float32) []byte {
	var buf bytes.Buffer
	writeU32 := func(v uint32) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	writeU32(payloadMagic)
	writeU32(uint32(shard.FullBits))
	writeU32(uint32(len(weights)))
	for _, w := range weights {
		writeU32(math.Float32bits(w))
	}
	return finishPayload(&buf)
}

// DecodePayload parses a serialized shard payload, verifying its
// integrity checksum first.
func DecodePayload(data []byte) (*Payload, error) {
	body, err := VerifyPayload(data)
	if err != nil {
		return nil, err
	}
	r := &byteReader{data: body}
	magic, err := r.u32()
	if err != nil {
		return nil, err
	}
	if magic != payloadMagic {
		return nil, fmt.Errorf("store: bad payload magic %#x", magic)
	}
	bits, err := r.u32()
	if err != nil {
		return nil, err
	}
	count, err := r.u32()
	if err != nil {
		return nil, err
	}
	p := &Payload{Bits: int(bits), Count: int(count)}
	if p.Bits == shard.FullBits {
		if rest := r.remaining(); rest != 4*p.Count {
			return nil, fmt.Errorf("%w: %d raw weights in %d bytes", ErrMalformedPayload, count, rest)
		}
		raw := make([]float32, count)
		for i := range raw {
			v, err := r.u32()
			if err != nil {
				return nil, err
			}
			raw[i] = math.Float32frombits(v)
		}
		p.Raw = raw
		return p, nil
	}
	if p.Bits < quant.MinBits || p.Bits > quant.MaxBits {
		return nil, fmt.Errorf("store: payload bitwidth %d invalid", p.Bits)
	}
	// Every count is checked against what the body can hold before
	// anything is sized by it. The dictionary is always full (Quantize
	// pads unused slots), so any index the packed section can hold has
	// a centroid.
	nc, err := r.u32()
	if err != nil {
		return nil, err
	}
	if nc != 1<<p.Bits {
		return nil, fmt.Errorf("%w: %d centroids for %d-bit indexes", ErrMalformedPayload, nc, p.Bits)
	}
	blk := &quant.Block{Bits: p.Bits, Count: p.Count, Centroids: make([]float32, nc)}
	for i := range blk.Centroids {
		v, err := r.u32()
		if err != nil {
			return nil, err
		}
		blk.Centroids[i] = math.Float32frombits(v)
	}
	no, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int(no) > p.Count || 8*int(no) > r.remaining() {
		return nil, fmt.Errorf("%w: %d outliers among %d weights in %d bytes", ErrMalformedPayload, no, count, r.remaining())
	}
	blk.OutlierPos = make([]uint32, no)
	blk.OutlierVal = make([]float32, no)
	for i := range blk.OutlierPos {
		if blk.OutlierPos[i], err = r.u32(); err != nil {
			return nil, err
		}
		if blk.OutlierPos[i] >= count {
			return nil, fmt.Errorf("%w: outlier position %d of %d weights", ErrMalformedPayload, blk.OutlierPos[i], count)
		}
	}
	for i := range blk.OutlierVal {
		v, err := r.u32()
		if err != nil {
			return nil, err
		}
		blk.OutlierVal[i] = math.Float32frombits(v)
	}
	np, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int(np) > r.remaining() {
		return nil, fmt.Errorf("%w: truncated packed section (%d of %d bytes)", ErrMalformedPayload, r.remaining(), np)
	}
	if need := bitpack.PackedLen(p.Count, p.Bits); int(np) < need {
		return nil, fmt.Errorf("%w: packed section %d bytes, %d %d-bit indexes need %d", ErrMalformedPayload, np, count, p.Bits, need)
	}
	blk.Packed = append([]byte(nil), r.data[r.off:r.off+int(np)]...)
	p.Block = blk
	return p, nil
}

type byteReader struct {
	data []byte
	off  int
}

func (r *byteReader) u32() (uint32, error) {
	if r.off+4 > len(r.data) {
		return 0, fmt.Errorf("store: truncated payload at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v, nil
}

func (r *byteReader) remaining() int { return len(r.data) - r.off }
