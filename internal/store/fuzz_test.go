package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"sti/internal/quant"
)

// FuzzDecodePayload ensures arbitrary bytes never panic the decoder —
// a corrupted flash block must surface as an error, not a crash.
func FuzzDecodePayload(f *testing.F) {
	w := make([]float32, 500)
	rng := rand.New(rand.NewSource(1))
	for i := range w {
		w[i] = float32(rng.NormFloat64()) * 0.05
	}
	f.Add(EncodePayload(quant.Quantize(w, 3)))
	f.Add(EncodeRawPayload(w[:16]))
	f.Add([]byte{})
	f.Add([]byte{0x50, 0x49, 0x54, 0x53})
	for _, c := range malformedPayloads() {
		f.Add(c.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePayload(data)
		if err != nil {
			return
		}
		// A successfully decoded payload must be internally consistent.
		got := p.Weights()
		if len(got) != p.Count {
			t.Fatalf("decoded %d weights, header says %d", len(got), p.Count)
		}
	})
}

func TestDecodeDetectsBitflips(t *testing.T) {
	w := make([]float32, 2000)
	rng := rand.New(rand.NewSource(2))
	for i := range w {
		w[i] = float32(rng.NormFloat64()) * 0.02
	}
	valid := EncodePayload(quant.Quantize(w, 4))
	if _, err := DecodePayload(valid); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
	// Flip one bit anywhere: the checksum must catch it.
	for _, pos := range []int{0, 10, len(valid) / 2, len(valid) - 5} {
		corrupted := append([]byte(nil), valid...)
		corrupted[pos] ^= 0x40
		if _, err := DecodePayload(corrupted); err == nil {
			t.Fatalf("bit flip at %d not detected", pos)
		}
	}
}

// handPayload builds a CRC-valid payload from header words followed by
// raw body bytes, so tests can state counts the body does not back.
func handPayload(words []uint32, tail []byte) []byte {
	var buf bytes.Buffer
	for _, w := range words {
		_ = binary.Write(&buf, binary.LittleEndian, w)
	}
	buf.Write(tail)
	return finishPayload(&buf)
}

// quantWords returns the header of a quantized payload — magic, bits,
// count and a full dictionary of 1<<bits centroids — up to the outlier
// count.
func quantWords(bits, count uint32) []uint32 {
	w := []uint32{payloadMagic, bits, count, 1 << bits}
	for i := uint32(0); i < 1<<bits; i++ {
		w = append(w, math.Float32bits(float32(i)))
	}
	return w
}

type payloadCase struct {
	name string
	data []byte
}

// malformedPayloads are CRC-valid payloads whose header counts the body
// cannot back. DecodePayload must reject each with ErrMalformedPayload
// before it sizes anything by those counts: unchecked, the huge counts
// allocate gigabytes, and the short packed section, short dictionary
// and out-of-range outlier panic when the payload is dequantized.
func malformedPayloads() []payloadCase {
	u32s := func(vs ...uint32) []uint32 { return vs }
	return []payloadCase{
		{"raw count beyond body", handPayload(u32s(payloadMagic, 32, 1000, 0), nil)},
		{"raw count huge", handPayload(u32s(payloadMagic, 32, math.MaxUint32), nil)},
		{"raw body longer than count", handPayload(u32s(payloadMagic, 32, 1, 0, 0), nil)},
		{"packed section too short", handPayload(append(quantWords(3, 1000), 0, 1), []byte{0xFF})},
		{"centroid count huge", handPayload(u32s(payloadMagic, 3, 8, math.MaxUint32), nil)},
		{"centroid count short", handPayload(u32s(payloadMagic, 3, 8, 4, 0, 0, 0, 0, 0, 3), []byte{0xFF, 0xFF, 0xFF})},
		{"outlier count huge", handPayload(append(quantWords(3, 8), math.MaxUint32), nil)},
		{"outlier count beyond weights", handPayload(append(quantWords(3, 2), 3, 0, 1, 0, 0, 0, 0, 1), []byte{0})},
		{"outlier position past count", handPayload(append(quantWords(3, 8), 1, 8, 0, 3), []byte{0, 0, 0})},
		{"packed length past body", handPayload(append(quantWords(3, 8), 0, 100), []byte{0, 0, 0})},
	}
}

func TestDecodePayloadRejectsMalformedCounts(t *testing.T) {
	for _, c := range malformedPayloads() {
		t.Run(c.name, func(t *testing.T) {
			p, err := DecodePayload(c.data)
			if !errors.Is(err, ErrMalformedPayload) {
				t.Fatalf("DecodePayload = (%v, %v), want ErrMalformedPayload", p, err)
			}
		})
	}
}

// TestDecodePayloadHandBuiltValid checks the hand-built layout against
// the decoder, so the malformed cases fail for their counts and not for
// a layout slip: a 3-bit block of 8 weights with one outlier.
func TestDecodePayloadHandBuiltValid(t *testing.T) {
	// Indexes 0..7 packed 3 bits each: 0b_111_110_101_100_011_010_001_000.
	data := handPayload(append(quantWords(3, 8), 1, 5, math.Float32bits(-9), 3), []byte{0x88, 0xC6, 0xFA})
	p, err := DecodePayload(data)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{0, 1, 2, 3, 4, -9, 6, 7}
	got := p.Weights()
	if len(got) != len(want) {
		t.Fatalf("decoded %d weights, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("weights = %v, want %v", got, want)
		}
	}
}
