package perfctr

import (
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"
	"trickledown/internal/power"
)

func wireTestSamples() []Sample {
	return []Sample{
		{
			TargetSeconds: 1.0,
			IntervalSec:   1.001,
			CPUs: []CPUCounts{
				{Cycles: 2_800_000_000, HaltedCycles: 1_000_000_000, FetchedUops: 3_000_000_000,
					L3LoadMisses: 12_000, L3Misses: 15_000, TLBMisses: 900,
					BusTx: 40_000, BusPrefetchTx: 9_000, DMAOther: 3_000, Uncacheable: 120},
				{Cycles: 2_799_999_999, FetchedUops: 7},
			},
			Ints:      [][]uint64{{100, 2}, {0, 7}, {3, 0}},
			OSBusySec: []float64{0.75, 0.10},
		},
		{
			TargetSeconds:   2.0,
			IntervalSec:     0.999,
			CPUs:            []CPUCounts{{Cycles: 1}},
			OSThreadBusySec: []float64{0.5},
		},
		{TargetSeconds: 3.0, IntervalSec: 1.0}, // no CPUs at all
	}
}

func TestWireRoundTrip(t *testing.T) {
	in := wireTestSamples()
	buf, err := EncodeBatch(nil, "node07", in)
	if err != nil {
		t.Fatal(err)
	}
	node, out, _, _, err := DecodeBatchFull(buf)
	if err != nil {
		t.Fatal(err)
	}
	if node != "node07" {
		t.Errorf("node = %q, want node07", node)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d samples, want %d", len(out), len(in))
	}
	for i := range in {
		if !reflect.DeepEqual(normalizeSample(in[i]), normalizeSample(out[i])) {
			t.Errorf("sample %d round-trip mismatch:\n in: %+v\nout: %+v", i, in[i], out[i])
		}
	}
}

// normalizeSample maps an empty slice to nil and pads ragged interrupt
// rows, matching the rectangular wire representation.
func normalizeSample(s Sample) Sample {
	if len(s.CPUs) == 0 {
		s.CPUs = nil
	}
	if len(s.Ints) == 0 {
		s.Ints = nil
	} else {
		cols := 0
		for _, row := range s.Ints {
			if len(row) > cols {
				cols = len(row)
			}
		}
		padded := make([][]uint64, len(s.Ints))
		for v, row := range s.Ints {
			padded[v] = make([]uint64, cols)
			copy(padded[v], row)
		}
		s.Ints = padded
	}
	if len(s.OSBusySec) == 0 {
		s.OSBusySec = nil
	}
	if len(s.OSThreadBusySec) == 0 {
		s.OSThreadBusySec = nil
	}
	return s
}

func TestWireEncodeReusesBuffer(t *testing.T) {
	in := wireTestSamples()
	buf, err := EncodeBatch(nil, "n", in)
	if err != nil {
		t.Fatal(err)
	}
	again, err := EncodeBatch(buf[:0], "n", in)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &buf[0] {
		t.Error("encode into a reused buffer reallocated")
	}
}

func TestWireDecodeRejectsCorruption(t *testing.T) {
	good, err := EncodeBatch(nil, "node", wireTestSamples())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"truncated header", func(b []byte) []byte { return b[:5] }},
		{"truncated mid-sample", func(b []byte) []byte { return b[:len(b)-9] }},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xFF) }},
		{"oversize sample count", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[10:], 1<<30)
			return b
		}},
		{"count larger than payload", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[10:], 1000)
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mut(append([]byte(nil), good...))
			if _, _, _, _, err := DecodeBatchFull(b); err == nil {
				t.Errorf("corrupt batch decoded without error")
			}
		})
	}
}

func TestWireDecodeRejectsNonFiniteTimes(t *testing.T) {
	buf, err := EncodeBatch(nil, "n", []Sample{{TargetSeconds: 1, IntervalSec: math.NaN()}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := DecodeBatchFull(buf); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Errorf("NaN interval decoded without error (err=%v)", err)
	}
}

func TestWireEncodeRejectsOversize(t *testing.T) {
	if _, err := EncodeBatch(nil, strings.Repeat("n", maxWireNode+1), nil); err == nil {
		t.Error("oversize node name encoded")
	}
	if _, err := EncodeBatch(nil, "n", []Sample{{CPUs: make([]CPUCounts, maxWireCPUs+1)}}); err == nil {
		t.Error("oversize CPU count encoded")
	}
}

// FuzzDecodeBatch asserts the decoder never panics or over-allocates on
// arbitrary input — it is fed straight from HTTP request bodies.
func FuzzDecodeBatch(f *testing.F) {
	good, err := EncodeBatch(nil, "node", wireTestSamples())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:12])
	f.Add([]byte("TDS1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		node, samples, ext, rails, err := DecodeBatchFull(data)
		if err != nil {
			return
		}
		if len(node) > maxWireNode || len(samples) > maxWireSamples {
			t.Fatalf("decoder exceeded wire limits: node=%d samples=%d", len(node), len(samples))
		}
		// Whatever decodes must re-encode and decode identically.
		re, err := EncodeBatchFull(nil, node, samples, ext, rails)
		if err != nil {
			t.Fatalf("re-encode of decoded batch failed: %v", err)
		}
		if _, _, _, _, err := DecodeBatchFull(re); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
	})
}

func BenchmarkWireEncodeBatch(b *testing.B) {
	samples := make([]Sample, 256)
	for i := range samples {
		samples[i] = wireTestSamples()[0]
		samples[i].TargetSeconds = float64(i)
	}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = EncodeBatch(buf[:0], "node00", samples)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}

func BenchmarkWireDecodeBatch(b *testing.B) {
	samples := make([]Sample, 256)
	for i := range samples {
		samples[i] = wireTestSamples()[0]
		samples[i].TargetSeconds = float64(i)
	}
	buf, err := EncodeBatch(nil, "node00", samples)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		if _, _, _, _, err := DecodeBatchFull(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestWireTraceExtRoundTrip(t *testing.T) {
	in := wireTestSamples()
	ext := TraceExt{Sampled: true}
	for i := range ext.ID {
		ext.ID[i] = byte(i + 1)
	}
	buf, err := EncodeBatchFull(nil, "node07", in, ext, nil)
	if err != nil {
		t.Fatal(err)
	}
	node, out, got, _, err := DecodeBatchFull(buf)
	if err != nil {
		t.Fatal(err)
	}
	if node != "node07" || len(out) != len(in) {
		t.Fatalf("node=%q samples=%d, want node07/%d", node, len(out), len(in))
	}
	if got != ext {
		t.Errorf("ext round-trip = %+v, want %+v", got, ext)
	}

	// Unsampled flag round-trips too.
	ext.Sampled = false
	buf, err = EncodeBatchFull(nil, "n", in[:1], ext, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, got, _, err = DecodeBatchFull(buf); err != nil || got.Sampled || got.ID != ext.ID {
		t.Errorf("unsampled ext = %+v err=%v", got, err)
	}
}

func TestWireTraceExtZeroIsByteIdentical(t *testing.T) {
	in := wireTestSamples()
	plain, err := EncodeBatch(nil, "n", in)
	if err != nil {
		t.Fatal(err)
	}
	extd, err := EncodeBatchFull(nil, "n", in, TraceExt{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, extd) {
		t.Error("zero TraceExt changed the encoding")
	}
	if _, _, ext, _, err := DecodeBatchFull(plain); err != nil || !ext.IsZero() {
		t.Errorf("ext on plain batch = %+v err=%v, want zero", ext, err)
	}
}

func TestWireTraceExtRejectsMalformed(t *testing.T) {
	in := wireTestSamples()[:1]
	good, err := EncodeBatchFull(nil, "n", in, TraceExt{ID: [16]byte{1}, Sampled: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"truncated ext":     good[:len(good)-1],
		"oversized ext":     append(append([]byte{}, good...), 0),
		"bad ext magic":     append([]byte{}, good...),
		"unknown ext flags": append([]byte{}, good...),
	}
	cases["bad ext magic"][len(good)-extLen] = 'X'
	cases["unknown ext flags"][len(good)-extLen+4] = 0x80
	for name, buf := range cases {
		if _, _, _, _, err := DecodeBatchFull(buf); err == nil {
			t.Errorf("%s: decode accepted malformed extension", name)
		}
	}
}

func TestWireRailsRoundTrip(t *testing.T) {
	in := wireTestSamples()
	rails := []power.Reading{
		{41.2, 19.1, 33.7, 33.0, 21.9},
		{38.5, 19.0, 29.1, 32.8, 21.6},
		{36.0, 18.9, 28.4, 32.7, 21.6},
	}
	ext := TraceExt{Sampled: true}
	ext.ID[0], ext.ID[15] = 0xab, 0xcd
	buf, err := EncodeBatchFull(nil, "node07", in, ext, rails)
	if err != nil {
		t.Fatal(err)
	}
	node, out, gotExt, gotRails, err := DecodeBatchFull(buf)
	if err != nil {
		t.Fatal(err)
	}
	if node != "node07" || len(out) != len(in) {
		t.Fatalf("node=%q samples=%d", node, len(out))
	}
	if gotExt != ext {
		t.Errorf("ext = %+v, want %+v", gotExt, ext)
	}
	if !reflect.DeepEqual(gotRails, rails) {
		t.Errorf("rails = %+v, want %+v", gotRails, rails)
	}
	// Rails without a trace context also round-trip.
	buf, err = EncodeBatchFull(nil, "n", in, TraceExt{}, rails)
	if err != nil {
		t.Fatal(err)
	}
	_, _, gotExt, gotRails, err = DecodeBatchFull(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !gotExt.IsZero() || !reflect.DeepEqual(gotRails, rails) {
		t.Errorf("rails-only decode: ext=%+v rails=%+v", gotExt, gotRails)
	}
	// No extensions at all stays byte-identical to EncodeBatch.
	plain, err := EncodeBatchFull(nil, "n", in, TraceExt{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	base, err := EncodeBatch(nil, "n", in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, base) {
		t.Error("EncodeBatchFull without extensions diverges from EncodeBatch")
	}
}

func TestWireRailsRejectsMalformed(t *testing.T) {
	in := wireTestSamples()
	rails := []power.Reading{{1, 2, 3, 4, 5}, {1, 2, 3, 4, 5}, {1, 2, 3, 4, 5}}
	if _, err := EncodeBatchFull(nil, "n", in, TraceExt{}, rails[:2]); err == nil {
		t.Error("encoder accepted rails/sample count mismatch")
	}
	good, err := EncodeBatchFull(nil, "n", in, TraceExt{}, rails)
	if err != nil {
		t.Fatal(err)
	}
	base, err := EncodeBatch(nil, "n", in)
	if err != nil {
		t.Fatal(err)
	}
	railsBlock := good[len(base):]

	cases := map[string][]byte{
		"truncated rails": good[:len(good)-4],
		"duplicate rails": append(append([]byte{}, good...), railsBlock...),
		"count mismatch": func() []byte {
			b := append([]byte{}, good...)
			binary.LittleEndian.PutUint32(b[len(base)+4:], 2)
			return b
		}(),
		"unknown magic": append(append([]byte{}, base...), 'T', 'D', 'Z', '9', 0, 0, 0, 0),
		"short magic":   append(append([]byte{}, base...), 'T', 'D'),
	}
	for name, buf := range cases {
		if _, _, _, _, err := DecodeBatchFull(buf); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
