package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecodeEvent hammers the consumer-side verdict decoder with
// arbitrary bytes. Contracts: it never panics, every rejection is
// ErrMalformed, every accepted event is in canonical form (non-nil ID
// slices, finite floats, non-negative counts), and canonical form is a
// fixed point — Encode followed by DecodeEvent reproduces the event
// exactly.
func FuzzDecodeEvent(f *testing.F) {
	// Real encoder output, plus the malformed shapes the protocol tests
	// pin down for the observation parser.
	f.Add([]byte(`{"type":"round","recv":901,"t_ms":20000,"density":4.5,"considered":9,"suspects":[1,101,102],"confirmed":[101]}`))
	f.Add([]byte(`{"type":"round","recv":7,"t_ms":0,"density":0,"considered":0,"suspects":[],"confirmed":[]}`))
	f.Add([]byte(`{"type":"round","recv":7,"t_ms":0,"suspects":null,"confirmed":null}`))
	f.Add([]byte(`{"type":"round","recv":7,"t_ms":1000,"error":"boom"}`))
	f.Add([]byte(`{"type":"round","recv":901,"t_ms":20000,"considered":9,"suspects":[101,102],"confirmed":[101],"signals":{"101":{"voiceprint":0.0031,"position":18.2},"102":{"clique":1}}}`))
	f.Add([]byte(`{"type":"round","recv":1,"t_ms":0,"signals":{}}`))
	f.Add([]byte(`{"type":"round","recv":1,"t_ms":0,"signals":{"5":null}}`))
	f.Add([]byte(`{"type":"round","recv":1,"t_ms":0,"signals":{"5":{"":1}}}`))
	f.Add([]byte(`{"type":"round","recv":1,"t_ms":0,"signals":{"5":{"position":1e999}}}`))
	f.Add([]byte(`{"type":"round","recv":1,"t_ms":-5}`))
	f.Add([]byte(`{"recv":1,"t_ms":5}`))
	f.Add([]byte(`{"type":"round","t_ms":0,"density":1e999}`))
	f.Add([]byte(``))
	f.Add([]byte(`not json`))
	f.Add([]byte(`[1,2,3]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ev, err := DecodeEvent(data)
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("DecodeEvent(%q) err = %v, want ErrMalformed", data, err)
			}
			return
		}
		if ev.Suspects == nil || ev.Confirmed == nil {
			t.Fatalf("accepted event has nil ID slices: %+v", ev)
		}
		if ev.TMs < 0 || ev.Considered < 0 || ev.Skipped < 0 {
			t.Fatalf("accepted event has negative counts: %+v", ev)
		}
		again, err := DecodeEvent(ev.Encode())
		if err != nil {
			t.Fatalf("re-decoding encoded event failed: %v (%+v)", err, ev)
		}
		if !reflect.DeepEqual(ev, again) {
			t.Fatalf("Encode/Decode not a fixed point:\n first %+v\nsecond %+v", ev, again)
		}
	})
}

// FuzzLineScanner feeds arbitrary byte streams through the
// oversized-tolerant scanner. Contracts: no panic, no delivered line
// exceeds the cap, the scanner always terminates, a plain byte stream
// never surfaces a read error, and frames are conserved — every
// newline-terminated frame (plus a non-empty unterminated tail) is
// either delivered or counted oversized, never silently lost. This is
// the property bufio.Scanner breaks: one ErrTooLong and every
// subsequent frame of the stream is gone.
func FuzzLineScanner(f *testing.F) {
	f.Add([]byte("{\"recv\":1}\nshort\n"), 8)
	f.Add([]byte("{\"recv\":9,\"sender\":2,\"t_ms\":5,\"rssi\":-70,\"schema\":1,\"pos\":{\"x\":1.5,\"y\":-2}}\n"), 96)
	f.Add([]byte(strings.Repeat("x", 300)+"\nok\n"), 16)
	f.Add([]byte("tail with no newline"), 64)
	f.Add([]byte("\n\n\r\n"), 4)
	f.Add([]byte("abc\r\n"+strings.Repeat("y", 100)), 3)
	f.Fuzz(func(t *testing.T, data []byte, max int) {
		max = 1 + ((max%128)+128)%128
		s := NewLineScanner(bytes.NewReader(data), max)
		delivered := 0
		for s.Scan() {
			if len(s.Bytes()) > max {
				t.Fatalf("delivered %d-byte line past cap %d", len(s.Bytes()), max)
			}
			delivered++
			if delivered > len(data)+1 {
				t.Fatal("scanner failed to make progress")
			}
		}
		if err := s.Err(); err != nil {
			t.Fatalf("in-memory stream surfaced error: %v", err)
		}
		frames := bytes.Count(data, []byte("\n"))
		if tail := data[bytes.LastIndexByte(data, '\n')+1:]; len(tail) > 0 {
			frames++
		}
		if got := delivered + int(s.Oversized()); got != frames {
			t.Fatalf("frame conservation: %d delivered + %d oversized != %d frames",
				delivered, s.Oversized(), frames)
		}
	})
}

// parseObservationReference is the reflective encoding/json decoder
// ParseObservation replaced on its hot path, kept verbatim as the oracle
// the scanner is checked against.
func parseObservationReference(line []byte) (Observation, error) {
	var o Observation
	if err := json.Unmarshal(line, &o); err != nil {
		return Observation{}, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if o.TMs < 0 {
		return Observation{}, fmt.Errorf("%w: negative t_ms %d", ErrMalformed, o.TMs)
	}
	if math.IsNaN(o.RSSI) || math.IsInf(o.RSSI, 0) {
		return Observation{}, fmt.Errorf("%w: non-finite rssi", ErrMalformed)
	}
	if o.Schema < 0 || o.Schema > 1 {
		return Observation{}, fmt.Errorf("%w: unsupported schema %d", ErrMalformed, o.Schema)
	}
	if o.Pos != nil {
		if math.IsNaN(o.Pos.X) || math.IsInf(o.Pos.X, 0) ||
			math.IsNaN(o.Pos.Y) || math.IsInf(o.Pos.Y, 0) {
			return Observation{}, fmt.Errorf("%w: non-finite pos", ErrMalformed)
		}
	}
	return o, nil
}

// observationLines seed FuzzParseObservation's corpus: every line the
// TestParseObservation* cases use, the schema-1 line FuzzLineScanner
// seeds, and adversarial shapes at the edge of the scanner's fast path —
// each must either stay on the fast path with encoding/json's exact
// values or fall back to it.
var observationLines = []string{
	// TestParseObservation*.
	`{"recv":901,"sender":102,"t_ms":18400,"rssi":-71.25}`,
	``,
	`not json`,
	`{"recv":1,"sender":2,"t_ms":-1,"rssi":-70}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":"loud"}`,
	`[1,2,3]`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":1e999}`,
	`{"recv":901,"sender":102,"t_ms":18400,"rssi":-71.25,"schema":1,"pos":{"x":42.5,"y":-3.75}}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":-70,"schema":2}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":-70,"schema":-1}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":-70,"schema":1,"pos":{"x":1e999,"y":0}}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":-70,"schema":1,"pos":{"x":0,"y":-1e999}}`,
	// FuzzLineScanner's schema-1 line.
	`{"recv":9,"sender":2,"t_ms":5,"rssi":-70,"schema":1,"pos":{"x":1.5,"y":-2}}`,
	// Adversarial: duplicate keys (encoding/json keeps the last value,
	// and merges a repeated pos into the first one).
	`{"recv":1,"recv":2,"sender":3,"t_ms":0,"rssi":-70}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":-70,"schema":1,"pos":{"x":1},"pos":{"y":2}}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":-70,"pos":{"x":1,"x":2}}`,
	// Case variants match case-insensitively in encoding/json.
	`{"RECV":7,"sender":2,"t_ms":0,"rssi":-70}`,
	`{"recv":7,"Sender":2,"T_MS":3,"Rssi":-70}`,
	// Escaped key spelling the same name.
	`{"\u0072ecv":7,"sender":2,"t_ms":0,"rssi":-70}`,
	// null leaves the field untouched.
	`{"recv":1,"sender":2,"t_ms":0,"rssi":-70,"schema":1,"pos":null}`,
	`{"recv":null,"sender":2,"t_ms":0,"rssi":-70}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":-70,"pos":{}}`,
	`{}`,
	` { } `,
	// Number grammar and conversion edges.
	`{"recv":01,"sender":2,"t_ms":0,"rssi":-70}`,
	`{"recv":1,"sender":2,"t_ms":-0,"rssi":-0}`,
	`{"recv":-0,"sender":2,"t_ms":0,"rssi":-70}`,
	`{"recv":1,"sender":2,"t_ms":1E2,"rssi":-70}`,
	`{"recv":1,"sender":2,"t_ms":18400.0,"rssi":-70}`,
	`{"recv":4294967296,"sender":2,"t_ms":0,"rssi":-70}`,
	`{"recv":4294967295,"sender":2,"t_ms":9223372036854775807,"rssi":-70}`,
	`{"recv":1,"sender":2,"t_ms":9223372036854775808,"rssi":-70}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":-7.125e+1,"schema":1,"pos":{"x":-0.0,"y":1E-400}}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":-70.}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":.5}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":+5}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":1e}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":-70,"schema":1.0}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":"-70"}`,
	// Unknown keys, nested and top-level.
	`{"recv":1,"sender":2,"t_ms":0,"rssi":-70,"pos":{"x":1,"y":2,"z":3}}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":-70,"extra":{"a":[1,2]}}`,
	// Whitespace between every token, and trailing bytes after the object.
	"\t{ \"recv\" : 1 ,\n\"sender\":2,\"t_ms\":0 , \"rssi\" :-70,\"pos\" : { \"y\" : 2 , \"x\":1 } }\r\n",
	`{"recv":1,"sender":2,"t_ms":0,"rssi":-70}x`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":-70}{}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":-70`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":-70,}`,
	`{"recv" 1}`,
	`{"pos":{"x":1}"recv":1}`,
	`{"pos":{"x":1},}`,
}

// sameObservation compares two decoded observations field by field,
// floats by bit pattern so -0 and 0 differ.
func sameObservation(a, b Observation) bool {
	if a.Recv != b.Recv || a.Sender != b.Sender || a.TMs != b.TMs || a.Schema != b.Schema ||
		math.Float64bits(a.RSSI) != math.Float64bits(b.RSSI) || (a.Pos == nil) != (b.Pos == nil) {
		return false
	}
	return a.Pos == nil ||
		math.Float64bits(a.Pos.X) == math.Float64bits(b.Pos.X) &&
			math.Float64bits(a.Pos.Y) == math.Float64bits(b.Pos.Y)
}

// FuzzParseObservation is the differential check of the ingest decoder
// against the reflective encoding/json decoder it replaced on the hot
// path. Contracts: no panic, the same accept/reject outcome, every
// rejection wraps ErrMalformed on both sides, and accepted observations
// agree field by field and bit for bit.
func FuzzParseObservation(f *testing.F) {
	for _, line := range observationLines {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ParseObservation(data)
		want, wantErr := parseObservationReference(data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("ParseObservation(%q): err = %v, reference err = %v", data, err, wantErr)
		}
		if err != nil {
			if !errors.Is(err, ErrMalformed) || !errors.Is(wantErr, ErrMalformed) {
				t.Fatalf("ParseObservation(%q): errors %v / %v, want both ErrMalformed", data, err, wantErr)
			}
			return
		}
		if !sameObservation(got, want) {
			t.Fatalf("ParseObservation(%q) = %+v (pos %v), reference %+v (pos %v)",
				data, got, got.Pos, want, want.Pos)
		}
	})
}
