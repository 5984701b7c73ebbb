package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"voiceprint/internal/core"
	"voiceprint/internal/vanet"
)

func TestParseObservation(t *testing.T) {
	o, err := ParseObservation([]byte(`{"recv":901,"sender":102,"t_ms":18400,"rssi":-71.25}`))
	if err != nil {
		t.Fatal(err)
	}
	want := Observation{Recv: 901, Sender: 102, TMs: 18400, RSSI: -71.25}
	if o != want {
		t.Errorf("parsed %+v, want %+v", o, want)
	}
	if o.T() != 18400*time.Millisecond {
		t.Errorf("T() = %v", o.T())
	}

	for _, bad := range []string{
		``,
		`not json`,
		`{"recv":1,"sender":2,"t_ms":-1,"rssi":-70}`,
		`{"recv":1,"sender":2,"t_ms":0,"rssi":"loud"}`,
		`[1,2,3]`,
	} {
		if _, err := ParseObservation([]byte(bad)); !errors.Is(err, ErrMalformed) {
			t.Errorf("ParseObservation(%q) err = %v, want ErrMalformed", bad, err)
		}
	}
}

func TestParseObservationRejectsNonFinite(t *testing.T) {
	// JSON has no NaN or Inf literal, but a finite-looking literal can
	// still overflow float64: both decode paths must reject it (the
	// scanner's ParseFloat range error hands the line to encoding/json,
	// which reports it).
	if _, err := ParseObservation([]byte(`{"recv":1,"sender":2,"t_ms":0,"rssi":1e999}`)); !errors.Is(err, ErrMalformed) {
		t.Errorf("overflowing rssi: err = %v, want ErrMalformed", err)
	}
}

func TestParseObservationSchema1(t *testing.T) {
	o, err := ParseObservation([]byte(`{"recv":901,"sender":102,"t_ms":18400,"rssi":-71.25,"schema":1,"pos":{"x":42.5,"y":-3.75}}`))
	if err != nil {
		t.Fatal(err)
	}
	if o.Schema != 1 || o.Pos == nil || o.Pos.X != 42.5 || o.Pos.Y != -3.75 {
		t.Errorf("schema-1 parse = %+v", o)
	}
	// A schema-0 line must parse exactly as before the field existed.
	o, err = ParseObservation([]byte(`{"recv":901,"sender":102,"t_ms":18400,"rssi":-71.25}`))
	if err != nil {
		t.Fatal(err)
	}
	if o.Schema != 0 || o.Pos != nil {
		t.Errorf("schema-0 line grew optional fields: %+v", o)
	}
	for _, bad := range []string{
		`{"recv":1,"sender":2,"t_ms":0,"rssi":-70,"schema":2}`,
		`{"recv":1,"sender":2,"t_ms":0,"rssi":-70,"schema":-1}`,
		`{"recv":1,"sender":2,"t_ms":0,"rssi":-70,"schema":1,"pos":{"x":1e999,"y":0}}`,
		`{"recv":1,"sender":2,"t_ms":0,"rssi":-70,"schema":1,"pos":{"x":0,"y":-1e999}}`,
	} {
		if _, err := ParseObservation([]byte(bad)); !errors.Is(err, ErrMalformed) {
			t.Errorf("ParseObservation(%q) err = %v, want ErrMalformed", bad, err)
		}
	}
}

// TestScanObservationFastPath pins which lines the zero-allocation
// scanner decodes itself and which it hands to encoding/json. Only the
// split is pinned here — FuzzParseObservation checks that both sides
// produce the reflective decoder's values — but a scanner that fell back
// on everything would pass the differential check while saving nothing.
func TestScanObservationFastPath(t *testing.T) {
	for _, line := range []string{
		`{"recv":901,"sender":102,"t_ms":18400,"rssi":-71.25}`,
		`{"recv":901,"sender":102,"t_ms":18400,"rssi":-71.25,"schema":1,"pos":{"x":42.5,"y":-3.75}}`,
		`{"pos":{"y":-3.75,"x":42.5},"schema":1,"rssi":-71.25,"t_ms":18400,"sender":102,"recv":901}`,
		"\t{ \"recv\" : 1 ,\n\"sender\":2,\"t_ms\":0 , \"rssi\" :-70,\"pos\" : { } }\r\n",
		`{"recv":1,"sender":2,"t_ms":-1,"rssi":-0}`, // syntax fits; validation rejects t_ms
		`{"recv":4294967295,"sender":0,"t_ms":0,"rssi":-7.125e+1,"schema":2}`,
		`{}`,
	} {
		if _, _, _, ok := scanObservation([]byte(line)); !ok {
			t.Errorf("scanner fell back on %q", line)
		}
	}
	for _, line := range []string{
		``,
		`[1,2,3]`,
		`{"recv":1,"recv":2}`,
		`{"pos":{"x":1},"pos":{"y":2}}`,
		`{"RECV":1}`,
		`{"\u0072ecv":1}`,
		`{"recv":1,"extra":2}`,
		`{"pos":{"x":1,"z":2}}`,
		`{"pos":null}`,
		`{"recv":null}`,
		`{"rssi":"loud"}`,
		`{"recv":01}`,
		`{"recv":-0}`,
		`{"recv":4294967296}`,
		`{"t_ms":1E2}`,
		`{"t_ms":18400.0}`,
		`{"rssi":1e999}`,
		`{"rssi":-70.}`,
		`{"rssi":-70}x`,
		`{"rssi":-70,}`,
		`{"rssi":-70`,
	} {
		if _, _, _, ok := scanObservation([]byte(line)); ok {
			t.Errorf("scanner accepted %q; it must fall back to encoding/json", line)
		}
	}
}

// TestParseObservationAllocs is the ingest decoder's allocation gate: a
// canonical schema-0 line decodes without touching the heap, and a
// schema-1 line allocates only the Position it returns.
func TestParseObservationAllocs(t *testing.T) {
	for _, tc := range []struct {
		line string
		want float64
	}{
		{`{"recv":901,"sender":102,"t_ms":18400,"rssi":-71.25}`, 0},
		{`{"recv":901,"sender":102,"t_ms":18400,"rssi":-71.25,"schema":1,"pos":{"x":42.5,"y":-3.75}}`, 1},
	} {
		line := []byte(tc.line)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := ParseObservation(line); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != tc.want {
			t.Errorf("ParseObservation(%s) allocates %.0f times, want %.0f", tc.line, allocs, tc.want)
		}
	}
}

// BenchmarkParseObservation measures the ingest decoder per line on the
// two wire schemas (run with -benchmem).
func BenchmarkParseObservation(b *testing.B) {
	for _, bc := range []struct{ name, line string }{
		{"schema0", `{"recv":901,"sender":102,"t_ms":18400,"rssi":-71.25}`},
		{"schema1", `{"recv":901,"sender":102,"t_ms":18400,"rssi":-71.25,"schema":1,"pos":{"x":42.5,"y":-3.75}}`},
	} {
		b.Run(bc.name, func(b *testing.B) {
			line := []byte(bc.line)
			b.SetBytes(int64(len(line)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ParseObservation(line); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestEventEncodeRoundTrip(t *testing.T) {
	out := RoundOutcome{
		Recv:    901,
		At:      20 * time.Second,
		Latency: 1500 * time.Microsecond,
		Result: &core.Result{
			Suspects:   map[vanet.NodeID]bool{102: true, 1: true, 101: true},
			Considered: []vanet.NodeID{1, 2, 3, 101, 102},
			Density:    12.5,
			Skipped:    1,
		},
		Confirmed: map[vanet.NodeID]bool{101: true},
	}
	line := EventFromOutcome(out).Encode()
	if !strings.HasSuffix(string(line), "\n") {
		t.Error("encoded event must end in newline")
	}
	var ev Event
	if err := json.Unmarshal(line, &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Type != "round" || ev.Recv != 901 || ev.TMs != 20000 {
		t.Errorf("header fields wrong: %+v", ev)
	}
	if !idsEqual(ev.Suspects, []vanet.NodeID{1, 101, 102}) {
		t.Errorf("suspects = %v, want sorted [1 101 102]", ev.Suspects)
	}
	if !idsEqual(ev.Confirmed, []vanet.NodeID{101}) {
		t.Errorf("confirmed = %v", ev.Confirmed)
	}
	if ev.Considered != 5 || ev.Skipped != 1 || ev.Density != 12.5 {
		t.Errorf("round stats wrong: %+v", ev)
	}
	if ev.LatencyMs != 1.5 {
		t.Errorf("latency = %v ms, want 1.5", ev.LatencyMs)
	}
}

// TestEventSignalsGolden pins the exact wire bytes of a fusion round
// event (integer identity keys marshal as sorted strings) and proves a
// fusion-off round still encodes byte-identically to the pre-fusion
// protocol — no "signals" key at all.
func TestEventSignalsGolden(t *testing.T) {
	out := RoundOutcome{
		Recv: 901,
		At:   20 * time.Second,
		Result: &core.Result{
			Suspects:   map[vanet.NodeID]bool{101: true, 102: true},
			Considered: []vanet.NodeID{1, 101, 102},
			Density:    4.5,
			Signals: map[vanet.NodeID]map[string]float64{
				101: {"voiceprint": 0.0031, "position": 18.2},
				102: {"clique": 1},
			},
		},
		Confirmed: map[vanet.NodeID]bool{101: true},
	}
	const goldenFused = `{"type":"round","recv":901,"t_ms":20000,"density":4.5,"considered":3,"suspects":[101,102],"confirmed":[101],"signals":{"101":{"position":18.2,"voiceprint":0.0031},"102":{"clique":1}}}` + "\n"
	if got := string(EventFromOutcome(out).Encode()); got != goldenFused {
		t.Errorf("fused event bytes:\n got %s want %s", got, goldenFused)
	}

	out.Result.Signals = nil // fusion off
	const goldenPlain = `{"type":"round","recv":901,"t_ms":20000,"density":4.5,"considered":3,"suspects":[101,102],"confirmed":[101]}` + "\n"
	if got := string(EventFromOutcome(out).Encode()); got != goldenPlain {
		t.Errorf("plain event bytes:\n got %s want %s", got, goldenPlain)
	}

	// An old client — modeled by DecodeEvent, whose validation predates
	// fusion for every other field — accepts both lines.
	for _, line := range []string{goldenFused, goldenPlain} {
		ev, err := DecodeEvent([]byte(line))
		if err != nil {
			t.Fatalf("DecodeEvent(%q): %v", line, err)
		}
		if again := string(ev.Encode()); again != line {
			t.Errorf("decode/encode not a fixed point:\n got %s want %s", again, line)
		}
	}

	for _, bad := range []string{
		`{"type":"round","recv":1,"t_ms":0,"signals":{"5":null}}`,
		`{"type":"round","recv":1,"t_ms":0,"signals":{"5":{"":1}}}`,
		`{"type":"round","recv":1,"t_ms":0,"signals":{"5":{"position":1e999}}}`,
	} {
		if _, err := DecodeEvent([]byte(bad)); !errors.Is(err, ErrMalformed) {
			t.Errorf("DecodeEvent(%q) err = %v, want ErrMalformed", bad, err)
		}
	}
}

func TestEventEncodeEmptyAndError(t *testing.T) {
	line := EventFromOutcome(RoundOutcome{Recv: 7, Result: &core.Result{}}).Encode()
	s := string(line)
	if strings.Contains(s, "null") {
		t.Errorf("empty sets must encode as [], got %s", s)
	}
	errLine := EventFromOutcome(RoundOutcome{Recv: 7, Err: errors.New("boom")}).Encode()
	var ev Event
	if err := json.Unmarshal(errLine, &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Error != "boom" {
		t.Errorf("error event = %+v", ev)
	}
}

func TestAdminHandler(t *testing.T) {
	m := &Metrics{}
	m.ObservationsIngested.Add(42)
	m.MalformedDropped.Add(3)
	m.RoundsRun.Add(7)

	reg, err := NewRegistry(RegistryConfig{Monitor: testMonitorConfig()}, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Observe(Observation{Recv: 1, Sender: 2, TMs: 0, RSSI: -70}); err != nil {
		t.Fatal(err)
	}

	h := NewAdminHandler(AdminConfig{Metrics: m, Registry: reg})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || strings.TrimSpace(rec.Body.String()) != "ok" {
		t.Errorf("/healthz = %d %q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"voiceprintd_observations_ingested_total 43", // 42 + the Observe above
		"voiceprintd_malformed_dropped_total 3",
		"voiceprintd_rounds_run_total 7",
		"voiceprintd_receivers 1",
		"voiceprintd_identities_tracked 1",
		"voiceprintd_identities_evicted_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestAdminHandlerLegacyShim is the dedicated coverage for the
// deprecated two-argument constructor; every other caller has migrated
// to NewAdminHandler with an AdminConfig.
func TestAdminHandlerLegacyShim(t *testing.T) {
	m := &Metrics{}
	reg, err := NewRegistry(RegistryConfig{Monitor: testMonitorConfig()}, m)
	if err != nil {
		t.Fatal(err)
	}
	h := AdminHandler(m, reg)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || strings.TrimSpace(rec.Body.String()) != "ok" {
		t.Errorf("/healthz via shim = %d %q", rec.Code, rec.Body.String())
	}
}

func TestRegistryCapacity(t *testing.T) {
	m := &Metrics{}
	reg, err := NewRegistry(RegistryConfig{Monitor: testMonitorConfig(), MaxReceivers: 2}, m)
	if err != nil {
		t.Fatal(err)
	}
	for recv := vanet.NodeID(1); recv <= 3; recv++ {
		if err := reg.Observe(Observation{Recv: recv, Sender: 9, TMs: 0, RSSI: -70}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(reg.Receivers()); got != 2 {
		t.Errorf("receivers = %d, want capacity 2", got)
	}
	if got := m.ReceiversRejected.Load(); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
}

func TestRegistryRejectsBadTemplate(t *testing.T) {
	bad := testMonitorConfig()
	bad.Detector.MinSamples = -1
	if _, err := NewRegistry(RegistryConfig{Monitor: bad}, &Metrics{}); err == nil {
		t.Error("bad monitor template must fail at construction")
	}
}
