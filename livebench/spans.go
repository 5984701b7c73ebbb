package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"voiceprint/internal/core"
	"voiceprint/internal/service"
)

// span is one timed interval of the traced run. Times are nanoseconds
// since the recorder started; Parent indexes the recorder's span list
// (-1 for a root); every span recorded while a window is replayed
// carries that window's index (-1 outside the live phase).
type span struct {
	Name    string `json:"name"`
	Window  int    `json:"window"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder holds the traced run's spans in memory until the run ends.
// The hooks installed into the daemon (stage observer, signal and
// coordinator wrappers) record only while on is set, so untraced
// windows of the same run give the tracing overhead.
type recorder struct {
	base   time.Time
	on     atomic.Bool
	window atomic.Int64
	// parent is the span the daemon-side hooks attach to: the sweep in
	// flight.
	parent atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	r := &recorder{base: time.Now()}
	r.window.Store(-1)
	r.parent.Store(-1)
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// add records a finished span and returns its index.
func (r *recorder) add(name string, parent int, start, end int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Window: int(r.window.Load()), Parent: parent, StartNs: start, EndNs: end})
	return len(r.spans) - 1
}

// begin opens a span whose end is set by finish.
func (r *recorder) begin(name string, parent int) int {
	return r.add(name, parent, r.now(), 0)
}

func (r *recorder) finish(i int) { r.finishAt(i, time.Now()) }

func (r *recorder) finishAt(i int, t time.Time) {
	end := r.at(t)
	r.mu.Lock()
	r.spans[i].EndNs = end
	r.mu.Unlock()
}

// at converts a wall-clock reading to the recorder's time base.
func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.base)) }

// ObserveStage implements core.Observer: each stage duration becomes a
// span ending now, parented to the sweep in flight.
func (r *recorder) ObserveStage(s core.Stage, d time.Duration) {
	if !r.on.Load() {
		return
	}
	end := r.now()
	r.add("core."+s.String(), int(r.parent.Load()), end-int64(d), end)
}

// tracedSignal records a span around a fusion signal's Analyze.
type tracedSignal struct {
	core.Signal
	rec *recorder
}

func (s tracedSignal) Analyze(in *core.SignalInput) (*core.SignalResult, error) {
	if !s.rec.on.Load() {
		return s.Signal.Analyze(in)
	}
	start := s.rec.now()
	res, err := s.Signal.Analyze(in)
	s.rec.add("fusion."+s.Signal.Name(), int(s.rec.parent.Load()), start, s.rec.now())
	return res, err
}

// Validate forwards the wrapped signal's validation, which
// core.FusionOptions looks up by interface.
func (s tracedSignal) Validate() error {
	if v, ok := s.Signal.(interface{ Validate() error }); ok {
		return v.Validate()
	}
	return nil
}

// tracedCoordinator records a span around the cross-receiver pass.
type tracedCoordinator struct {
	service.RoundCoordinator
	rec *recorder
}

func (c tracedCoordinator) Coordinate(outs []service.RoundOutcome) []service.RoundOutcome {
	if !c.rec.on.Load() {
		return c.RoundCoordinator.Coordinate(outs)
	}
	start := c.rec.now()
	res := c.RoundCoordinator.Coordinate(outs)
	c.rec.add("fusion.coordinate", int(c.rec.parent.Load()), start, c.rec.now())
	return res
}

// instrument installs the recorder's hooks into a daemon configuration.
func (r *recorder) instrument(cfg *service.Config) {
	cfg.Registry.Monitor.Detector.Observer = r
	sigs := make([]core.Signal, len(cfg.Registry.Monitor.Fusion.Signals))
	for i, s := range cfg.Registry.Monitor.Fusion.Signals {
		sigs[i] = tracedSignal{Signal: s, rec: r}
	}
	cfg.Registry.Monitor.Fusion.Signals = sigs
	if cfg.Coordinator != nil {
		cfg.Coordinator = tracedCoordinator{RoundCoordinator: cfg.Coordinator, rec: r}
	}
}

// layerRow is one span name's totals. Self time is a span's duration
// minus the part of it its children cover.
type layerRow struct {
	Name    string
	Count   int
	TotalMs float64
	SelfMs  float64
	MeanMs  float64
}

// table aggregates the spans by name, in first-seen order.
func (r *recorder) table() []*layerRow {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make([][]int, len(r.spans))
	for i, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	rows := map[string]*layerRow{}
	var order []*layerRow
	for i, s := range r.spans {
		row := rows[s.Name]
		if row == nil {
			row = &layerRow{Name: s.Name}
			rows[s.Name] = row
			order = append(order, row)
		}
		d := s.EndNs - s.StartNs
		row.Count++
		row.TotalMs += float64(d) / 1e6
		row.SelfMs += float64(d-covered(s, r.spans, children[i])) / 1e6
	}
	for _, row := range order {
		row.MeanMs = row.TotalMs / float64(row.Count)
	}
	return order
}

// covered returns how much of s the union of its children's intervals
// covers; concurrent children (rounds of different receivers) overlap.
func covered(s span, spans []span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].StartNs, s.StartNs), min(spans[k].EndNs, s.EndNs)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
			continue
		}
		curB = max(curB, v[1])
	}
	return total + curB - curA
}

func (r *recorder) row(name string) *layerRow {
	for _, row := range r.table() {
		if row.Name == name {
			return row
		}
	}
	return &layerRow{Name: name}
}

// writeTable prints the per-span-name totals.
func writeTable(w io.Writer, rows []*layerRow) {
	fmt.Fprintf(w, "%-22s %8s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "mean_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %8d %12.3f %12.3f %10.4f\n", r.Name, r.Count, r.TotalMs, r.SelfMs, r.MeanMs)
	}
}

// dump writes the span list as JSON and the per-name table as text into
// dir, returning the span file's path.
func (r *recorder) dump(dir, stem string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	r.mu.Lock()
	data, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := dir + "/" + stem + "-spans.json"
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	var b strings.Builder
	writeTable(&b, r.table())
	return path, os.WriteFile(dir+"/"+stem+"-layers.txt", []byte(b.String()), 0o644)
}
