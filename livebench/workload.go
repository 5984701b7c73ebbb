package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime/debug"
	"syscall"
	"time"

	"voiceprint/internal/core"
	"voiceprint/internal/scorecard"
	"voiceprint/internal/service"
	"voiceprint/internal/trace"
	"voiceprint/internal/vanet"
	"voiceprint/internal/wal"
)

// workload is one input mix. README.md records why each exists and which
// layer metrics it is expected to move.
type workload struct {
	name string
	// kind is the vanet campaign the trace is generated from.
	kind string
	// period is the stream-time spacing of detection rounds; the monitor
	// window is the detector's 20 s observation time either way.
	period time.Duration
	// windowsPerSecond sizes the replayed stream: --seconds s of run
	// replays round(s*windowsPerSecond) timed windows after the warm-up
	// one. The rate was calibrated so the timed phase lasts about
	// --seconds on a 2-vCPU host; the work is fixed by the seed and
	// --seconds, never by the clock, so a faster program finishes sooner.
	windowsPerSecond float64
	// positions keeps the claimed sender positions (schema-1 lines);
	// without it the lines are schema-0, as a plain OBU feed sends them.
	positions bool
	// fusion runs the -fusion posture (scorecard.FusionConfig); wal
	// journals to a write-ahead log with the default interval fsync.
	fusion, wal bool
}

var workloads = []workload{
	{
		name:             "sparse-ingest",
		kind:             vanet.KindColludingFleet,
		period:           20 * time.Second,
		windowsPerSecond: 2.0,
		positions:        true,
		fusion:           true,
		wal:              true,
	},
	{
		name:             "dense-compare",
		kind:             vanet.KindDenseHighway,
		period:           15 * time.Second,
		windowsPerSecond: 1.3,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// workersPin is the core.Config.Workers value every run uses, and
// workersPinReason the reason, recorded with each result. The scheduler
// pool stays at GOMAXPROCS, so rounds for different receivers still run
// in parallel.
const (
	workersPin       = 1
	workersPinReason = "the parallel compare workers write the dirty-pair memo map concurrently " +
		"(fatal error: concurrent map read and map write in pairMemo); " +
		"return to the default once that race is fixed"
)

// serviceConfig is the daemon configuration of a workload: the
// scorecard's grading setup (trained boundary, 2-of-3 confirmation,
// LB pruning, the campaign's range as Dist_max), with fusion only where
// the workload asks for it, the compare-worker pin, an ingest buffer
// that holds the largest window so delivery is lossless, and rounds
// fired only by the client (the wall-clock ticker is pushed out of
// reach).
func (w workload) serviceConfig(maxRangeM float64, ingestBuffer int, walDir string) (service.Config, error) {
	cfg, err := scorecard.FusionConfig(maxRangeM)
	if err != nil {
		return service.Config{}, err
	}
	if !w.fusion {
		cfg.Registry.Monitor.Fusion = core.FusionOptions{}
		cfg.Coordinator = nil
	}
	cfg.Network, cfg.Addr = "tcp", "127.0.0.1:0"
	cfg.Period = 24 * time.Hour
	cfg.Registry.Monitor.Detector.Workers = workersPin
	cfg.IngestBuffer = max(ingestBuffer, cfg.IngestBuffer)
	if w.wal {
		// SnapshotInterval < 0: no periodic compaction, so recovery
		// replays the whole journal of the run.
		cfg.WAL = &service.WALConfig{Dir: walDir, Fsync: wal.SyncInterval, SnapshotInterval: -1}
	}
	return cfg, nil
}

// window is one detection period of pre-encoded NDJSON lines.
type window struct {
	// lines holds the encoded lines, outside the Go heap (see offHeap).
	lines []byte
	// n counts the lines; receivers counts the distinct receivers heard
	// up to and including this window, which is how many verdict events
	// the window's sweep must produce.
	n, receivers int
	// recvs lists the receivers heard in this window.
	recvs []vanet.NodeID
}

// input is a workload's generated stream.
type input struct {
	windows   []window
	truth     vanet.Truth
	maxRangeM float64
	maxLines  int
	generate  time.Duration
}

// beacons counts the lines of windows[from:].
func (in *input) beacons(from int) int {
	n := 0
	for _, w := range in.windows[from:] {
		n += w.n
	}
	return n
}

func (in *input) free() {
	for _, w := range in.windows {
		if w.lines != nil {
			_ = syscall.Munmap(w.lines)
		}
	}
	in.windows = nil
}

// timedWindows is the number of windows replayed after the warm-up one.
func (w workload) timedWindows(seconds int) int {
	return max(2, int(math.Round(float64(seconds)*w.windowsPerSecond)))
}

// generate builds the workload's campaign trace from seed and encodes it
// into per-period windows of wire lines. malformed, when positive,
// replaces that many lines of the last window with an unparseable one
// (the smoke test's fault injection).
func (w workload) generate(seed int64, seconds, malformed int) (*input, error) {
	start := time.Now()
	// The trace and its records are garbage once encoded; a tight GC
	// target while they live keeps the process's peak memory down. The
	// daemon runs under the default target afterwards.
	defer debug.SetGCPercent(debug.SetGCPercent(20))
	defer debug.FreeOSMemory()
	nw := 1 + w.timedWindows(seconds)
	cfg, err := vanet.DefaultCampaign(w.kind)
	if err != nil {
		return nil, err
	}
	cfg.DurationS = (time.Duration(nw) * w.period).Seconds()
	records, truth, err := trace.CampaignRecords(cfg, seed)
	if err != nil {
		return nil, err
	}
	in := &input{truth: truth, maxRangeM: cfg.MaxRangeM}
	heard := map[vanet.NodeID]bool{}
	var buf []byte
	i := 0
	for k := 0; k < nw; k++ {
		end := time.Duration(k+1) * w.period
		buf = buf[:0]
		n := 0
		inWindow := map[vanet.NodeID]bool{}
		for ; i < len(records) && records[i].T < end; i++ {
			r := records[i]
			heard[r.Receiver] = true
			inWindow[r.Receiver] = true
			o := service.Observation{Recv: r.Receiver, Sender: r.Sender, TMs: r.T.Milliseconds(), RSSI: r.RSSI}
			if w.positions && r.Pos != nil {
				o.Schema = 1
				o.Pos = &service.Position{X: r.Pos.X, Y: r.Pos.Y}
			}
			line, err := json.Marshal(o)
			if err != nil {
				return nil, err
			}
			if k == nw-1 && n < malformed {
				line = []byte(`{"recv":`)
			}
			buf = append(append(buf, line...), '\n')
			n++
		}
		if n == 0 {
			in.free()
			return nil, fmt.Errorf("%s: window %d of seed %d is empty", w.name, k, seed)
		}
		var recvs []vanet.NodeID
		for r := range inWindow {
			recvs = append(recvs, r)
		}
		lines, err := offHeap(buf)
		if err != nil {
			in.free()
			return nil, err
		}
		in.windows = append(in.windows, window{lines: lines, n: n, receivers: len(heard), recvs: recvs})
		in.maxLines = max(in.maxLines, n)
	}
	in.generate = time.Since(start)
	return in, nil
}

// offHeap copies b into anonymous memory outside the Go heap. The input
// lines are several hundred MB on long runs; kept on the heap they would
// raise the garbage collector's target and so hide the daemon's own
// allocation cost, which is what a faster decoder would cut.
func offHeap(b []byte) ([]byte, error) {
	m, err := syscall.Mmap(-1, 0, len(b), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map input window: %w", err)
	}
	copy(m, b)
	return m, nil
}
