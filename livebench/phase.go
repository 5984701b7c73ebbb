package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"strings"
	"syscall"
	"time"

	"voiceprint/internal/metrics"
	"voiceprint/internal/obs"
	"voiceprint/internal/service"
	"voiceprint/internal/stats"
	"voiceprint/internal/vanet"
)

// setups is how many times the untraced run boots a daemon and replays
// a warm-up window; setup_s is their median. The traced run boots once.
const setups = 15

// drainTimeout is the DrainTimeout of every daemon the run boots.
// Shutdown arms a force-close timer for that long; stopped, it stays in
// the runtime's timer heap until its deadline, and its closure keeps the
// whole daemon reachable. heap_mb is read only after the last shut-down
// daemon's deadline, so that none is counted in it.
const drainTimeout = 200 * time.Millisecond

// recoveries is how many recovery samples the untraced run takes, spread
// over the timed phase like the set-ups; recovery_s is their median.
const recoveries = 7

// liveResult is everything the live phase measured.
type liveResult struct {
	attempted, failed int
	failures          string

	cfg    service.Config
	rec    *recorder
	walDir string
	setup  []time.Duration
	// recovery and recoveryCPU hold the recovery samples (see crash and
	// recoverByResend), in wall-clock and process CPU time.
	recovery, recoveryCPU []time.Duration
	// drained is when the last shut-down daemon's drain timer has
	// expired (see drainTimeout).
	drained time.Time
	timed   []windowRun
	beacons int
	heapMB  float64
	agg     metrics.Aggregator
	dr, fpr float64
	// counters over the timed phase
	pairs            [3]uint64
	fsyncs           uint64
	fsyncNs          obs.HistogramSnapshot
	wall             time.Duration
	cpu              time.Duration
	gcCycles, allocs uint64
	receivers        int
}

// live boots the daemon and replays the timed windows. The untraced run
// takes its set-up and recovery samples between timed windows; with a
// WAL, the traced run crashes and recovers the daemon once, at the end.
func live(w workload, in *input, o options, tmp string) (*liveResult, error) {
	lr := &liveResult{receivers: in.windows[len(in.windows)-1].receivers}
	var err error
	lr.walDir = filepath.Join(tmp, "wal")
	lr.cfg, err = w.serviceConfig(in.maxRangeM, in.maxLines, lr.walDir)
	if err != nil {
		return nil, err
	}
	lr.cfg.DrainTimeout = drainTimeout
	if o.traced {
		lr.rec = newRecorder()
		lr.rec.instrument(&lr.cfg)
	}
	var fails failureCount
	maxEvents := len(in.windows) * lr.receivers

	// The heap baseline is taken with the input already encoded, so
	// heap_mb is the daemon's (and the client's bookkeeping) alone.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	baseHeap := ms.HeapAlloc

	if err := os.RemoveAll(lr.walDir); err != nil {
		return nil, err
	}
	sess, r, err := lr.setUp(lr.cfg, in.windows[0], in.truth, maxEvents, &fails)
	if err != nil {
		return nil, err
	}
	lr.score(&r)
	// The untraced run's other set-ups and its recovery samples are
	// spread over the timed phase, outside every timed window, so that
	// setup_s and recovery_cpu_s sample the host over the whole run and
	// not over a few seconds of it. A set-up runs before the window extra
	// counts it for, a recovery after the window crash marks. Either way a
	// recovery restores the last ConfirmWindow windows: with a WAL from a
	// snapshot taken before the first of them (snap), without one by
	// re-sending them.
	extra := make([]int, len(in.windows))
	crash := make([]bool, len(in.windows))
	snap := make([]bool, len(in.windows))
	if !o.traced {
		timed := len(in.windows) - 1
		for i := 0; i < setups-1; i++ {
			extra[1+i*timed/(setups-1)]++
		}
		for i := 0; i < recoveries; i++ {
			k := 1 + (2*i+1)*timed/(2*recoveries)
			crash[k] = true
			snap[max(1, k+1-lr.cfg.Registry.Monitor.ConfirmWindow)] = true
		}
	}

	m := sess.srv.Metrics()
	pairs0 := [3]uint64{m.PairsCompared.Load(), m.PairsPrunedLB.Load(), m.PairsReusedDirty.Load()}
	fsyncs0, fsync0 := m.WALFsyncs.Load(), m.WALFsyncLatency.Snapshot()
	gc0, alloc0 := runtimeCounters()
	cpu0 := cpuTime()
	start := time.Now()
	for k := 1; k < len(in.windows); k++ {
		for range extra[k] {
			if err := lr.extraSetUp(in.windows[k], in.truth, &fails); err != nil {
				sess.shutdown(true)
				return nil, err
			}
		}
		if snap[k] && lr.cfg.WAL != nil {
			if _, err := sess.srv.Snapshot(); err != nil {
				sess.shutdown(true)
				return nil, fmt.Errorf("snapshot: %w", err)
			}
		}
		if lr.rec != nil {
			// Odd windows are traced, even ones not: trace.overhead is the
			// ratio of their throughputs within one run.
			lr.rec.window.Store(int64(k))
			lr.rec.on.Store(k%2 == 1)
		}
		r, err := sess.replay(in.windows[k], in.truth, lr.rec)
		if err != nil {
			sess.shutdown(true)
			return nil, err
		}
		fails.window(in.windows[k], &r)
		lr.score(&r)
		lr.timed = append(lr.timed, r)
		if crash[k] {
			if lr.cfg.WAL != nil {
				sess, err = lr.crashRecover(sess, maxEvents, &fails)
			} else {
				err = lr.recoverByResend(in, k, &fails)
			}
			if err != nil {
				if sess != nil {
					sess.shutdown(true)
				}
				return nil, err
			}
		}
	}
	lr.wall = time.Since(start)
	lr.cpu = cpuTime() - cpu0
	if lr.rec != nil {
		lr.rec.on.Store(false)
		lr.rec.window.Store(-1)
	}
	// The server counters are read from the first daemon: only the traced
	// run reports them, and it keeps that daemon for the whole phase.
	gc1, alloc1 := runtimeCounters()
	lr.gcCycles, lr.allocs = gc1-gc0, alloc1-alloc0
	lr.pairs = [3]uint64{m.PairsCompared.Load() - pairs0[0], m.PairsPrunedLB.Load() - pairs0[1], m.PairsReusedDirty.Load() - pairs0[2]}
	lr.fsyncs = m.WALFsyncs.Load() - fsyncs0
	lr.fsyncNs = histDelta(m.WALFsyncLatency.Snapshot(), fsync0)
	lr.beacons = in.beacons(1)

	time.Sleep(time.Until(lr.drained))
	runtime.GC()
	runtime.ReadMemStats(&ms)
	lr.heapMB = (float64(ms.HeapAlloc) - float64(baseHeap)) / (1 << 20)

	if err := lr.grade(); err != nil {
		sess.shutdown(true)
		return nil, err
	}

	// The traced run crashes the daemon once, at the end, and leaves the
	// crashed journal of the whole run for the layers' replay pass.
	if o.traced && lr.cfg.WAL != nil {
		srv, err := lr.crash(sess, &fails)
		if err != nil {
			return nil, err
		}
		if err := closeUnserved(srv); err != nil {
			return nil, err
		}
	} else {
		fails.beacons(sess)
		if err := sess.shutdown(true); err != nil {
			return nil, err
		}
		fails.overflow += sess.overflow
	}
	lr.attempted, lr.failed, lr.failures = fails.attempted, fails.total(), fails.String()
	return lr, nil
}

// setUp boots a daemon on cfg and replays w as its warm-up window,
// adding the time taken to the setup_s samples. The daemon is left
// running.
func (lr *liveResult) setUp(cfg service.Config, w window, truth vanet.Truth, maxEvents int, fails *failureCount) (*session, windowRun, error) {
	// Each set-up starts from a collected heap, so none pays for the
	// garbage left before it.
	runtime.GC()
	start := time.Now()
	s, err := boot(cfg, maxEvents)
	if err != nil {
		return nil, windowRun{}, err
	}
	r, err := s.replay(w, truth, nil)
	if err != nil {
		s.shutdown(true)
		return nil, windowRun{}, err
	}
	lr.setup = append(lr.setup, time.Since(start))
	fails.window(w, &r)
	return s, r, nil
}

// extraSetUp is one more set-up sample, taken between timed windows: a
// fresh daemon, with a WAL directory of its own, boots and takes window
// w as its warm-up, then shuts down. Using the next timed window rather
// than the first one each time averages the set-up cost over the
// stream's windows, whose sizes differ.
func (lr *liveResult) extraSetUp(w window, truth vanet.Truth, fails *failureCount) error {
	cfg := lr.cfg
	if cfg.WAL != nil {
		walCfg := *cfg.WAL
		walCfg.Dir = lr.walDir + "-setup"
		if err := os.RemoveAll(walCfg.Dir); err != nil {
			return err
		}
		cfg.WAL = &walCfg
	}
	// A fresh daemon answers only for the receivers it has heard.
	w.receivers = len(w.recvs)
	s, _, err := lr.setUp(cfg, w, truth, w.receivers, fails)
	if err != nil {
		return err
	}
	fails.beacons(s)
	if err := s.shutdown(true); err != nil {
		return err
	}
	lr.drained = time.Now().Add(drainTimeout)
	fails.overflow += s.overflow
	return nil
}

// crashRecover crashes the live daemon and restarts it on the same WAL
// directory (see crash); the recovered daemon serves the rest of the
// run.
func (lr *liveResult) crashRecover(s *session, maxEvents int, fails *failureCount) (*session, error) {
	srv, err := lr.crash(s, fails)
	if err != nil {
		return nil, err
	}
	return attach(srv, maxEvents)
}

// crash aborts the daemon's WAL (no final fsync, no shutdown snapshot)
// and shuts it down, then times NewServer on the same directory as a
// recovery sample: it loads the last snapshot, replays the journal
// written since and re-runs those rounds. The recovered confirmed sets
// must equal those before the crash. The recovered daemon is returned
// unserved.
func (lr *liveResult) crash(s *session, fails *failureCount) (*service.Server, error) {
	before := confirmedSets(s.srv.Registry())
	fails.beacons(s)
	if err := s.shutdown(true); err != nil {
		return nil, err
	}
	fails.overflow += s.overflow
	lr.drained = time.Now().Add(drainTimeout)
	cpu0 := cpuTime()
	start := time.Now()
	srv, err := service.NewServer(lr.cfg)
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	lr.recovery = append(lr.recovery, time.Since(start))
	lr.recoveryCPU = append(lr.recoveryCPU, cpuTime()-cpu0)
	fails.attempted += len(before)
	fails.recovery += confirmedMismatches(before, confirmedSets(srv.Registry()))
	return srv, nil
}

// recoverByResend is a recovery sample without a WAL, taken after timed
// window k. A restarted daemon has lost its detection state, the K-of-N
// confirmation history included, so it is recovered once the client has
// re-sent the last ConfirmWindow windows: a fresh daemon is timed from
// NewServer until the last of windows k-ConfirmWindow+1..k has its
// verdicts decoded. The live daemon is left as it is.
func (lr *liveResult) recoverByResend(in *input, k int, fails *failureCount) error {
	// A fresh daemon materializes only the receivers the re-sent lines
	// name, so each window's sweep answers for those heard so far.
	ws := slices.Clone(in.windows[max(0, k+1-lr.cfg.Registry.Monitor.ConfirmWindow) : k+1])
	heard := map[vanet.NodeID]bool{}
	for i := range ws {
		for _, r := range ws[i].recvs {
			heard[r] = true
		}
		ws[i].receivers = len(heard)
	}
	runtime.GC()
	cpu0 := cpuTime()
	start := time.Now()
	s, err := boot(lr.cfg, len(ws)*len(heard))
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	var last time.Time
	var cpuEnd time.Duration
	for _, w := range ws {
		r, err := s.replay(w, in.truth, nil)
		if err != nil {
			s.shutdown(false)
			return fmt.Errorf("recover: %w", err)
		}
		fails.window(w, &r)
		last, cpuEnd = r.lastEvent, r.cpuEnd
	}
	lr.recovery = append(lr.recovery, last.Sub(start))
	lr.recoveryCPU = append(lr.recoveryCPU, cpuEnd-cpu0)
	fails.beacons(s)
	if err := s.shutdown(false); err != nil {
		return err
	}
	lr.drained = time.Now().Add(drainTimeout)
	fails.overflow += s.overflow
	return nil
}

// closeUnserved releases a server that never served: the WAL is aborted
// so the journal stays as the crash left it for the traced run's replay
// pass, and a pre-cancelled Serve closes the listener.
func closeUnserved(srv *service.Server) error {
	if srv.WAL() != nil {
		srv.WAL().Abort()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return srv.Serve(ctx)
}

// score folds a window's rounds into Equations 12 and 13.
func (lr *liveResult) score(r *windowRun) {
	for _, o := range r.outcomes {
		if o.err == nil {
			lr.agg.Add(o.counts)
		}
	}
}

func (lr *liveResult) grade() error {
	var err error
	if lr.dr, err = lr.agg.MeanDR(); err != nil {
		return fmt.Errorf("detection rate: %w", err)
	}
	if lr.fpr, err = lr.agg.MeanFPR(); err != nil {
		return fmt.Errorf("false-positive rate: %w", err)
	}
	return nil
}

// failureCount tallies attempted and failed operations: every beacon
// sent, every verdict event expected, and every receiver whose confirmed
// set is compared after recovery.
type failureCount struct {
	attempted                                     int
	droppedBeacons, badEvents, recovery, overflow int
}

func (f *failureCount) window(w window, r *windowRun) {
	f.attempted += w.n + w.receivers
	f.badEvents += r.check()
}

// beacons charges every line the daemon did not ingest.
func (f *failureCount) beacons(s *session) {
	m := s.srv.Metrics()
	f.droppedBeacons += int(dropped(m))
	if ing := m.ObservationsIngested.Load(); ing+dropped(m) < s.sent {
		f.droppedBeacons += int(s.sent - ing - dropped(m))
	}
}

func (f *failureCount) total() int {
	return f.droppedBeacons + f.badEvents + f.recovery + f.overflow
}

func (f *failureCount) String() string {
	return fmt.Sprintf("dropped beacons %d, bad or missing events %d, extra events %d, confirmed sets changed by recovery %d",
		f.droppedBeacons, f.badEvents, f.overflow, f.recovery)
}

// runtimeCounters reads the GC cycle count and the cumulative heap
// allocation bytes.
func runtimeCounters() (cycles, allocBytes uint64) {
	s := []rtmetrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// histDelta subtracts an earlier snapshot of the same histogram.
func histDelta(now, then obs.HistogramSnapshot) obs.HistogramSnapshot {
	d := obs.HistogramSnapshot{Sum: now.Sum - then.Sum}
	for i := range d.Buckets {
		d.Buckets[i] = now.Buckets[i] - then.Buckets[i]
		d.Count += d.Buckets[i]
	}
	return d
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// endToEnd fills the untraced run's metrics. The costs are process CPU
// time, client included: on a shared host the wall clock also counts
// the time other tenants hold the cores (see README.md).
func endToEnd(lr *liveResult, out map[string]metric) {
	var cpu time.Duration
	var verdict []float64
	for _, r := range lr.timed {
		cpu += r.cpuEnd - r.cpuStart
		verdict = append(verdict, ms(r.cpuEnd-r.cpuAccounted))
	}
	// Every sample slice is non-empty: there are at least two timed
	// windows, one set-up and one recovery.
	setup, _ := stats.Median(seconds(lr.setup))
	verdictP50, _ := stats.Median(verdict)
	recovery, _ := stats.Median(seconds(lr.recoveryCPU))
	out["setup_s"] = metric{setup, "s"}
	out["cpu_us_per_beacon"] = metric{cpu.Seconds() * 1e6 / float64(lr.beacons), "us"}
	out["verdict_cpu_p50_ms"] = metric{verdictP50, "ms"}
	out["heap_mb"] = metric{lr.heapMB, "MB"}
	out["recovery_cpu_s"] = metric{recovery, "s"}
	out["detection_rate"] = metric{lr.dr, "ratio"}
	// Equation 13's false-positive rate varies by a fifth between seeds
	// at a median near 0.16; its complement carries the same information
	// with a spread a relative bound can hold.
	out["true_negative_rate"] = metric{1 - lr.fpr, "ratio"}
}

// wallClock gives the untraced run's wall-clock figures: beacons in the
// timed windows over the sum of their first-write to last-verdict times,
// the median time from a window fully accounted to its last verdict
// decoded, and the median recovery time.
func wallClock(lr *liveResult) (beaconsPerS, verdictP50ms, recoveryS float64) {
	var active time.Duration
	var verdict []float64
	for _, r := range lr.timed {
		active += r.lastEvent.Sub(r.start)
		verdict = append(verdict, ms(r.lastEvent.Sub(r.accounted)))
	}
	verdictP50ms, _ = stats.Median(verdict)
	recoveryS, _ = stats.Median(seconds(lr.recovery))
	return float64(lr.beacons) / active.Seconds(), verdictP50ms, recoveryS
}

// runConfig is recorded with every result: the host, the daemon
// configuration, and the workload seed the daemon never sees.
type runConfig struct {
	Workload       string  `json:"workload"`
	Seed           int64   `json:"seed"`
	Seconds        int     `json:"seconds"`
	Traced         bool    `json:"traced"`
	CPU            string  `json:"cpu"`
	NumCPU         int     `json:"nproc"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	GoVersion      string  `json:"go_version"`
	Campaign       string  `json:"campaign"`
	PeriodS        float64 `json:"period_s"`
	Windows        int     `json:"windows"`
	TimedBeacons   int     `json:"timed_beacons"`
	Receivers      int     `json:"receivers"`
	Schema         int     `json:"schema"`
	Fusion         bool    `json:"fusion"`
	WAL            string  `json:"wal_fsync"`
	IngestBuffer   int     `json:"ingest_buffer"`
	Workers        int     `json:"detector_workers"`
	WorkersReason  string  `json:"detector_workers_reason"`
	SchedulerPool  int     `json:"scheduler_pool"`
	VerdictSamples int     `json:"verdict_samples"`
	GenerateS      float64 `json:"generate_s"`
	PeakRSSMB      float64 `json:"peak_rss_mb"`
}

func describe(w workload, o options, in *input, lr *liveResult) runConfig {
	c := runConfig{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Traced: o.traced,
		CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Campaign: w.kind, PeriodS: w.period.Seconds(), Windows: len(in.windows), TimedBeacons: lr.beacons,
		Receivers: lr.receivers, Fusion: w.fusion, WAL: "off", IngestBuffer: lr.cfg.IngestBuffer,
		Workers: workersPin, WorkersReason: workersPinReason, SchedulerPool: runtime.GOMAXPROCS(0),
		VerdictSamples: len(lr.timed), GenerateS: in.generate.Seconds(), PeakRSSMB: peakRSSMB(),
	}
	if w.positions {
		c.Schema = 1
	}
	if lr.cfg.WAL != nil {
		c.WAL = lr.cfg.WAL.Fsync.String()
	}
	return c
}

// peakRSSMB is the process's peak resident set (VmHWM), 0 when unknown.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(v), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}
