package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"voiceprint/internal/core"
	"voiceprint/internal/service"
	"voiceprint/internal/stats"
	"voiceprint/internal/wal"
)

// passLines caps the lines the in-process ingest passes replay; whole
// windows are taken until the cap is reached.
const passLines = 300_000

// encodeRepeats is how many times the encode pass re-encodes every
// verdict event of the run.
const encodeRepeats = 50

// layers runs the traced run's in-process passes, after the live phase
// so they cannot distort it, and fills the per-layer metrics.
func layers(w workload, in *input, o options, tmp string, lr *liveResult, out map[string]metric, log io.Writer) error {
	rec := lr.rec
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	// Ingest passes over the first timed windows' bytes: scan, parse,
	// registry apply, and (with a WAL) journal append, each on its own.
	var data [][]byte
	lines := 0
	for _, win := range in.windows[1:] {
		if lines >= passLines {
			break
		}
		data = append(data, win.lines)
		lines += win.n
	}
	scanNs, scanned := timeSpan(rec, "pass.scan", func() int {
		n := 0
		for _, d := range data {
			sc := service.NewLineScanner(bytes.NewReader(d), 0)
			for sc.Scan() {
				n++
			}
		}
		return n
	})
	if scanned != lines {
		return fmt.Errorf("scan pass read %d of %d lines", scanned, lines)
	}
	obsv := make([]service.Observation, 0, lines)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	parseNs, bad := timeSpan(rec, "pass.parse", func() int {
		bad := 0
		for _, d := range data {
			for len(d) > 0 {
				i := bytes.IndexByte(d, '\n')
				o, err := service.ParseObservation(d[:i])
				if err != nil {
					bad++
				} else {
					obsv = append(obsv, o)
				}
				d = d[i+1:]
			}
		}
		return bad
	})
	runtime.ReadMemStats(&after)
	parsed := len(obsv) + bad
	put("server.scan_ns_per_line", scanNs/float64(lines), "ns")
	put("protocol.parse_ns_per_line", parseNs/float64(parsed), "ns")
	// The observation slice was allocated before the pass, so the count
	// is the decoder's own.
	put("protocol.parse_allocs_per_line", float64(after.Mallocs-before.Mallocs)/float64(parsed), "allocs/line")

	reg, err := service.NewRegistry(lr.cfg.Registry, &service.Metrics{})
	if err != nil {
		return err
	}
	observeNs, observeErrs := timeSpan(rec, "pass.observe", func() int {
		errs := 0
		for _, ob := range obsv {
			if reg.Observe(ob) != nil {
				errs++
			}
		}
		return errs
	})
	put("registry.observe_ns_per_obs", observeNs/float64(len(obsv)), "ns")

	var appendNs, replayRecords, replayObsNs, replayRoundNs float64
	replayErrs := 0
	if lr.cfg.WAL != nil {
		l, _, err := wal.Open(wal.Options{Dir: filepath.Join(tmp, "append-pass"), Policy: lr.cfg.WAL.Fsync})
		if err != nil {
			return err
		}
		var errs int
		appendNs, errs = timeSpan(rec, "pass.wal_append", func() int {
			errs := 0
			for _, ob := range obsv {
				var err error
				if ob.Pos != nil {
					err = l.AppendObservationPos(ob.Recv, ob.Sender, ob.T(), ob.RSSI, ob.Pos.X, ob.Pos.Y)
				} else {
					err = l.AppendObservation(ob.Recv, ob.Sender, ob.T(), ob.RSSI)
				}
				if err != nil {
					errs++
				}
			}
			return errs
		})
		if err := l.Close(); err != nil {
			return err
		}
		appendNs /= float64(len(obsv))
		replayErrs += errs

		replayRecords, replayObsNs, replayRoundNs, err = replayPass(lr, rec)
		if err != nil {
			return err
		}
	}
	if observeErrs+replayErrs > 0 {
		return fmt.Errorf("in-process passes: %d registry and %d journal errors", observeErrs, replayErrs)
	}
	put("wal.append_ns_per_record", appendNs, "ns")
	put("wal.fsyncs", float64(lr.fsyncs), "count")
	put("wal.fsync_p50_us", lr.fsyncNs.Quantile(0.5)/1e3, "us")
	put("wal.replay_records_per_s", rate(replayRecords, replayObsNs), "1/s")
	put("wal.replay_round_s", replayRoundNs/1e9, "s")

	// Live-phase spans and counters.
	var drainMs, sweeps, rounds, fanout []float64
	var roundSum, sweepSum float64
	var tracedBeacons, untracedBeacons int
	var tracedNs, untracedNs float64
	var pairs, fullRounds int
	var compareNs float64
	for k, r := range lr.timed {
		win := in.windows[k+1]
		drainMs = append(drainMs, ms(r.accounted.Sub(r.flushed)))
		sweep := ms(r.detected.Sub(r.accounted))
		sweeps = append(sweeps, sweep)
		sweepSum += sweep
		fanout = append(fanout, ms(r.lastEvent.Sub(r.detected)))
		active := float64(r.lastEvent.Sub(r.start).Nanoseconds())
		traced := (k+1)%2 == 1
		if traced {
			tracedBeacons += win.n
			tracedNs += active
		} else {
			untracedBeacons += win.n
			untracedNs += active
		}
		for _, o := range r.outcomes {
			rounds = append(rounds, ms(o.latency))
			roundSum += ms(o.latency)
			if !o.cached {
				fullRounds++
				if traced {
					pairs += o.pairs[0] + o.pairs[1] + o.pairs[2]
				}
			}
		}
	}
	put("server.drain_ms_per_kbeacon", sum(drainMs)/(float64(lr.beacons)/1e3), "ms")
	// sweeps, rounds and fanout hold one sample or more per timed window.
	sweepP50, _ := stats.Median(sweeps)
	roundP50, _ := stats.Median(rounds)
	roundP90, _ := stats.Quantile(rounds, 0.9)
	fanoutP50, _ := stats.Median(fanout)
	put("scheduler.sweep_ms_p50", sweepP50, "ms")
	put("scheduler.round_ms_p50", roundP50, "ms")
	put("scheduler.round_ms_p90", roundP90, "ms")
	put("scheduler.parallelism", roundSum/sweepSum, "ratio")
	for _, s := range stages {
		row := rec.row("core." + s.String())
		put("core."+s.String()+"_ms", row.MeanMs, "ms")
		if s == core.StageCompare {
			compareNs = row.TotalMs * 1e6
		}
	}
	put("core.compare_ns_per_pair", compareNs/float64(max(pairs, 1)), "ns")
	total := float64(lr.pairs[0] + lr.pairs[1] + lr.pairs[2])
	put("core.pairs_per_round", total/float64(max(fullRounds, 1)), "count")
	put("core.full_dp_ratio", float64(lr.pairs[0])/max(total, 1), "ratio")
	put("core.lb_pruned_ratio", float64(lr.pairs[1])/max(total, 1), "ratio")
	put("core.memo_hit_ratio", float64(lr.pairs[2])/max(total, 1), "ratio")
	put("fusion.position_ms", rec.row("fusion.position").MeanMs, "ms")
	put("fusion.coordinate_ms", rec.row("fusion.coordinate").MeanMs, "ms")
	put("server.fanout_ms", fanoutP50, "ms")

	var events []service.Event
	for _, r := range lr.timed {
		for _, e := range r.events {
			events = append(events, e.ev)
		}
	}
	encodeNs, _ := timeSpan(rec, "pass.encode", func() int {
		n := 0
		for i := 0; i < encodeRepeats; i++ {
			for _, ev := range events {
				n += len(ev.Encode())
			}
		}
		return n
	})
	put("protocol.encode_ns_per_event", encodeNs/float64(max(len(events)*encodeRepeats, 1)), "ns")

	put("runtime.cpu_util", lr.cpu.Seconds()/lr.wall.Seconds(), "cores")
	put("runtime.gc_cycles", float64(lr.gcCycles), "count")
	put("runtime.alloc_bytes_per_beacon", float64(lr.allocs)/float64(lr.beacons), "B")
	put("trace.overhead", rate(float64(tracedBeacons), tracedNs)/rate(float64(untracedBeacons), untracedNs), "ratio")

	path, err := rec.dump(o.out, fmt.Sprintf("%s-seed%d", w.name, o.seed))
	if err != nil {
		return err
	}
	writeTable(log, rec.table())
	fmt.Fprintf(log, "spans %s\n", path)
	return nil
}

// replayPass reopens the crashed daemon's journal and replays it the way
// NewServer does, into a fresh registry and scheduler, timing the
// observation and round callbacks apart.
func replayPass(lr *liveResult, rec *recorder) (records, obsNs, roundNs float64, err error) {
	l, rc, err := wal.Open(wal.Options{Dir: lr.walDir, Policy: wal.SyncNone})
	if err != nil {
		return 0, 0, 0, err
	}
	defer l.Abort()
	m := &service.Metrics{}
	reg, err := service.NewRegistry(lr.cfg.Registry, m)
	if err != nil {
		return 0, 0, 0, err
	}
	sched, err := service.NewScheduler(reg, m, lr.cfg.Workers, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	root := rec.begin("wal.replay", -1)
	start := time.Now()
	var rounds time.Duration
	err = rc.Replay(func(r wal.Record) error {
		switch r.Kind {
		case wal.KindObservation:
			records++
			return reg.Observe(service.Observation{Recv: r.Recv, Sender: r.Sender, TMs: r.T.Milliseconds(), RSSI: r.RSSI})
		case wal.KindObservationPos:
			records++
			return reg.Observe(service.Observation{Recv: r.Recv, Sender: r.Sender, TMs: r.T.Milliseconds(), RSSI: r.RSSI,
				Schema: 1, Pos: &service.Position{X: r.X, Y: r.Y}})
		case wal.KindRound:
			t := time.Now()
			out := sched.DetectOne(r.Recv, r.At)
			d := time.Since(t)
			rounds += d
			rec.add("wal.replay_round", root, rec.at(t), rec.at(t.Add(d)))
			if out.Err != nil {
				return out.Err
			}
		}
		return nil
	})
	rec.finish(root)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("replay pass: %w", err)
	}
	return records, float64((time.Since(start) - rounds).Nanoseconds()), float64(rounds.Nanoseconds()), nil
}

// timeSpan runs f inside a span and returns its duration in ns and f's
// result.
func timeSpan(rec *recorder, name string, f func() int) (float64, int) {
	i := rec.begin(name, -1)
	start := time.Now()
	n := f()
	d := time.Since(start)
	rec.finish(i)
	return float64(d.Nanoseconds()), n
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func rate(n, ns float64) float64 {
	if ns <= 0 {
		return 0
	}
	return n / (ns / 1e9)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
