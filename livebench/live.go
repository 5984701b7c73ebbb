package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"voiceprint/internal/core"
	"voiceprint/internal/metrics"
	"voiceprint/internal/service"
	"voiceprint/internal/vanet"
)

// waitLimit bounds the waits for ingest and shutdown; hitting it fails
// the run rather than hanging it. eventWait bounds the wait for a
// sweep's verdict events.
const (
	waitLimit = 60 * time.Second
	eventWait = 5 * time.Second
)

// event is one verdict event as the client decoded it.
type event struct {
	ev  service.Event
	err error
	at  time.Time
}

// session is one booted daemon with the benchmark's single client
// connection: observation lines out, verdict events back.
type session struct {
	srv    *service.Server
	stop   context.CancelFunc
	served chan error
	conn   net.Conn
	events chan event
	// overflow counts events that arrived while events was full: more
	// than the run can expect, so each is a failed operation.
	overflow   int
	readerDone chan int
	sent       uint64
}

// boot starts a daemon on cfg, serves it and dials it. maxEvents is the
// most verdict events the session can produce, which sizes the event
// buffer so the reader never blocks on the client.
func boot(cfg service.Config, maxEvents int) (*session, error) {
	srv, err := service.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	return attach(srv, maxEvents)
}

// attach serves srv and dials it. Lines the server has already accounted
// for, such as those a recovery replayed from its journal, are not the
// session's.
func attach(srv *service.Server, maxEvents int) (*session, error) {
	ctx, stop := context.WithCancel(context.Background())
	s := &session{srv: srv, stop: stop, served: make(chan error, 1), sent: accounted(srv.Metrics())}
	go func() { s.served <- srv.Serve(ctx) }()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		s.shutdown(false)
		return nil, fmt.Errorf("dial daemon: %w", err)
	}
	s.conn = conn
	s.events = make(chan event, maxEvents)
	s.readerDone = make(chan int, 1)
	go s.read()
	return s, nil
}

// read decodes the verdict stream until the daemon closes the
// connection.
func (s *session) read() {
	overflow := 0
	sc := service.NewLineScanner(s.conn, 1<<20)
	for sc.Scan() {
		ev, err := service.DecodeEvent(sc.Bytes())
		select {
		case s.events <- event{ev: ev, err: err, at: time.Now()}:
		default:
			overflow++
		}
	}
	s.readerDone <- overflow
}

// shutdown stops the daemon and waits for it and the reader. abort
// simulates a crash first: the WAL is closed without a final fsync or
// snapshot.
func (s *session) shutdown(abort bool) error {
	if abort && s.srv.WAL() != nil {
		s.srv.WAL().Abort()
	}
	s.stop()
	var err error
	select {
	case err = <-s.served:
	case <-time.After(waitLimit):
		err = errors.New("daemon did not shut down")
	}
	if s.conn != nil {
		s.conn.Close()
		s.overflow += <-s.readerDone
	}
	return err
}

// accounted sums every bucket an inbound line can land in.
func accounted(m *service.Metrics) uint64 {
	return m.ObservationsIngested.Load() + dropped(m)
}

// dropped sums the buckets of lines the daemon did not ingest.
func dropped(m *service.Metrics) uint64 {
	return m.StaleDropped.Load() + m.MalformedDropped.Load() + m.BackpressureDropped.Load() +
		m.OversizedDropped.Load() + m.ReceiversRejected.Load()
}

// windowRun is the client's record of one replayed window.
type windowRun struct {
	start, flushed, accounted, detected, lastEvent time.Time
	// cpuStart, cpuAccounted and cpuEnd are the process CPU time at the
	// first write, when the window was fully accounted, and once its
	// last verdict was decoded.
	cpuStart, cpuAccounted, cpuEnd time.Duration
	outcomes                       []outcome
	events                         []event
	// missing counts the verdict events that did not arrive in time.
	missing int
}

// outcome keeps what the benchmark needs of a RoundOutcome: its Result
// buffers are reused by the next round.
type outcome struct {
	recv    vanet.NodeID
	latency time.Duration
	event   []byte
	counts  metrics.Counts
	pairs   [3]int
	cached  bool
	// err is the round's error, or the scoring error of its suspects.
	err error
}

// replay runs one closed-loop step: write the window's lines, wait until
// the daemon accounts for every one, fire a sweep, and wait for one
// verdict event per receiver. With a recording recorder the step's
// spans share the window's index.
func (s *session) replay(w window, truth vanet.Truth, rec *recorder) (windowRun, error) {
	var r windowRun
	m := s.srv.Metrics()
	traced := rec != nil && rec.on.Load()
	root := -1
	if traced {
		root = rec.begin("window", -1)
	}
	r.cpuStart = cpuTime()
	r.start = time.Now()
	if _, err := s.conn.Write(w.lines); err != nil {
		return r, fmt.Errorf("write window: %w", err)
	}
	r.flushed = time.Now()
	s.sent += uint64(w.n)
	deadline := r.flushed.Add(waitLimit)
	for accounted(m) < s.sent {
		if time.Now().After(deadline) {
			return r, fmt.Errorf("daemon accounted %d of %d lines", accounted(m), s.sent)
		}
		// The poll costs client CPU time, which the cost metrics count;
		// half a millisecond keeps it small against a window's drain.
		time.Sleep(500 * time.Microsecond)
	}
	r.accounted = time.Now()
	r.cpuAccounted = cpuTime()
	sweep := -1
	if traced {
		sweep = rec.begin("scheduler.sweep", root)
		rec.parent.Store(int64(sweep))
	}
	outs := s.srv.DetectNow()
	r.detected = time.Now()
	if traced {
		rec.finish(sweep)
	}
	// The sweep's events are queued before DetectNow returns; a missing
	// one is a failed operation, not a reason to stall the run.
	timeout := time.After(eventWait)
	for got := 0; got < w.receivers; got++ {
		select {
		case e := <-s.events:
			r.lastEvent = e.at
			r.events = append(r.events, e)
		case <-timeout:
			r.missing = w.receivers - got
			r.lastEvent = time.Now()
			got = w.receivers
		}
	}
	r.cpuEnd = cpuTime()
	if traced {
		rec.add("client.write", root, rec.at(r.start), rec.at(r.flushed))
		rec.add("server.drain", root, rec.at(r.flushed), rec.at(r.accounted))
		rec.add("server.fanout", root, rec.at(r.detected), rec.at(r.lastEvent))
		rec.finishAt(root, r.lastEvent)
	}
	// The outcomes' Result buffers stay valid until the next sweep.
	r.outcomes = make([]outcome, len(outs))
	for i, o := range outs {
		r.outcomes[i] = keep(o, truth)
	}
	return r, nil
}

func keep(o service.RoundOutcome, truth vanet.Truth) outcome {
	k := outcome{recv: o.Recv, latency: o.Latency, event: service.EventFromOutcome(o).Encode(), err: o.Err}
	if o.Err != nil {
		return k
	}
	k.cached = o.Result.Cached
	k.pairs = [3]int{o.Result.PairsCompared, o.Result.PairsPrunedLB, o.Result.PairsReusedDirty}
	k.counts, k.err = metrics.Score(o.Result.Considered, o.Result.Suspects, truth)
	return k
}

// check counts the window's failed verdict operations. Each receiver
// must get exactly one decodable event whose bytes equal the encoding
// of the sweep's error-free outcome for it.
func (r *windowRun) check() int {
	failed := r.missing
	want := map[vanet.NodeID]outcome{}
	for _, o := range r.outcomes {
		want[o.recv] = o
	}
	for _, e := range r.events {
		o, ok := want[e.ev.Recv]
		if e.err != nil || !ok || o.err != nil || !bytes.Equal(e.ev.Encode(), o.event) {
			failed++
			continue
		}
		delete(want, e.ev.Recv)
	}
	return failed
}

// confirmedSets copies every receiver's confirmed-Sybil set.
func confirmedSets(reg *service.Registry) map[vanet.NodeID]map[vanet.NodeID]bool {
	out := map[vanet.NodeID]map[vanet.NodeID]bool{}
	for _, recv := range reg.Receivers() {
		set := map[vanet.NodeID]bool{}
		for id, ok := range reg.Monitor(recv).Confirmed() {
			if ok {
				set[id] = true
			}
		}
		out[recv] = set
	}
	return out
}

// confirmedMismatches counts receivers whose confirmed sets differ.
func confirmedMismatches(a, b map[vanet.NodeID]map[vanet.NodeID]bool) int {
	n := 0
	for recv := range union(a, b) {
		x, y := a[recv], b[recv]
		if len(x) != len(y) {
			n++
			continue
		}
		for id := range x {
			if !y[id] {
				n++
				break
			}
		}
	}
	return n
}

func union(a, b map[vanet.NodeID]map[vanet.NodeID]bool) map[vanet.NodeID]bool {
	u := map[vanet.NodeID]bool{}
	for k := range a {
		u[k] = true
	}
	for k := range b {
		u[k] = true
	}
	return u
}

// stages lists the core stages in pipeline order.
var stages = [...]core.Stage{core.StageWindow, core.StageCollect, core.StageNormalize, core.StageCompare, core.StageConfirm}
