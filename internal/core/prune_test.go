package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"voiceprint/internal/timeseries"
	"voiceprint/internal/vanet"
)

// pruneConfigs are the cap configurations the pruning equivalence suite
// sweeps: the production adaptive cap, a fixed-cap-only detector, and
// both caps together.
func pruneConfigs() map[string]Config {
	adaptive := DefaultConfig(testBoundary())
	adaptive.MinMedianRSSIDBm = 0
	fixed := adaptive
	fixed.AdaptiveCapKappa = -1 // disable; the fixed cap is the threshold
	fixed.AbsoluteRawCap = 0.05
	both := adaptive
	both.AbsoluteRawCap = 0.05
	return map[string]Config{"adaptive": adaptive, "fixed": fixed, "both": both}
}

// TestLBPruneEquivalence is the pruning contract: with LBPrune on, the
// suspect set, every flag, and the raw/normalized values of every
// unpruned pair are bit-identical to the exact run; pruned pairs carry
// bounds, are marked, and are never flagged.
func TestLBPruneEquivalence(t *testing.T) {
	for name, cfg := range pruneConfigs() {
		t.Run(name, func(t *testing.T) {
			exactDet, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pruneCfg := cfg
			pruneCfg.LBPrune = true
			pruneDet, err := New(pruneCfg)
			if err != nil {
				t.Fatal(err)
			}
			pruned := 0
			for _, seed := range []int64{201, 202, 203} {
				rng := rand.New(rand.NewSource(seed))
				series := sybilCluster(rng, 10)
				exact, err := exactDet.Detect(series, 20)
				if err != nil {
					t.Fatal(err)
				}
				fast, err := pruneDet.Detect(series, 20)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(exact.Suspects, fast.Suspects) {
					t.Fatalf("seed %d: suspects %v != exact %v", seed, fast.Suspects, exact.Suspects)
				}
				if len(fast.Pairs) != len(exact.Pairs) {
					t.Fatalf("seed %d: %d pairs vs %d", seed, len(fast.Pairs), len(exact.Pairs))
				}
				// The pruned run must restore the exact batch extremes, so
				// unpruned pairs match the exact run bit for bit — Raw and
				// Normalized both — whenever any unpruned pair passes its
				// caps (otherwise nothing is flaggable and only Raw is
				// pinned).
				anchor := false
				for _, p := range fast.Pairs {
					if p.Pruned {
						continue
					}
					if cfg.AbsoluteRawCap > 0 && p.Raw > cfg.AbsoluteRawCap {
						continue
					}
					if p.NoiseCap > 0 && p.Raw > p.NoiseCap {
						continue
					}
					anchor = true
				}
				for i, p := range fast.Pairs {
					e := exact.Pairs[i]
					if p.A != e.A || p.B != e.B {
						t.Fatalf("seed %d pair %d: order diverged", seed, i)
					}
					if p.Flagged != e.Flagged {
						t.Fatalf("seed %d pair %d/%d-%d: flagged %v != exact %v",
							seed, i, p.A, p.B, p.Flagged, e.Flagged)
					}
					if p.Pruned {
						pruned++
						if p.Flagged {
							t.Fatalf("seed %d pair %d: pruned pair flagged", seed, i)
						}
						if p.Raw > e.Raw {
							t.Fatalf("seed %d pair %d: bound %v exceeds exact raw %v", seed, i, p.Raw, e.Raw)
						}
						continue
					}
					if p.Raw != e.Raw {
						t.Fatalf("seed %d pair %d: raw %v != exact %v", seed, i, p.Raw, e.Raw)
					}
					if anchor && p.Normalized != e.Normalized {
						t.Fatalf("seed %d pair %d: normalized %v != exact %v", seed, i, p.Normalized, e.Normalized)
					}
				}
				if got := fast.PairsCompared + fast.PairsPrunedLB + fast.PairsReusedDirty; got != len(fast.Pairs) {
					t.Fatalf("seed %d: counters sum to %d, want %d", seed, got, len(fast.Pairs))
				}
				if exact.PairsPrunedLB != 0 || exact.PairsCompared != len(exact.Pairs) {
					t.Fatalf("seed %d: exact run counted %d pruned / %d compared", seed,
						exact.PairsPrunedLB, exact.PairsCompared)
				}
			}
			if pruned == 0 {
				t.Error("pruning never fired; the equivalence run proved nothing")
			}
		})
	}
}

// TestDetectParallelDeterminismPruned re-runs the worker-count
// determinism contract with pruning enabled: the LB decisions, the
// branch-and-bound repair and the final pairs must not depend on how
// pairs were scheduled across goroutines.
func TestDetectParallelDeterminismPruned(t *testing.T) {
	rng := rand.New(rand.NewSource(204))
	series := sybilCluster(rng, 12)
	detect := func(workers int) *Result {
		t.Helper()
		cfg := DefaultConfig(testBoundary())
		cfg.MinMedianRSSIDBm = 0
		cfg.LBPrune = true
		cfg.Workers = workers
		det, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := det.Detect(series, 20)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := detect(1)
	if seq.PairsPrunedLB == 0 {
		t.Fatal("pruning never fired; determinism run proves nothing")
	}
	for _, workers := range []int{0, 2, 7, 32} {
		par := detect(workers)
		if !reflect.DeepEqual(seq.Pairs, par.Pairs) {
			t.Errorf("workers=%d: pairs diverged from sequential", workers)
		}
		if !reflect.DeepEqual(seq.Suspects, par.Suspects) {
			t.Errorf("workers=%d: suspects diverged", workers)
		}
		if par.PairsPrunedLB != seq.PairsPrunedLB || par.PairsCompared != seq.PairsCompared {
			t.Errorf("workers=%d: counters (%d compared, %d pruned) != sequential (%d, %d)",
				workers, par.PairsCompared, par.PairsPrunedLB, seq.PairsCompared, seq.PairsPrunedLB)
		}
	}
}

// TestCompareWorkersAbortOnError pins the abort path of the parallel
// claim loop: when one pair fails, the pool must stop claiming instead
// of grinding through the remaining thousands of pairs before the round
// can report the failure.
func TestCompareWorkersAbortOnError(t *testing.T) {
	cfg := DefaultConfig(testBoundary())
	cfg.AdaptiveCapKappa = -1
	cfg.Workers = 8
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Build the round scratch by hand: 150 identities sharing one valid
	// series, except identity 0 whose series is empty — the very first
	// claimed pair fails inside the DTW kernel.
	const n = 150
	valid := make([]float64, 120)
	for i := range valid {
		valid[i] = float64(i % 17)
	}
	sc := &roundScratch{}
	for i := 0; i < n; i++ {
		sc.ids = append(sc.ids, vanet.NodeID(i))
		sc.noiseVar = append(sc.noiseVar, 0)
		if i == 0 {
			sc.normalized = append(sc.normalized, nil)
		} else {
			sc.normalized = append(sc.normalized, valid)
		}
	}
	if _, err := d.comparePairs(sc, nil); err == nil {
		t.Fatal("comparePairs should fail on the empty series")
	}
	resolved := 0
	for _, st := range sc.state {
		if st != statePending {
			resolved++
		}
	}
	np := n * (n - 1) / 2
	// Without the abort flag every worker drains the whole queue
	// (resolved == np-1). With it, only pairs already in flight when the
	// error landed complete; anything near the full count means the
	// abort signal is not consulted.
	if resolved > np/4 {
		t.Errorf("%d of %d pairs resolved after the first error; abort is not stopping the pool", resolved, np)
	}
}

// feedBoth streams one synthetic scene into both monitors in lockstep
// so their observation histories are identical.
func feedBoth(t *testing.T, a, b *Monitor, series map[vanet.NodeID]*timeseries.Series) {
	t.Helper()
	ids := make([]vanet.NodeID, 0, len(series))
	maxLen := 0
	for id, s := range series {
		ids = append(ids, id)
		if s.Len() > maxLen {
			maxLen = s.Len()
		}
	}
	// Sort for a deterministic interleave (identical for both monitors
	// regardless; sorted for reproducible failures).
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	for step := 0; step < maxLen; step++ {
		at := time.Duration(step) * beat
		for _, id := range ids {
			s := series[id]
			if step >= s.Len() {
				continue
			}
			for _, m := range []*Monitor{a, b} {
				if err := m.Observe(id, at, s.At(step).RSSI); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestMonitorDirtyPairEquivalence is the dirty-pair cache contract:
// a monitor with the cache returns byte-identical results to one
// without, across full rounds, incremental (same window end, few dirty
// identities) rounds, and a window shift — with pruning both off and
// on. Only the work counters may differ, and the cached monitor must
// actually reuse pairs on the incremental rounds.
func TestMonitorDirtyPairEquivalence(t *testing.T) {
	for _, prune := range []bool{false, true} {
		name := "prune=off"
		if prune {
			name = "prune=on"
		}
		t.Run(name, func(t *testing.T) {
			for _, seed := range []int64{301, 302, 303} {
				det := DefaultConfig(testBoundary())
				det.MinMedianRSSIDBm = 0
				det.LBPrune = prune
				mc := MonitorConfig{Detector: det, ConfirmWindow: 3, ConfirmNeed: 2}
				cached, err := NewMonitor(mc)
				if err != nil {
					t.Fatal(err)
				}
				mc.DisablePairCache = true
				plain, err := NewMonitor(mc)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				series := sybilCluster(rng, 9) // 12 identities, 66 pairs
				feedBoth(t, cached, plain, series)
				end := cached.Now()
				reused := 0
				round := func(at time.Duration) {
					t.Helper()
					a, err := cached.DetectAt(at)
					if err != nil {
						t.Fatal(err)
					}
					b, err := plain.DetectAt(at)
					if err != nil {
						t.Fatal(err)
					}
					reused += a.PairsReusedDirty
					if b.PairsReusedDirty != 0 {
						t.Fatalf("cache-disabled monitor reused %d pairs", b.PairsReusedDirty)
					}
					// Everything but the work counters must match bitwise.
					if !reflect.DeepEqual(a.Suspects, b.Suspects) ||
						!reflect.DeepEqual(a.Confirmed, b.Confirmed) ||
						!reflect.DeepEqual(a.Considered, b.Considered) ||
						!reflect.DeepEqual(a.Pairs, b.Pairs) ||
						a.WindowEnd != b.WindowEnd || a.Cached != b.Cached {
						t.Fatalf("seed %d at %v: cached monitor diverged from plain", seed, at)
					}
				}
				round(end) // cold round: everything computed
				// Incremental rounds: a few identities get fresh beacons at
				// the same window end; only their pairs are dirty.
				for i := 0; i < 3; i++ {
					for _, id := range []vanet.NodeID{1, 2} {
						for _, m := range []*Monitor{cached, plain} {
							if err := m.Observe(id, end, -68.5); err != nil {
								t.Fatal(err)
							}
						}
					}
					round(end)
				}
				// Window shift: every view changes, nothing is reusable, and
				// the fingerprints must notice that on their own.
				round(end + beat)
				if reused == 0 {
					t.Fatal("cache never reused a pair; the equivalence run proved nothing")
				}
			}
		})
	}
}

// TestMonitorSteadyStateAllocs pins the monitor round's allocation
// budget in the incremental regime: with the dirty-pair cache holding
// the pair buffer and the clean pairs, a round allocates only the
// escaping Result payload and the few map writes the round history
// needs.
func TestMonitorSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	det := DefaultConfig(testBoundary())
	det.MinMedianRSSIDBm = 0
	det.LBPrune = true
	det.Workers = 1 // goroutine fan-out itself allocates; pin the core path
	m, err := NewMonitor(MonitorConfig{Detector: det})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(305))
	feedBoth(t, m, m, sybilCluster(rng, 9)) // feeding one monitor twice doubles samples; harmless
	end := m.Now()
	for i := 0; i < 3; i++ { // warm scratch, workspace pool, memo and view maps
		if _, err := m.DetectAt(end); err != nil {
			t.Fatal(err)
		}
		if err := m.Observe(1, end, -68.5); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := m.Observe(1, end, -68.5); err != nil {
			t.Fatal(err)
		}
		if _, err := m.DetectAt(end); err != nil {
			t.Fatal(err)
		}
	})
	// Measured ~12 at introduction (Result struct, suspect/confirmed
	// maps, considered copy, confirmer update, series append
	// amortization); the budget adds little headroom on purpose — a jump
	// means a buffer stopped being reused.
	if allocs > 16 {
		t.Errorf("incremental monitor round allocates %.0f times, budget is 16", allocs)
	}
}

// TestMonitorParallelWarmMemoDeterminism runs the compare worker pool
// against a live, warm dirty-pair memo — the path a bare Detect (nil
// memo) never reaches. A Workers=4 monitor must return the same Results,
// work counters included, as a Workers=1 monitor over cold, incremental
// and window-shifted rounds. Under -race it also pins that the workers
// only read the memo: every store happens after the pool has joined.
func TestMonitorParallelWarmMemoDeterminism(t *testing.T) {
	for _, seed := range []int64{311, 312} {
		det := DefaultConfig(testBoundary())
		det.MinMedianRSSIDBm = 0
		det.LBPrune = true
		det.Workers = 1
		seq, err := NewMonitor(MonitorConfig{Detector: det, ConfirmWindow: 3, ConfirmNeed: 2})
		if err != nil {
			t.Fatal(err)
		}
		det.Workers = 4
		par, err := NewMonitor(MonitorConfig{Detector: det, ConfirmWindow: 3, ConfirmNeed: 2})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		feedBoth(t, seq, par, sybilCluster(rng, 21)) // 24 identities, 276 pairs
		end := seq.Now()
		reused, pruned := 0, 0
		round := func(at time.Duration) {
			t.Helper()
			a, err := seq.DetectAt(at)
			if err != nil {
				t.Fatal(err)
			}
			b, err := par.DetectAt(at)
			if err != nil {
				t.Fatal(err)
			}
			reused += b.PairsReusedDirty
			pruned += b.PairsPrunedLB
			if !reflect.DeepEqual(a.Suspects, b.Suspects) ||
				!reflect.DeepEqual(a.Confirmed, b.Confirmed) ||
				!reflect.DeepEqual(a.Considered, b.Considered) ||
				!reflect.DeepEqual(a.Pairs, b.Pairs) ||
				a.WindowEnd != b.WindowEnd || a.Cached != b.Cached {
				t.Fatalf("seed %d at %v: parallel warm-memo round diverged from sequential", seed, at)
			}
			if a.PairsCompared != b.PairsCompared || a.PairsPrunedLB != b.PairsPrunedLB ||
				a.PairsReusedDirty != b.PairsReusedDirty {
				t.Fatalf("seed %d at %v: counters (%d compared, %d pruned, %d reused) != sequential (%d, %d, %d)",
					seed, at, b.PairsCompared, b.PairsPrunedLB, b.PairsReusedDirty,
					a.PairsCompared, a.PairsPrunedLB, a.PairsReusedDirty)
			}
		}
		round(end) // cold: every LB bound and resolve outcome is stored
		for i := 0; i < 3; i++ {
			for _, id := range []vanet.NodeID{1, 2} {
				for _, m := range []*Monitor{seq, par} {
					if err := m.Observe(id, end, -68.5); err != nil {
						t.Fatal(err)
					}
				}
			}
			round(end) // warm: clean pairs read the memo while dirty ones fill it
		}
		round(end + beat)
		if reused == 0 || pruned == 0 {
			t.Fatalf("seed %d: %d reused, %d pruned; the warm parallel path never ran", seed, reused, pruned)
		}
	}
}
