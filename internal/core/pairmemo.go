package core

import (
	"time"

	"voiceprint/internal/timeseries"
	"voiceprint/internal/vanet"
)

// Dirty-pair cache: most detection rounds change only a handful of the
// identities in view (a few new beacons between period boundaries), yet
// the compare phase is O(n²) full DTW runs. The memo fingerprints each
// identity's window view and reuses the previous rounds' exact raw
// distances for every pair whose two views are provably unchanged, so a
// round recomputes only the pairs touching a dirty identity.
//
// Reuse is invisible in the results: the cache stores only outcomes a
// cold round reproduces bit for bit from the same inputs — exact raw
// distances, early-abandoned DP prefix bounds (whose cutoff, the pair's
// cap, depends only on the same two views), staircase upper bounds, and
// LB_Keogh bounds keyed by the round envelope radius they were computed
// under (the one round-shaped input the bound has; a hit requires the
// current round to use the same radius, in which case a cold round
// computes the identical value). Exact distances the branch-and-bound
// extremes repair recomputes are written back too, but served only to
// later repairs — the repair recomputes the same pairs either way (its
// candidate choice goes by the Pruned flag, not by how a pair was
// resolved), so a hit replays exactly what a cold repair computes. A
// cold cache — fresh monitor, restored WAL state, or DisablePairCache —
// therefore yields byte-identical Results, just more slowly; the
// crash-recovery fixtures lean on this. The memo is deliberately
// excluded from MonitorState for the same reason: serializing it would
// grow the WAL format for a cache that rebuilds in one round.

// seriesFP fingerprints one identity's window view. Two views with equal
// fingerprints hold identical samples: ver is the monitor version of the
// identity's last accepted observation (monotone across evictions, so a
// re-appearing identity can never collide with its pre-eviction self),
// which freezes the underlying append-only series, and (first, n) then
// pin the window slice — series timestamps are non-decreasing, so the
// first in-window timestamp identifies the start index uniquely and the
// length the end.
type seriesFP struct {
	ver   uint64
	first time.Duration
	n     int
}

// pairKey identifies an unordered identity pair; a < b always (pairs are
// enumerated over the sorted considered list).
type pairKey struct{ a, b vanet.NodeID }

// pairEntry is one cached comparison under the fingerprints of the two
// views it was computed over. It carries two independently valid
// outcomes, both pure functions of the views:
//
//   - res/resPruned (when hasRes): what the resolve phase's abandoning
//     DP scan produces — the exact distance, or the prefix bound of an
//     early-abandoned scan (resPruned), whose cutoff (the pair's cap)
//     depends only on the same two views. The resolve phase serves
//     exactly this, so pre-repair state never varies with cache warmth.
//   - exact (when hasExact): the full-DP distance, recorded when a
//     resolve completed exactly or when the extremes repair had to
//     recompute a pruned pair. Only the repair reads it — serving it
//     from resolve would diverge from a cold round's abandoned bound —
//     and a repair hit replays the value a cold repair computes bit for
//     bit, so again only the cost varies with warmth.
//
// The staircase upper bound the max repair needs (ub, when hasUB) is
// likewise a pure function of the two views and the band radius, so it
// is cached on the same terms. The normalized LB_Keogh bound (lb, when
// hasLB) additionally depends on the round envelope radius, so it is
// valid only when lbEnvR matches the current round's.
type pairEntry struct {
	fa, fb    seriesFP
	res       float64
	resPruned bool
	hasRes    bool
	exact     float64
	hasExact  bool
	ub        float64
	hasUB     bool
	lb        float64
	lbEnvR    int
	hasLB     bool
}

// pairMemo carries a monitor's dirty-pair state across rounds. It also
// owns the backing array for Result.Pairs, so steady-state rounds stop
// allocating a fresh pair slice; the trade is a documented lifetime —
// a monitor round's Result.Pairs is valid until the next uncached round.
//
// The memo has one writer at a time by construction: the compare worker
// pool only reads it (lookup, lookupLB), and every store runs on the
// round's own goroutine — the extremes repair and the write-back after
// the pool joins (comparePairs). Map reads racing a map write abort the
// process, so a store from inside a worker is a bug, not a slowdown.
type pairMemo struct {
	// fp holds the current round's fingerprints, refreshed by beginRound.
	fp map[vanet.NodeID]seriesFP
	// cache maps pairs to their last exact comparison.
	cache map[pairKey]pairEntry
	// pairs backs Result.Pairs across rounds.
	pairs []PairDistance
}

func newPairMemo() *pairMemo {
	return &pairMemo{
		fp:    make(map[vanet.NodeID]seriesFP),
		cache: make(map[pairKey]pairEntry),
	}
}

// beginRound refreshes the fingerprints for the identities heard this
// round. ids is the round's sorted heard list, views the window views
// handed to the detector, and obsVer the monitor version of each
// identity's last accepted observation.
func (pm *pairMemo) beginRound(ids []vanet.NodeID, views map[vanet.NodeID]*timeseries.Series, obsVer map[vanet.NodeID]uint64) {
	clear(pm.fp)
	for _, id := range ids {
		v := views[id]
		pm.fp[id] = seriesFP{ver: obsVer[id], first: v.At(0).T, n: v.Len()}
	}
}

// lookup returns the cached resolve outcome — the raw distance and
// whether it is an early-abandoned bound — for (a, b) when both views
// are unchanged since it was stored. An identity missing from the
// current fingerprints can never match: stored fingerprints always come
// from non-empty views (n >= 1), so the zero seriesFP compares unequal.
func (pm *pairMemo) lookup(a, b vanet.NodeID) (float64, bool, bool) {
	e, ok := pm.cache[pairKey{a, b}]
	if !ok || !e.hasRes || e.fa != pm.fp[a] || e.fb != pm.fp[b] {
		return 0, false, false
	}
	return e.res, e.resPruned, true
}

// entryFor returns the stored entry for (a, b) when its fingerprints
// match the current round's — the base every store extends, so each
// outcome written preserves the others recorded over the same views —
// or a fresh entry pinned to the current fingerprints otherwise.
func (pm *pairMemo) entryFor(a, b vanet.NodeID) pairEntry {
	fa, fb := pm.fp[a], pm.fp[b]
	if old, ok := pm.cache[pairKey{a, b}]; ok && old.fa == fa && old.fb == fb {
		return old
	}
	return pairEntry{fa: fa, fb: fb}
}

// storeResolved records a resolve-phase outcome under the current
// fingerprints. A completed scan is also an exact value.
func (pm *pairMemo) storeResolved(a, b vanet.NodeID, raw float64, pruned bool) {
	e := pm.entryFor(a, b)
	e.res, e.resPruned, e.hasRes = raw, pruned, true
	if !pruned {
		e.exact, e.hasExact = raw, true
	}
	pm.cache[pairKey{a, b}] = e
}

// lookupExact returns the cached exact distance for (a, b) when both
// views are unchanged — from a completed resolve or a repair-time
// recomputation. Only the extremes repair may consult it.
func (pm *pairMemo) lookupExact(a, b vanet.NodeID) (float64, bool) {
	e, ok := pm.cache[pairKey{a, b}]
	if !ok || !e.hasExact || e.fa != pm.fp[a] || e.fb != pm.fp[b] {
		return 0, false
	}
	return e.exact, true
}

// storeExact records the exact distance the extremes repair computed
// for a pruned pair, preserving the other outcomes recorded over the
// same views.
func (pm *pairMemo) storeExact(a, b vanet.NodeID, exact float64) {
	e := pm.entryFor(a, b)
	e.exact, e.hasExact = exact, true
	pm.cache[pairKey{a, b}] = e
}

// lookupUB returns the cached per-sample staircase upper bound for
// (a, b) when both views are unchanged.
func (pm *pairMemo) lookupUB(a, b vanet.NodeID) (float64, bool) {
	e, ok := pm.cache[pairKey{a, b}]
	if !ok || !e.hasUB || e.fa != pm.fp[a] || e.fb != pm.fp[b] {
		return 0, false
	}
	return e.ub, true
}

// storeUB records the per-sample staircase upper bound under the
// current fingerprints, preserving the other outcomes recorded over the
// same views.
func (pm *pairMemo) storeUB(a, b vanet.NodeID, ub float64) {
	e := pm.entryFor(a, b)
	e.ub, e.hasUB = ub, true
	pm.cache[pairKey{a, b}] = e
}

// lookupLB returns the cached normalized LB_Keogh bound for (a, b) when
// both views are unchanged and the bound was computed under the same
// round envelope radius — the only round-shaped input the bound has, so
// a hit replays exactly what a cold round computes.
func (pm *pairMemo) lookupLB(a, b vanet.NodeID, envR int) (float64, bool) {
	e, ok := pm.cache[pairKey{a, b}]
	if !ok || !e.hasLB || e.lbEnvR != envR || e.fa != pm.fp[a] || e.fb != pm.fp[b] {
		return 0, false
	}
	return e.lb, true
}

// storeLB records the normalized LB_Keogh bound computed under the
// round envelope radius envR, preserving the other outcomes recorded
// over the same views.
func (pm *pairMemo) storeLB(a, b vanet.NodeID, envR int, lb float64) {
	e := pm.entryFor(a, b)
	e.lb, e.lbEnvR, e.hasLB = lb, envR, true
	pm.cache[pairKey{a, b}] = e
}

// forget drops every cached comparison touching id, called when the
// monitor evicts the identity. The sweep only deletes while ranging,
// which is iteration-order independent.
func (pm *pairMemo) forget(id vanet.NodeID) {
	for k := range pm.cache {
		if k.a == id || k.b == id {
			delete(pm.cache, k)
		}
	}
	delete(pm.fp, id)
}
