package spill

import (
	"container/list"
	"sync"
)

// Stats is a snapshot of an accountant's counters.
type Stats struct {
	// Budget is the configured ceiling (0 = unbounded).
	Budget int64
	// Resident is the current accounted resident bytes.
	Resident int64
	// Peak is the high-water mark of Resident sampled at eviction-loop
	// exits — i.e. over the stabilized states the budget actually
	// enforces, so Peak ≤ Budget holds whenever nothing is pinned.
	Peak int64
	// Spills / SpillBytes count successful evictions to disk.
	Spills     int64
	SpillBytes int64
	// Restores / RestoreBytes count reads back from spill files.
	Restores     int64
	RestoreBytes int64
	// EncodeFailures counts entries whose eviction failed (unencodable
	// chunk type or disk error); they stay resident, pinned.
	EncodeFailures int64
}

// handle lifecycle states, guarded by the accountant's mutex.
const (
	hTracked int = iota // in the LRU, bytes counted resident
	hPopped             // pulled off the LRU by evict, eviction in flight
	hSpilled            // evicted successfully; bytes no longer resident
	hPinned             // eviction failed; bytes resident, off the LRU
	hDone               // released by its block
)

// handle is one admitted chunk list's ticket: its block touches it on
// access and releases it when the list goes, and the accountant keeps
// it on the LRU until eviction or release.
type handle struct {
	bytes int64
	state int
	elem  *list.Element // non-nil iff state == hTracked
	evict func(*handle) bool
}

// Accountant tracks resident bytes against a budget and evicts
// least-recently-used entries when over it: the single authority for
// how much shuffle and cache data a tier holds in memory. Only the
// tier's blocks admit, touch and release entries.
//
// Locking: the accountant's mutex is a leaf — it is never held while
// calling into a block. evict pops a victim under the mutex, then runs
// its callback unlocked; the callback revalidates its handle under the
// block's lock, so an eviction racing a re-put or a drop resolves there.
type Accountant struct {
	mu       sync.Mutex
	budget   int64
	resident int64
	peak     int64
	lru      *list.List // front = most recent, back = eviction victim

	spills, restores         int64
	spillBytes, restoreBytes int64
	encodeFailures           int64
}

// NewAccountant returns an accountant enforcing budget bytes (<= 0
// means unbounded: entries are tracked, peak is recorded, nothing is
// evicted).
func NewAccountant(budget int64) *Accountant {
	if budget < 0 {
		budget = 0
	}
	return &Accountant{budget: budget, lru: list.New()}
}

// admit registers an entry of the given size, most-recently-used. evict
// is called (unlocked) with the entry's handle when it is chosen as an
// eviction victim: it must move the entry out of memory and return
// true, or return false to pin the entry resident (it is then never
// chosen again). admit itself never evicts.
func (a *Accountant) admit(bytes int64, evict func(*handle) bool) *handle {
	h := &handle{bytes: bytes, evict: evict}
	a.mu.Lock()
	a.resident += bytes
	h.elem = a.lru.PushFront(h)
	a.mu.Unlock()
	return h
}

// touch marks a tracked entry most-recently-used.
func (a *Accountant) touch(h *handle) {
	a.mu.Lock()
	if h.state == hTracked {
		a.lru.MoveToFront(h.elem)
	}
	a.mu.Unlock()
}

// release retires a handle: tracked or pinned bytes leave the resident
// count, and an in-flight eviction's failure path will not resurrect
// it. Idempotent.
func (a *Accountant) release(h *handle) {
	a.mu.Lock()
	switch h.state {
	case hTracked:
		a.lru.Remove(h.elem)
		h.elem = nil
		a.resident -= h.bytes
	case hPinned:
		a.resident -= h.bytes
	case hPopped:
		// evict holds the bytes subtracted already; marking done stops
		// its failure path from re-adding them.
	}
	h.state = hDone
	a.mu.Unlock()
}

// evict moves least-recently-used entries out of memory until resident
// bytes fit the budget (or nothing evictable remains), then samples the
// peak. Callers hold no block lock: victim callbacks take them.
func (a *Accountant) evict() {
	for {
		a.mu.Lock()
		if a.budget <= 0 || a.resident <= a.budget || a.lru.Len() == 0 {
			if a.resident > a.peak {
				a.peak = a.resident
			}
			a.mu.Unlock()
			return
		}
		back := a.lru.Back()
		h := back.Value.(*handle)
		a.lru.Remove(back)
		h.elem = nil
		h.state = hPopped
		a.resident -= h.bytes
		a.mu.Unlock()

		ok := h.evict(h)

		a.mu.Lock()
		if h.state == hPopped { // not released while we were evicting
			if ok {
				h.state = hSpilled
			} else {
				// Unencodable or write failure: the entry is still in
				// memory. Pin it resident, off the LRU, never retried.
				h.state = hPinned
				a.resident += h.bytes
				a.encodeFailures++
			}
		}
		a.mu.Unlock()
	}
}

// noteSpill records a successful spill of n bytes to disk.
func (a *Accountant) noteSpill(n int64) {
	a.mu.Lock()
	a.spills++
	a.spillBytes += n
	a.mu.Unlock()
}

// noteRestore records n bytes read back from a spill file.
func (a *Accountant) noteRestore(n int64) {
	a.mu.Lock()
	a.restores++
	a.restoreBytes += n
	a.mu.Unlock()
}

// Stats snapshots the counters.
func (a *Accountant) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Stats{
		Budget:         a.budget,
		Resident:       a.resident,
		Peak:           a.peak,
		Spills:         a.spills,
		SpillBytes:     a.spillBytes,
		Restores:       a.restores,
		RestoreBytes:   a.restoreBytes,
		EncodeFailures: a.encodeFailures,
	}
}
