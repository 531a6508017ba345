package dist

import (
	"fmt"
	"sync"
	"time"
)

// liveness tracks executor heartbeats under a sticky dead set: an
// executor registers once, beats periodically, and is declared dead
// when its last beat is at least timeout old. Death is permanent —
// late heartbeats from a declared-dead executor are ignored (no zombie
// resurrection), and its ID cannot re-register. Time is passed in
// explicitly so the boundary semantics are testable without sleeping.
type liveness struct {
	timeout time.Duration

	mu   sync.Mutex
	last map[int]time.Time
	dead map[int]bool
}

func newLiveness(timeout time.Duration) *liveness {
	return &liveness{
		timeout: timeout,
		last:    make(map[int]time.Time),
		dead:    make(map[int]bool),
	}
}

// Register admits an executor at now. A duplicate registration of a
// live executor is rejected (two processes claiming one ID), and so is
// the ID of a dead executor (the engine's dead set is sticky; a
// replacement process cannot assume a lost executor's identity).
func (l *liveness) Register(id int, now time.Time) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead[id] {
		return fmt.Errorf("dist: executor %d was declared dead and cannot re-register", id)
	}
	if _, ok := l.last[id]; ok {
		return fmt.Errorf("dist: executor %d is already registered", id)
	}
	l.last[id] = now
	return nil
}

// Beat records a heartbeat at now. It reports false — and records
// nothing — for executors that are unregistered or already dead: a
// zombie's late beat must not resurrect it.
func (l *liveness) Beat(id int, now time.Time) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead[id] {
		return false
	}
	if _, ok := l.last[id]; !ok {
		return false
	}
	l.last[id] = now
	return true
}

// Expired returns every live executor whose last beat is at least
// timeout old — an executor exactly at the boundary (now == last +
// timeout) has expired. It declares nothing: the caller runs the loss
// path, which invalidates the executor's outputs before MarkDead.
func (l *liveness) Expired(now time.Time) []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	var expired []int
	for id, last := range l.last {
		if !l.dead[id] && now.Sub(last) >= l.timeout {
			expired = append(expired, id)
		}
	}
	return expired
}

// MarkDead declares an executor dead (heartbeats expired, process kill
// observed, or peers reported its shuffle server unreachable). Reports
// whether the executor was alive.
func (l *liveness) MarkDead(id int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead[id] {
		return false
	}
	l.dead[id] = true
	return true
}

// Dead reports whether an executor has been declared dead.
func (l *liveness) Dead(id int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dead[id]
}
