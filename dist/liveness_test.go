package dist

import (
	"testing"
	"time"
)

func TestLivenessBoundary(t *testing.T) {
	base := time.Unix(1000, 0)
	timeout := time.Second
	l := newLiveness(timeout)
	if err := l.Register(0, base); err != nil {
		t.Fatal(err)
	}
	if err := l.Register(1, base); err != nil {
		t.Fatal(err)
	}

	// One nanosecond short of the timeout: still alive.
	if dead := l.Expired(base.Add(timeout - time.Nanosecond)); len(dead) != 0 {
		t.Fatalf("expired %v before the timeout elapsed", dead)
	}
	// A beat resets executor 1's clock.
	if !l.Beat(1, base.Add(500*time.Millisecond)) {
		t.Fatal("beat from live executor rejected")
	}
	// Exactly at the boundary: executor 0 (quiet since base) has
	// expired; executor 1 (beat at +500ms) survives. Expired only
	// reports — the loss path declares the death.
	dead := l.Expired(base.Add(timeout))
	if len(dead) != 1 || dead[0] != 0 {
		t.Fatalf("at boundary: expired %v, want [0]", dead)
	}
	if l.Dead(0) || !l.MarkDead(0) || !l.Dead(0) || l.Dead(1) {
		t.Fatalf("dead set after MarkDead(0): 0=%v 1=%v, want true/false", l.Dead(0), l.Dead(1))
	}
	// A corpse does not expire again.
	if dead := l.Expired(base.Add(10 * timeout)); len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("second expire: %v, want [1]", dead)
	}
}

func TestLivenessNoZombieResurrection(t *testing.T) {
	base := time.Unix(1000, 0)
	l := newLiveness(time.Second)
	if err := l.Register(0, base); err != nil {
		t.Fatal(err)
	}
	if dead := l.Expired(base.Add(2 * time.Second)); len(dead) != 1 || !l.MarkDead(0) {
		t.Fatalf("expire: %v", dead)
	}
	// A late heartbeat from the declared-dead executor must be ignored.
	if l.Beat(0, base.Add(2*time.Second+time.Millisecond)) {
		t.Fatal("dead executor's late beat was accepted")
	}
	if !l.Dead(0) {
		t.Fatal("executor resurrected")
	}
	if dead := l.Expired(base.Add(time.Hour)); len(dead) != 0 {
		t.Fatalf("dead executor expired again: %v", dead)
	}
	// Its identity stays burned: re-registration is rejected.
	if err := l.Register(0, base.Add(3*time.Second)); err == nil {
		t.Fatal("dead executor ID re-registered")
	}
}

func TestLivenessDuplicateRegistration(t *testing.T) {
	base := time.Unix(1000, 0)
	l := newLiveness(time.Second)
	if err := l.Register(2, base); err != nil {
		t.Fatal(err)
	}
	if err := l.Register(2, base.Add(time.Millisecond)); err == nil {
		t.Fatal("duplicate live registration accepted")
	}
	// The impostor's rejection must not disturb the original.
	if !l.Beat(2, base.Add(10*time.Millisecond)) {
		t.Fatal("original registration broken by duplicate attempt")
	}
}

func TestLivenessBeatUnregistered(t *testing.T) {
	l := newLiveness(time.Second)
	if l.Beat(7, time.Unix(1000, 0)) {
		t.Fatal("beat from unregistered executor accepted")
	}
}

func TestLivenessMarkDead(t *testing.T) {
	base := time.Unix(1000, 0)
	l := newLiveness(time.Second)
	if err := l.Register(0, base); err != nil {
		t.Fatal(err)
	}
	if !l.MarkDead(0) {
		t.Fatal("first MarkDead reported already-dead")
	}
	if l.MarkDead(0) {
		t.Fatal("second MarkDead reported a fresh kill")
	}
	if l.Beat(0, base.Add(time.Millisecond)) {
		t.Fatal("beat accepted after MarkDead")
	}
}
