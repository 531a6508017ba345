package spill

import (
	"fmt"
	"os"
	"reflect"
	"sync"
)

// Tier is the storage level beneath every consumer of a memory budget:
// the accountant that decides what leaves memory, the directory it goes
// to, and the hook that hears about it. Consumers hold their data in the
// tier's Blocks and never touch a spill file or the accountant. A nil
// *Tier is the unbudgeted tier: its blocks are never evicted.
type Tier struct {
	acct    *Accountant
	dir     string
	ownsDir bool

	auditMu sync.RWMutex
	audit   func(kind string, value float64, detail string)
}

// NewTier returns a tier keeping acct's budget by spilling into dir,
// created if absent. An empty dir makes a fresh temporary directory
// named after pattern (as os.MkdirTemp does), which Close removes.
func NewTier(acct *Accountant, dir, pattern string) (*Tier, error) {
	t := &Tier{acct: acct, dir: dir}
	var err error
	if dir == "" {
		t.dir, err = os.MkdirTemp("", pattern)
		t.ownsDir = err == nil
	} else {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		return nil, fmt.Errorf("spill: dir: %w", err)
	}
	return t, nil
}

// Close removes the tier's directory if the tier made it.
func (t *Tier) Close() {
	if t != nil && t.ownsDir {
		os.RemoveAll(t.dir)
	}
}

// SetAudit installs the hook receiving the tier's events: "spill",
// "restore", "spill-fail" and "spill-corrupt".
func (t *Tier) SetAudit(fn func(kind string, value float64, detail string)) {
	if t != nil {
		t.auditMu.Lock()
		t.audit = fn
		t.auditMu.Unlock()
	}
}

func (t *Tier) auditf(kind string, value float64, detail string) {
	t.auditMu.RLock()
	fn := t.audit
	t.auditMu.RUnlock()
	if fn != nil {
		fn(kind, value, detail)
	}
}

// Stats snapshots the accountant; ok is false for the unbudgeted tier.
func (t *Tier) Stats() (st Stats, ok bool) {
	if t == nil {
		return Stats{}, false
	}
	return t.acct.Stats(), true
}

// Evict spills least-recently-used blocks until resident bytes fit the
// budget. Block.Put never evicts: its caller calls Evict once it has
// released its own locks, since an eviction takes the victim's.
func (t *Tier) Evict() {
	if t != nil {
		t.acct.evict()
	}
}

// Blocks returns n empty blocks, block i holding part i of id in space
// ("shuffle" or "cache", as in an Entry).
func (t *Tier) Blocks(space string, id, n int) []Block {
	bs := make([]Block, n)
	for i := range bs {
		bs[i].tier, bs[i].space, bs[i].id, bs[i].part, bs[i].owner = t, space, id, i, -1
	}
	return bs
}

// Volume measures a chunk as every budget does: its record count and
// approximate bytes, element size times length (a []any chunk counts one
// 16-byte interface header per record).
func Volume(ch any) (records, bytes int64) {
	if ch == nil {
		return 0, 0
	}
	v := reflect.ValueOf(ch)
	n := int64(v.Len())
	return n, n * int64(v.Type().Elem().Size())
}
