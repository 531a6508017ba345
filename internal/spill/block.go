package spill

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Block states.
const (
	empty uint8 = iota
	resident
	spilled
)

// Block is one chunk list of a tier — a shuffle store's map partition, a
// cached rdd partition — and the one place it moves between memory and
// its spill file. Each Put admits the list under a fresh accountant
// handle, and an eviction (run by the accountant with no lock held) or a
// failed read's drop acts only while the block still holds that handle:
// a block put again or dropped since is left alone, so no owner keeps a
// generation counter.
//
// Locking: the owner's lock → the block's → the accountant's (a leaf).
// The file is written under the block's write lock, so no reader sees
// the block spilled before its file is complete; reads hold the read
// lock, so restores of different buckets run side by side.
type Block struct {
	tier     *Tier
	space    string
	id, part int

	mu     sync.RWMutex
	state  uint8
	owner  int // who produced the content; -1 when empty
	chunks []any
	bytes  int64   // accounted size, on a budgeted tier
	h      *handle // the content's ticket, resident or spilled
}

// Put replaces the block's content with chunks produced by owner,
// retiring the previous content wherever it lives. On a budgeted tier
// a non-nil list is admitted most-recently-used; see Tier.Evict.
func (b *Block) Put(owner int, chunks []any) {
	var bytes int64
	if b.tier != nil {
		for _, ch := range chunks {
			_, n := Volume(ch)
			bytes += n
		}
	}
	b.mu.Lock()
	b.clearLocked()
	b.state, b.owner, b.chunks, b.bytes = resident, owner, chunks, bytes
	if b.tier != nil && chunks != nil {
		b.h = b.tier.acct.admit(bytes, b.evict)
	}
	b.mu.Unlock()
}

// Drop empties the block, its spill file and accounted bytes included.
func (b *Block) Drop() {
	b.mu.Lock()
	b.clearLocked()
	b.mu.Unlock()
}

func (b *Block) clearLocked() {
	if b.h != nil {
		b.tier.acct.release(b.h)
		if b.state == spilled {
			os.Remove(b.Path())
		}
	}
	b.state, b.owner, b.chunks, b.bytes, b.h = empty, -1, nil, 0, nil
}

// Held reports whether the block has content, resident or spilled.
func (b *Block) Held() bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.state != empty
}

// Owner returns who produced the block's content, -1 when it is empty.
func (b *Block) Owner() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.owner
}

// Peek returns, without touching it, the resident chunk list, or for a
// spilled block isSpilled and the bytes it accounted.
func (b *Block) Peek() (chunks []any, isSpilled bool, bytes int64) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.chunks, b.state == spilled, b.bytes
}

// Path is where the block's spill file lives while it is spilled.
func (b *Block) Path() string {
	return filepath.Join(b.tier.dir, fmt.Sprintf("%s-%d-part-%d.spill", b.space, b.id, b.part))
}

// Read returns one bucket of the block's chunk list (nil if it was put
// empty): from memory, touched most-recently-used, or from the spill
// file — its header and that bucket's frame only — as one restore of
// the bucket's bytes. ok is false for an empty block and for a spill
// file that fails to read, which drops the content (readFailed).
func (b *Block) Read(bucket int) (ch any, ok bool) {
	b.mu.RLock()
	switch b.state {
	case resident:
		if bucket < len(b.chunks) {
			ch = b.chunks[bucket]
		}
		b.touch()
	case spilled:
		h := b.h
		ch, err := ReadChunkFile(b.Path(), b.space, b.id, b.part, bucket)
		if err != nil {
			b.mu.RUnlock()
			b.readFailed(h, err)
			return nil, false
		}
		_, n := Volume(ch)
		b.restored(n, fmt.Sprintf("shuffle=%d map=%d bucket=%d", b.id, b.part, bucket))
		b.mu.RUnlock()
		return ch, true
	}
	ok = b.state != empty
	b.mu.RUnlock()
	return ch, ok
}

// ReadAll returns the block's whole chunk list, from memory or decoded
// from its spill file as one restore of the block's bytes. The file
// stays on disk, so a restore never pushes the tier back over budget. ok
// is as for Read.
func (b *Block) ReadAll() (chunks []any, ok bool) {
	b.mu.RLock()
	switch b.state {
	case resident:
		chunks = b.chunks
		b.touch()
	case spilled:
		h := b.h
		e, err := ReadEntryFile(b.Path(), b.space, b.id, b.part)
		if err != nil {
			b.mu.RUnlock()
			b.readFailed(h, err)
			return nil, false
		}
		b.restored(b.bytes, b.label())
		b.mu.RUnlock()
		return e.Chunks, true
	}
	ok = b.state != empty
	b.mu.RUnlock()
	return chunks, ok
}

func (b *Block) touch() {
	if b.h != nil {
		b.tier.acct.touch(b.h)
	}
}

func (b *Block) restored(bytes int64, detail string) {
	b.tier.acct.noteRestore(bytes)
	b.tier.auditf("restore", float64(bytes), detail)
}

// readFailed drops the content whose spill file failed to read — a disk
// that damaged one frame is not trusted with the rest — unless a put or
// drop has replaced it since. Of several readers failing on one file,
// the first drops and audits; the rest find it gone.
func (b *Block) readFailed(h *handle, cause error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.h != h || b.state != spilled {
		return
	}
	bytes := b.bytes
	b.clearLocked()
	what := "dropped for lineage recompute"
	if b.space == "cache" {
		what = "recomputing"
	}
	b.tier.auditf("spill-corrupt", float64(bytes), fmt.Sprintf("%s %s: %v", b.label(), what, cause))
}

// evict is the accountant's callback for handle h: it writes the chunk
// list to the spill file if the block still holds h in memory. false —
// the file could not be written — pins the content resident.
func (b *Block) evict(h *handle) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.h != h || b.state != resident {
		return true // stale: the bytes it accounted are gone already
	}
	e := &Entry{Space: b.space, ID: b.id, Part: b.part, Owner: b.owner, Chunks: b.chunks}
	if _, err := WriteEntryFile(b.Path(), e); err != nil {
		b.tier.auditf("spill-fail", float64(b.bytes), fmt.Sprintf("%s: %v", b.label(), err))
		return false
	}
	b.state, b.chunks = spilled, nil
	b.tier.acct.noteSpill(b.bytes)
	detail := b.label()
	if b.space == "shuffle" {
		detail = fmt.Sprintf("shuffle=%d map=%d owner=%d", b.id, b.part, b.owner)
	}
	b.tier.auditf("spill", float64(b.bytes), detail)
	return true
}

// label names the block in audit details as its space always has. The
// two hot details — a shuffle bucket's restore and a shuffle row's
// spill — are formatted whole where they are emitted: one Sprintf each.
func (b *Block) label() string {
	if b.space == "cache" {
		return fmt.Sprintf("cache node=%d part=%d", b.id, b.part)
	}
	return fmt.Sprintf("shuffle=%d map=%d", b.id, b.part)
}
