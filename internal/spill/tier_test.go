package spill

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// testTier is a tier over a fresh directory, counting the spill-corrupt
// audits it makes.
type testTier struct {
	*Tier
	mu      sync.Mutex
	corrupt int
}

func newTestTier(t *testing.T, budget int64) *testTier {
	t.Helper()
	tier, err := NewTier(NewAccountant(budget), t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	tt := &testTier{Tier: tier}
	tier.SetAudit(func(kind string, _ float64, _ string) {
		if kind == "spill-corrupt" {
			tt.mu.Lock()
			tt.corrupt++
			tt.mu.Unlock()
		}
	})
	return tt
}

func (tt *testTier) corrupted() int {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	return tt.corrupt
}

// contentOf is generation v of a chunk list: two slab buckets around an
// empty one.
func contentOf(v int64) []any { return []any{[]int64{v, v}, nil, []int64{v}} }

// TestBlockStaleEvictionWritesNothing: an eviction whose content a re-put
// has replaced writes no file, even when it runs after the re-put; and
// with evictions racing re-puts, whatever a block reads back — from
// memory or from its file — is its last put.
func TestBlockStaleEvictionWritesNothing(t *testing.T) {
	tt := newTestTier(t, 1<<20)
	b := &tt.Blocks("shuffle", 1, 1)[0]
	b.Put(0, contentOf(1))
	stale := b.h
	b.Put(0, contentOf(2))
	if !b.evict(stale) {
		t.Fatal("a stale eviction reported a failure")
	}
	if _, err := os.Stat(b.Path()); !os.IsNotExist(err) {
		t.Fatalf("a stale eviction wrote %s: %v", b.Path(), err)
	}
	if got, ok := b.ReadAll(); !ok || !reflect.DeepEqual(got, contentOf(2)) {
		t.Fatalf("after a stale eviction the block holds %v (%v)", got, ok)
	}

	tt = newTestTier(t, 1)
	bs := tt.Blocks("shuffle", 1, 4)
	var wg sync.WaitGroup
	for w := range bs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 200; i++ {
				bs[w].Put(w, contentOf(i))
				tt.Evict()
			}
		}()
	}
	wg.Wait()
	for w := range bs {
		if got, ok := bs[w].ReadAll(); !ok || !reflect.DeepEqual(got, contentOf(199)) {
			t.Fatalf("block %d reads %v (%v) after its last put, generation 199", w, got, ok)
		}
	}
}

// TestBlockCorruptReadKeepsNewerPut: a read that failed on one content's
// spill file drops that content only — a put that replaced it between
// the failed read and its drop stays — and readers failing on one file
// audit spill-corrupt once between them.
func TestBlockCorruptReadKeepsNewerPut(t *testing.T) {
	tt := newTestTier(t, 1)
	b := &tt.Blocks("shuffle", 1, 1)[0]
	b.Put(0, contentOf(1))
	tt.Evict()
	failed := b.h
	b.Put(0, contentOf(2))
	b.readFailed(failed, errors.New("damaged"))
	if got, ok := b.ReadAll(); !ok || !reflect.DeepEqual(got, contentOf(2)) || tt.corrupted() != 0 {
		t.Fatalf("a failed read dropped the newer put: %v (%v), %d audits", got, ok, tt.corrupted())
	}

	for trial := 0; trial < 50; trial++ {
		b.Put(0, contentOf(1))
		tt.Evict()
		if err := os.Truncate(b.Path(), 10); err != nil {
			t.Fatal(err)
		}
		before := tt.corrupted()
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if ch, ok := b.Read(r % 3); ok && !reflect.DeepEqual(ch, contentOf(2)[r%3]) {
					t.Errorf("bucket %d of a damaged file read as %v", r%3, ch)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.Put(0, contentOf(2))
		}()
		wg.Wait()
		if got, ok := b.ReadAll(); !ok || !reflect.DeepEqual(got, contentOf(2)) {
			t.Fatalf("trial %d: the put racing failed reads was lost: %v (%v)", trial, got, ok)
		}
		if n := tt.corrupted() - before; n > 1 {
			t.Fatalf("trial %d: %d spill-corrupt audits for one damaged file", trial, n)
		}
	}

	// With no put to race, every reader fails and one of them audits.
	b.Put(0, contentOf(3))
	tt.Evict()
	if err := os.Truncate(b.Path(), 10); err != nil {
		t.Fatal(err)
	}
	before := tt.corrupted()
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok := b.Read(r % 3); ok {
				t.Error("a damaged file read")
			}
		}()
	}
	wg.Wait()
	if n := tt.corrupted() - before; n != 1 || b.Held() {
		t.Fatalf("%d spill-corrupt audits, block held %v; want 1 and dropped", n, b.Held())
	}
	if _, err := os.Stat(b.Path()); !os.IsNotExist(err) {
		t.Fatalf("the damaged file was kept: %v", err)
	}
}

// TestBlockDropRacingEvictionLeavesNothing: a Drop racing the eviction of
// the same content leaves no spill file and no resident bytes, whichever
// takes the block first.
func TestBlockDropRacingEvictionLeavesNothing(t *testing.T) {
	tt := newTestTier(t, 1)
	bs := tt.Blocks("cache", 1, 8)
	for trial := 0; trial < 50; trial++ {
		for i := range bs {
			bs[i].Put(-1, contentOf(int64(i)))
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			tt.Evict()
		}()
		go func() {
			defer wg.Done()
			for i := range bs {
				bs[i].Drop()
			}
		}()
		wg.Wait()
		if files, _ := filepath.Glob(filepath.Join(tt.dir, "*")); len(files) != 0 {
			t.Fatalf("trial %d: files left behind: %v", trial, files)
		}
		if st, _ := tt.Stats(); st.Resident != 0 {
			t.Fatalf("trial %d: %d bytes still resident", trial, st.Resident)
		}
	}
}

// TestBlockConcurrentRestoresCountEach: N restores of one spilled block,
// spread over its buckets and run side by side under its read lock,
// count exactly N restores of exactly their buckets' bytes.
func TestBlockConcurrentRestoresCountEach(t *testing.T) {
	const readers = 32
	tt := newTestTier(t, 1)
	b := &tt.Blocks("shuffle", 1, 1)[0]
	want := contentOf(5)
	b.Put(0, want)
	tt.Evict()
	var wg sync.WaitGroup
	var bytes int64
	for r := 0; r < readers; r++ {
		bucket := r % len(want)
		_, n := Volume(want[bucket])
		bytes += n
		wg.Add(1)
		go func() {
			defer wg.Done()
			if ch, ok := b.Read(bucket); !ok || !reflect.DeepEqual(ch, want[bucket]) {
				t.Errorf("bucket %d restored %v (%v)", bucket, ch, ok)
			}
		}()
	}
	wg.Wait()
	if st, _ := tt.Stats(); st.Restores != readers || st.RestoreBytes != bytes {
		t.Fatalf("%d restores of %d bytes, want %d of %d", st.Restores, st.RestoreBytes, readers, bytes)
	}
}
