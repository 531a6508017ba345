package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"hpcmr/internal/spill"
)

// TestShuffleStoreConcurrentPutFetch hammers the sharded store from many
// goroutines: writers re-putting map partitions across several shuffles
// while readers fetch completed partitions and poll Complete/Len, plus
// registry churn from Register/Drop. Run under -race this is the
// acceptance test for the per-shuffle locking.
func TestShuffleStoreConcurrentPutFetch(t *testing.T) {
	s := NewShuffleStore()
	const (
		shuffles    = 8
		mapParts    = 16
		reduceParts = 8
		writers     = 8
		readers     = 8
		rounds      = 50
	)
	ids := make([]int, shuffles)
	for i := range ids {
		ids[i] = s.Register(mapParts, reduceParts)
	}
	// Pre-write every partition once so readers always see a complete
	// shuffle; writers then keep overwriting (task retries).
	mkBuckets := func(m int) []any {
		b := make([]any, reduceParts)
		for r := range b {
			b[r] = []string{fmt.Sprintf("m%d-r%d", m, r)}
		}
		return b
	}
	for _, id := range ids {
		for m := 0; m < mapParts; m++ {
			if err := s.PutChunksFrom(id, m, -1, mkBuckets(m)); err != nil {
				t.Fatal(err)
			}
		}
	}

	var wg sync.WaitGroup
	errc := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := ids[(w+i)%shuffles]
				m := (w * 7) % mapParts
				if err := s.PutChunksFrom(id, (m+i)%mapParts, -1, mkBuckets((m+i)%mapParts)); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := ids[(r+i)%shuffles]
				out, err := s.FetchChunks(id, (r+i)%reduceParts)
				if err != nil {
					errc <- err
					return
				}
				if len(out) != mapParts {
					errc <- fmt.Errorf("fetch returned %d map parts, want %d", len(out), mapParts)
					return
				}
				if !s.Complete(id) {
					errc <- fmt.Errorf("shuffle %d incomplete after full put", id)
					return
				}
				_ = s.Len()
			}
		}()
	}
	// Registry churn alongside the put/fetch load.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			id := s.Register(2, 2)
			_ = s.PutChunksFrom(id, 0, -1, make([]any, 2))
			s.Drop(id)
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if got := s.Len(); got != shuffles {
		t.Fatalf("Len = %d after churn, want %d", got, shuffles)
	}
}

// TestShuffleStoreConcurrentInvalidation races owner invalidation (node
// loss) against concurrent fetches and re-puts from surviving owners.
// Under -race this is the acceptance test for the fault-recovery paths:
// fetches either succeed or report a typed MapOutputMissingError, banned
// owners can never write again, and after the storm a full re-put from a
// surviving owner restores completeness.
func TestShuffleStoreConcurrentInvalidation(t *testing.T) {
	s := NewShuffleStore()
	const (
		mapParts    = 32
		reduceParts = 4
		owners      = 4 // executors 0..3; 4+ survive
		rounds      = 60
	)
	id := s.Register(mapParts, reduceParts)
	mkBuckets := func(m int) []any {
		b := make([]any, reduceParts)
		for r := range b {
			b[r] = []int{m * r}
		}
		return b
	}
	for m := 0; m < mapParts; m++ {
		if err := s.PutChunksFrom(id, m, m%owners, mkBuckets(m)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errc := make(chan error, 16)
	// Invalidators: each kills one owner mid-flight.
	for o := 0; o < owners; o++ {
		o := o
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.InvalidateOwner(o)
			// A zombie write from the dead owner must be rejected.
			if err := s.PutChunksFrom(id, o, o, mkBuckets(o)); err == nil {
				errc <- fmt.Errorf("owner %d wrote after invalidation", o)
			}
		}()
	}
	// Readers tolerate holes but nothing else.
	for r := 0; r < 8; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				_, err := s.FetchChunks(id, (r+i)%reduceParts)
				if err != nil {
					var miss *MapOutputMissingError
					if !errors.As(err, &miss) {
						errc <- fmt.Errorf("fetch: %v", err)
						return
					}
				}
				_ = s.MissingParts(id)
				_ = s.Complete(id)
			}
		}()
	}
	// Recovery writers: survivors re-execute whatever is missing.
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for _, m := range s.MissingParts(id) {
					if err := s.PutChunksFrom(id, m, owners+w, mkBuckets(m)); err != nil {
						errc <- fmt.Errorf("recovery put: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Quiesced: one final recovery pass restores completeness.
	for _, m := range s.MissingParts(id) {
		if err := s.PutChunksFrom(id, m, owners, mkBuckets(m)); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Complete(id) {
		t.Fatalf("shuffle incomplete after recovery; missing %v", s.MissingParts(id))
	}
	for r := 0; r < reduceParts; r++ {
		if _, err := s.FetchChunks(id, r); err != nil {
			t.Fatalf("fetch after recovery: %v", err)
		}
	}
}

// spillChunk is the deterministic bucket content for the budgeted-store
// races: any fetch, resident or restored from a spill file, must return
// exactly this.
func spillChunk(m, r int) []int64 {
	return []int64{int64(m), int64(r), int64(m * r)}
}

func mkSpillChunks(m, reduceParts int) []any {
	chunks := make([]any, reduceParts)
	for r := range chunks {
		chunks[r] = spillChunk(m, r)
	}
	return chunks
}

// TestShuffleStoreSpillConcurrentThrash runs the budgeted store under a
// budget small enough that almost every put evicts, with writers
// re-putting partitions, readers fetching and verifying contents, and
// registry churn — so evictions, spill-file reads, re-puts over spilled
// partitions, and Drop cleanup all race. Run under -race this is the
// acceptance test for the spill locking; the content checks prove a
// restored chunk is byte-for-byte what was put.
func TestShuffleStoreSpillConcurrentThrash(t *testing.T) {
	const (
		shuffles    = 4
		mapParts    = 12
		reduceParts = 6
		writers     = 6
		readers     = 6
		rounds      = 40
		budget      = 256 // roughly one entry: constant thrash
	)
	s, err := NewSpillingShuffleStore(spill.NewAccountant(budget), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, shuffles)
	for i := range ids {
		ids[i] = s.Register(mapParts, reduceParts)
	}
	for _, id := range ids {
		for m := 0; m < mapParts; m++ {
			if err := s.PutChunksFrom(id, m, -1, mkSpillChunks(m, reduceParts)); err != nil {
				t.Fatal(err)
			}
		}
	}

	var wg sync.WaitGroup
	errc := make(chan error, writers+readers+1)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := ids[(w+i)%shuffles]
				m := (w*5 + i) % mapParts
				if err := s.PutChunksFrom(id, m, -1, mkSpillChunks(m, reduceParts)); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := ids[(r+i)%shuffles]
				rp := (r + i) % reduceParts
				out, err := s.FetchChunks(id, rp)
				if err != nil {
					errc <- err
					return
				}
				for m, ch := range out {
					got, ok := ch.([]int64)
					if !ok || !slices.Equal(got, spillChunk(m, rp)) {
						errc <- fmt.Errorf("shuffle %d map %d reduce %d: got %v", id, m, rp, ch)
						return
					}
				}
			}
		}()
	}
	// Registry churn: short-lived budgeted shuffles register, put (and
	// likely spill), then Drop — their files and tickets must vanish.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			id := s.Register(2, reduceParts)
			_ = s.PutChunksFrom(id, 0, -1, mkSpillChunks(0, reduceParts))
			s.Drop(id)
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	st, ok := s.SpillStats()
	if !ok {
		t.Fatal("budgeted store reports no stats")
	}
	if st.Spills == 0 || st.Restores == 0 {
		t.Fatalf("thrash produced no spill traffic: %+v", st)
	}
	if st.EncodeFailures != 0 {
		t.Fatalf("%d encode failures: %+v", st.EncodeFailures, st)
	}
	if st.Peak > budget {
		t.Fatalf("stabilized peak %d exceeds budget %d", st.Peak, budget)
	}
}

// TestShuffleStoreSpillEvictionRacesInvalidation races owner
// invalidation against a thrashing budget: evictions of partitions
// being invalidated, fetches of partitions whose spill files are being
// removed, and recovery re-puts over spilled generations. Fetches may
// see typed holes, nothing else; afterwards recovery restores a
// complete, correct shuffle.
func TestShuffleStoreSpillEvictionRacesInvalidation(t *testing.T) {
	const (
		mapParts    = 24
		reduceParts = 4
		owners      = 4
		rounds      = 40
		budget      = 200
	)
	s, err := NewSpillingShuffleStore(spill.NewAccountant(budget), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id := s.Register(mapParts, reduceParts)
	for m := 0; m < mapParts; m++ {
		if err := s.PutChunksFrom(id, m, m%owners, mkSpillChunks(m, reduceParts)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for o := 0; o < owners; o++ {
		o := o
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.InvalidateOwner(o)
			if err := s.PutChunksFrom(id, o, o, mkSpillChunks(o, reduceParts)); err == nil {
				errc <- fmt.Errorf("owner %d wrote after invalidation", o)
			}
		}()
	}
	for r := 0; r < 8; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				rp := (r + i) % reduceParts
				out, err := s.FetchChunks(id, rp)
				if err != nil {
					var miss *MapOutputMissingError
					if !errors.As(err, &miss) {
						errc <- fmt.Errorf("fetch: %v", err)
						return
					}
					continue
				}
				for m, ch := range out {
					got, ok := ch.([]int64)
					if !ok || !slices.Equal(got, spillChunk(m, rp)) {
						errc <- fmt.Errorf("map %d reduce %d: got %v", m, rp, ch)
						return
					}
				}
			}
		}()
	}
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for _, m := range s.MissingParts(id) {
					if err := s.PutChunksFrom(id, m, owners+w, mkSpillChunks(m, reduceParts)); err != nil {
						errc <- fmt.Errorf("recovery put: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	for _, m := range s.MissingParts(id) {
		if err := s.PutChunksFrom(id, m, owners, mkSpillChunks(m, reduceParts)); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Complete(id) {
		t.Fatalf("incomplete after recovery; missing %v", s.MissingParts(id))
	}
	for rp := 0; rp < reduceParts; rp++ {
		out, err := s.FetchChunks(id, rp)
		if err != nil {
			t.Fatalf("fetch after recovery: %v", err)
		}
		for m, ch := range out {
			got, ok := ch.([]int64)
			if !ok || !slices.Equal(got, spillChunk(m, rp)) {
				t.Fatalf("after recovery: map %d reduce %d holds %v", m, rp, ch)
			}
		}
	}
	if st, _ := s.SpillStats(); st.Spills == 0 {
		t.Fatalf("budget %d never spilled: %+v", budget, st)
	}
}
