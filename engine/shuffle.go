package engine

import (
	"fmt"
	"sort"
	"sync"

	"hpcmr/internal/spill"
)

// ShuffleStore is the in-memory shuffle service connecting map-side
// output buckets to reduce-side fetches.
//
// The unit of storage is the *chunk*: one bucket's records as a typed
// slice (e.g. []Pair[K,V]) boxed in a single interface value. Map tasks
// publish one chunk per reduce partition with PutChunksFrom, and
// FetchChunks/FetchChunk hand the stored chunks back without flattening
// or copying — the rdd layer restores their static types. Each map
// partition's chunk list is a spill.Block of the store's tier, which
// moves it between memory and a spill file under a memory budget.
//
// Locking is sharded: the store-level RWMutex only guards the shuffle
// registry and the lost-executor set (Register/Drop/InvalidateOwner
// take it exclusively, everything else shared), and each shuffle
// carries its own RWMutex, taken before its blocks' locks. Concurrent
// map tasks writing different shuffles, and reduce fetches against an
// already-written shuffle, do not serialize on one global lock.
//
// For fault recovery the store tracks provenance: PutChunksFrom records
// which executor produced each map partition, InvalidateOwner drops every
// partition a lost executor produced (and bans late writes from its
// zombie attempts), and MissingParts lists what lineage re-execution
// must rebuild.
type ShuffleStore struct {
	mu       sync.RWMutex
	shuffles map[int]*shuffleData
	nextID   int
	lost     map[int]bool // executors whose writes are no longer accepted

	// Drop's tombstones, which RegisterWithID refuses: every ID at or
	// below droppedThrough has been dropped, and dropped holds the
	// dropped IDs above it until the gaps below them close.
	dropped        map[int]bool
	droppedThrough int

	// tier holds the map outputs: nil keeps them in memory, a budgeted
	// tier spills the least recently used past its budget.
	tier *spill.Tier
}

// shuffleData holds one shuffle: per map partition, a block holding its
// chunk list ([reducePartition] -> boxed chunk, nil when empty) and its
// producing executor. A map partition is written while its block holds
// content.
type shuffleData struct {
	mu          sync.RWMutex
	mapParts    int
	reduceParts int
	rows        []spill.Block

	// weights is the locality ledger: per map partition, the bytes of
	// each reduce bucket as they were put — the chunks' volumes, or the
	// executor-reported weights of a PutChunkMetaFrom placeholder. It is
	// recorded once, so a row scores the same resident, spilled or held
	// by a remote executor. nil per map partition when unwritten or put
	// without weights; an entry counts only while its row has an owner,
	// so a row a failed spill read dropped scores nothing.
	weights [][]int64
}

// ChunkVolume measures one chunk as the store accounts it
// (spill.Volume), so external shuffle paths (the distributed runtime's
// network fetches) report volume consistently with local fetches.
func ChunkVolume(ch any) (records, bytes int64) { return spill.Volume(ch) }

// LostPart identifies one invalidated map output.
type LostPart struct {
	Shuffle int
	MapPart int
}

// NewShuffleStore returns an empty store that keeps everything in
// memory.
func NewShuffleStore() *ShuffleStore { return NewTieredShuffleStore(nil) }

// NewTieredShuffleStore returns an empty store whose map outputs are
// blocks of t; a nil t keeps them all in memory. engine.New and the
// distributed executors build their stores with it.
func NewTieredShuffleStore(t *spill.Tier) *ShuffleStore {
	return &ShuffleStore{shuffles: make(map[int]*shuffleData), lost: make(map[int]bool), dropped: make(map[int]bool), tier: t}
}

// NewSpillingShuffleStore returns a store that keeps its accounted
// resident bytes inside acct's budget by spilling LRU map outputs into
// dir (created if absent). The caller owns dir's lifetime.
func NewSpillingShuffleStore(acct *spill.Accountant, dir string) (*ShuffleStore, error) {
	t, err := spill.NewTier(acct, dir, "")
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	return NewTieredShuffleStore(t), nil
}

// SetSpillAudit installs the hook receiving spill/restore events
// (kind "spill", "restore", "spill-fail", "spill-corrupt").
func (s *ShuffleStore) SetSpillAudit(fn func(kind string, value float64, detail string)) {
	s.tier.SetAudit(fn)
}

// SpillStats snapshots the budget accountant; ok is false for an
// unbudgeted store.
func (s *ShuffleStore) SpillStats() (st spill.Stats, ok bool) { return s.tier.Stats() }

// newShuffleData allocates shuffle id's storage.
func (s *ShuffleStore) newShuffleData(id, mapParts, reduceParts int) *shuffleData {
	return &shuffleData{mapParts: mapParts, reduceParts: reduceParts, rows: s.tier.Blocks("shuffle", id, mapParts), weights: make([][]int64, mapParts)}
}

// Register allocates a shuffle with the given geometry and returns its
// ID.
func (s *ShuffleStore) Register(mapParts, reduceParts int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	s.shuffles[s.nextID] = s.newShuffleData(s.nextID, mapParts, reduceParts)
	return s.nextID
}

// RegisterWithID materializes shuffle id with the given geometry, the
// hook remote executors use to mirror the driver's shuffle registry in
// their local stores: the driver allocates IDs with Register, ships
// them in task descriptors, and each executor lazily registers the same
// ID on first touch. Registering an existing ID with the same geometry
// is a no-op; a geometry mismatch is an error. nextID advances past id
// so a later Register never collides. A dropped ID is refused: IDs are
// never reused, so the only writer still holding one is a late attempt
// (a speculative loser, a zombie), and registering it again would leave
// a shuffle nothing ever drops.
func (s *ShuffleStore) RegisterWithID(id, mapParts, reduceParts int) error {
	if id <= 0 {
		return fmt.Errorf("engine: RegisterWithID: invalid shuffle id %d", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if id <= s.droppedThrough || s.dropped[id] {
		return fmt.Errorf("engine: RegisterWithID: shuffle %d was dropped", id)
	}
	if d, ok := s.shuffles[id]; ok {
		if d.mapParts != mapParts || d.reduceParts != reduceParts {
			return fmt.Errorf("engine: shuffle %d already registered as %dx%d, want %dx%d",
				id, d.mapParts, d.reduceParts, mapParts, reduceParts)
		}
		return nil
	}
	s.shuffles[id] = s.newShuffleData(id, mapParts, reduceParts)
	if id > s.nextID {
		s.nextID = id
	}
	return nil
}

// get looks a shuffle up under the shared registry lock.
func (s *ShuffleStore) get(shuffleID int) (*shuffleData, bool) {
	s.mu.RLock()
	d, ok := s.shuffles[shuffleID]
	s.mu.RUnlock()
	return d, ok
}

// lockPut takes d's lock for a write by owner, refusing a banned owner
// with ErrExecutorLost. The ban is read under the lock on purpose:
// InvalidateOwner sets it and then sweeps every shuffle under that
// shuffle's lock, so a put either is written before the sweep reaches
// it (and swept) or sees the ban. Read before the lock, a put could
// land after the sweep and leave its partition owned by a dead
// executor: written, so MissingParts never reports it and no repair
// re-runs it, yet unfetchable.
func (s *ShuffleStore) lockPut(d *shuffleData, shuffleID, owner int) error {
	d.mu.Lock()
	s.mu.RLock()
	banned := owner >= 0 && s.lost[owner]
	s.mu.RUnlock()
	if banned {
		d.mu.Unlock()
		return fmt.Errorf("engine: shuffle %d: write from executor %d: %w", shuffleID, owner, ErrExecutorLost)
	}
	return nil
}

// PutChunksFrom stores a map partition's output produced by owner: one
// chunk per reduce partition (nil for empty buckets), each a typed
// slice boxed once. Each bucket's ChunkVolume is recorded as its
// locality weight. Writes from an executor that has been invalidated
// are rejected with ErrExecutorLost, so a zombie attempt racing its
// executor's loss cannot resurrect dropped output. Re-puts (task
// retries) overwrite the previous attempt wherever it lives.
func (s *ShuffleStore) PutChunksFrom(shuffleID, mapPart, owner int, chunks []any) error {
	d, ok := s.get(shuffleID)
	if !ok {
		return fmt.Errorf("engine: unknown shuffle %d", shuffleID)
	}
	if mapPart < 0 || mapPart >= d.mapParts {
		return fmt.Errorf("engine: shuffle %d: map partition %d out of range", shuffleID, mapPart)
	}
	if len(chunks) != d.reduceParts {
		return fmt.Errorf("engine: shuffle %d: got %d buckets, want %d", shuffleID, len(chunks), d.reduceParts)
	}
	weights := make([]int64, len(chunks))
	for r, ch := range chunks {
		_, weights[r] = ChunkVolume(ch)
	}
	if err := s.lockPut(d, shuffleID, owner); err != nil {
		return err
	}
	d.rows[mapPart].Put(owner, chunks)
	d.weights[mapPart] = weights
	d.mu.Unlock()
	s.tier.Evict()
	return nil
}

// PutChunkMetaFrom records ownership of a map partition without
// holding its data: the placeholder row the distributed driver writes
// when the chunks stay in the producing executor's local store.
// bucketBytes, when non-nil, carries the partition's per-reduce-bucket
// byte weights (len reduceParts) so locality scoring sees the same
// volumes the owning executor accounted; nil records ownership only,
// which gives the owner no locality preference.
// Banned-writer and re-put semantics match PutChunksFrom. Placeholder
// rows contribute nothing to the store's movement counters — the data
// never moved through this store.
func (s *ShuffleStore) PutChunkMetaFrom(shuffleID, mapPart, owner int, bucketBytes []int64) error {
	d, ok := s.get(shuffleID)
	if !ok {
		return fmt.Errorf("engine: unknown shuffle %d", shuffleID)
	}
	if mapPart < 0 || mapPart >= d.mapParts {
		return fmt.Errorf("engine: shuffle %d: map partition %d out of range", shuffleID, mapPart)
	}
	if bucketBytes != nil && len(bucketBytes) != d.reduceParts {
		return fmt.Errorf("engine: shuffle %d: got %d bucket weights, want %d", shuffleID, len(bucketBytes), d.reduceParts)
	}
	if err := s.lockPut(d, shuffleID, owner); err != nil {
		return err
	}
	d.rows[mapPart].Put(owner, nil)
	d.weights[mapPart] = bucketBytes
	d.mu.Unlock()
	return nil
}

// OwnerReduceBytes scores, for every reduce partition of a shuffle, the
// map-output bytes each executor holds — the input to locality
// placement. Every written row counts the bucket weights recorded when
// it was put, at weight 1 whether it is resident, spilled or a
// placeholder; a row put without weights counts nothing. Executors
// outside [0, executors) and unwritten partitions contribute nothing.
// The result is [reducePart][executor].
func (s *ShuffleStore) OwnerReduceBytes(shuffleID, executors int) [][]float64 {
	d, ok := s.get(shuffleID)
	if !ok || executors <= 0 {
		return nil
	}
	out := make([][]float64, d.reduceParts)
	for r := range out {
		out[r] = make([]float64, executors)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	for m, w := range d.weights {
		if o := d.rows[m].Owner(); o >= 0 && o < executors {
			for r, b := range w {
				out[r][o] += float64(b)
			}
		}
	}
	return out
}

// FetchChunks returns one chunk per map partition for the given reduce
// partition, exactly as stored — no flattening, no copy. Entries are
// nil where a map partition produced nothing for this reduce partition.
// A map partition that has not been written — never materialized, or
// invalidated by executor loss — yields a MapOutputMissingError.
//
// On a budgeted store each partition is read from memory or, one
// bucket at a time, from its spill file (spill.Block.Read). A spill
// file whose header or requested bucket fails to read (disk corruption)
// is dropped and the partition reported missing, which sends the caller
// down the existing third level: lineage re-execution.
func (s *ShuffleStore) FetchChunks(shuffleID, reducePart int) ([]any, error) {
	d, ok := s.get(shuffleID)
	if !ok {
		return nil, fmt.Errorf("engine: unknown shuffle %d", shuffleID)
	}
	if reducePart < 0 || reducePart >= d.reduceParts {
		return nil, fmt.Errorf("engine: shuffle %d: reduce partition %d out of range", shuffleID, reducePart)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]any, d.mapParts)
	for m := range out {
		ch, ok := d.rows[m].Read(reducePart)
		if !ok {
			return nil, &MapOutputMissingError{Shuffle: shuffleID, MapPart: m}
		}
		out[m] = ch
	}
	return out, nil
}

// FetchChunk returns the single stored chunk for one (map, reduce)
// partition pair, with the same MapOutputMissingError semantics as
// FetchChunks. This is the granularity the distributed shuffle service
// serves at: a remote reducer asks an executor only for the map
// partitions that executor owns. A shuffle the store does not hold is
// missing output too — the driver released it while a late attempt
// still gathers it — not a failure to retry and then blame on the
// executor serving the fetch.
func (s *ShuffleStore) FetchChunk(shuffleID, mapPart, reducePart int) (any, error) {
	d, ok := s.get(shuffleID)
	if !ok {
		return nil, &MapOutputMissingError{Shuffle: shuffleID, MapPart: mapPart}
	}
	if mapPart < 0 || mapPart >= d.mapParts {
		return nil, fmt.Errorf("engine: shuffle %d: map partition %d out of range", shuffleID, mapPart)
	}
	if reducePart < 0 || reducePart >= d.reduceParts {
		return nil, fmt.Errorf("engine: shuffle %d: reduce partition %d out of range", shuffleID, reducePart)
	}
	d.mu.RLock()
	ch, ok := d.rows[mapPart].Read(reducePart)
	d.mu.RUnlock()
	if !ok {
		return nil, &MapOutputMissingError{Shuffle: shuffleID, MapPart: mapPart}
	}
	return ch, nil
}

// Owners returns the producing executor of each map partition, -1 where
// the partition is unwritten (never materialized, or invalidated by
// executor loss). The distributed driver builds reduce-task fetch
// locations from this.
func (s *ShuffleStore) Owners(shuffleID int) []int {
	d, ok := s.get(shuffleID)
	if !ok {
		return nil
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]int, d.mapParts)
	for m := range out {
		out[m] = d.rows[m].Owner()
	}
	return out
}

// InvalidateOwner drops every map partition the given executor
// produced, across all registered shuffles, and bans its future writes.
// It returns the invalidated partitions (sorted by shuffle, then map
// partition) so callers can audit and re-execute them.
func (s *ShuffleStore) InvalidateOwner(owner int) []LostPart {
	if owner < 0 {
		return nil
	}
	s.mu.Lock()
	s.lost[owner] = true
	ids := make([]int, 0, len(s.shuffles))
	for id := range s.shuffles {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Ints(ids)

	var lost []LostPart
	for _, id := range ids {
		d, ok := s.get(id)
		if !ok {
			continue
		}
		d.mu.Lock()
		for m := range d.rows {
			if d.rows[m].Owner() == owner {
				d.invalidate(m)
				lost = append(lost, LostPart{Shuffle: id, MapPart: m})
			}
		}
		d.mu.Unlock()
	}
	return lost
}

// invalidate drops map partition m and its weights. The spill file
// goes with the block: it is the owner's local disk, and a crashed
// executor's disk is gone. Called with d.mu held for writing.
func (d *shuffleData) invalidate(m int) {
	d.rows[m].Drop()
	d.weights[m] = nil
}

// InvalidatePart drops one map partition if owner still holds it, so
// that MissingParts lists it and lineage re-executes it: the
// distributed driver's answer to a live executor reporting that it no
// longer has a partition the driver's placeholder row credits it with
// (its spill file turned out corrupt). The owner guard makes a stale
// report harmless — a row since repaired by another executor, or swept
// by InvalidateOwner, is left alone. Reports whether the row was
// dropped.
func (s *ShuffleStore) InvalidatePart(shuffleID, mapPart, owner int) bool {
	d, ok := s.get(shuffleID)
	if !ok || mapPart < 0 || mapPart >= d.mapParts || owner < 0 {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.rows[mapPart].Owner() != owner {
		return false
	}
	d.invalidate(mapPart)
	return true
}

// MissingParts returns the map partitions of a shuffle that are not
// currently materialized, ascending.
func (s *ShuffleStore) MissingParts(shuffleID int) []int {
	d, ok := s.get(shuffleID)
	if !ok {
		return nil
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	var out []int
	for m := range d.rows {
		if !d.rows[m].Held() {
			out = append(out, m)
		}
	}
	return out
}

// Complete reports whether every map partition has been written.
func (s *ShuffleStore) Complete(shuffleID int) bool {
	d, ok := s.get(shuffleID)
	if !ok {
		return false
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	for m := range d.rows {
		if !d.rows[m].Held() {
			return false
		}
	}
	return true
}

// Drop releases a shuffle's blocks — their accountant tickets and spill
// files with them — and leaves a tombstone so the ID cannot be
// registered again. It reports whether the shuffle was registered.
func (s *ShuffleStore) Drop(shuffleID int) bool {
	s.mu.Lock()
	d, ok := s.shuffles[shuffleID]
	delete(s.shuffles, shuffleID)
	if shuffleID > s.droppedThrough {
		s.dropped[shuffleID] = true
		for s.dropped[s.droppedThrough+1] {
			delete(s.dropped, s.droppedThrough+1)
			s.droppedThrough++
		}
	}
	s.mu.Unlock()
	if !ok {
		return false
	}
	d.mu.Lock()
	for m := range d.rows {
		d.rows[m].Drop()
	}
	d.mu.Unlock()
	return true
}

// Len returns the number of registered shuffles.
func (s *ShuffleStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.shuffles)
}
