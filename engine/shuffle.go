package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"

	"hpcmr/internal/spill"
)

// ShuffleStore is the in-memory shuffle service connecting map-side
// output buckets to reduce-side fetches.
//
// The unit of storage is the *chunk*: one bucket's records as a typed
// slice (e.g. []Pair[K,V]) boxed in a single interface value. Map tasks
// publish one chunk per reduce partition with PutChunksFrom, and
// FetchChunks/FetchChunk hand the stored chunks back without flattening
// or copying — the rdd layer restores their static types.
//
// Locking is sharded: the store-level RWMutex only guards the shuffle
// registry and the lost-executor set (Register/Drop/InvalidateOwner
// take it exclusively, everything else shared), and each shuffle
// carries its own RWMutex. Concurrent map tasks writing different
// shuffles, and reduce fetches against an already-written shuffle, do
// not serialize on one global lock.
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

	// spill, when non-nil, makes the store memory-budgeted: map outputs
	// are admitted to the accountant and evicted LRU into spill files
	// when resident bytes exceed the budget. nil = the classic
	// everything-in-RAM store.
	spill *storeSpill

	// Store-wide movement totals, mirrored from the per-shuffle counters
	// so they survive Drop.
	totalRecords atomic.Int64
	totalBytes   atomic.Int64
}

// storeSpill is a budgeted store's spill machinery.
type storeSpill struct {
	acct *spill.Accountant
	dir  string

	auditMu sync.RWMutex
	audit   func(kind string, value float64, detail string)
}

// auditf emits one spill event if an audit hook is installed.
func (sp *storeSpill) auditf(kind string, value float64, detail string) {
	sp.auditMu.RLock()
	fn := sp.audit
	sp.auditMu.RUnlock()
	if fn != nil {
		fn(kind, value, detail)
	}
}

// shuffleData holds one shuffle's chunks:
// [mapPartition][reducePartition] -> boxed chunk (nil when empty).
type shuffleData struct {
	mu          sync.RWMutex
	mapParts    int
	reduceParts int
	chunks      [][]any
	written     []bool
	owners      []int // producing executor per map partition; -1 unknown

	// Budgeted-store state, allocated only when the store spills.
	// spilled marks a written partition whose chunk list lives in a
	// spill file instead of chunks[m]; gen counts rewrites of each
	// partition so a stale in-flight eviction recognizes it has been
	// superseded; bytes is each partition's accounted size; handles are
	// the accountant tickets of resident partitions.
	spilled []bool
	gen     []uint64
	bytes   []int64
	handles []*spill.Handle

	// metaBytes holds per-reduce-bucket byte weights for placeholder
	// rows written with PutChunkMetaFrom — the distributed driver's
	// form, where the chunks live in executor stores and only ownership
	// plus weight is mirrored here. nil per map partition when the row
	// holds real chunks.
	metaBytes [][]int64

	// Cumulative movement through this shuffle: every record/byte ever
	// put, including re-puts from retried or recovered map tasks — the
	// write amplification a fault run actually paid, not just the
	// surviving data.
	putRecords atomic.Int64
	putBytes   atomic.Int64
}

// Volume summarizes data movement through a shuffle (or a whole store):
// records written and their approximate in-memory bytes, cumulative
// across re-puts.
type Volume struct {
	Records int64
	Bytes   int64
}

// ChunkVolume measures one chunk with the store's own accounting, so
// external shuffle paths (the distributed runtime's network fetches)
// report volume consistently with local fetches: its record count and
// approximate bytes (element size times length; a []any chunk counts
// one 16-byte interface header per record).
func ChunkVolume(ch any) (records, bytes int64) {
	if ch == nil {
		return 0, 0
	}
	v := reflect.ValueOf(ch)
	n := int64(v.Len())
	return n, n * int64(v.Type().Elem().Size())
}

// LostPart identifies one invalidated map output.
type LostPart struct {
	Shuffle int
	MapPart int
}

// NewShuffleStore returns an empty store.
func NewShuffleStore() *ShuffleStore {
	return &ShuffleStore{shuffles: make(map[int]*shuffleData), lost: make(map[int]bool), dropped: make(map[int]bool)}
}

// NewSpillingShuffleStore returns a store that keeps its accounted
// resident bytes inside acct's budget by evicting LRU map outputs into
// spill files under dir (created if absent). The caller owns dir's
// lifetime; engine.New wires this up from Config.MemoryBudget.
func NewSpillingShuffleStore(acct *spill.Accountant, dir string) (*ShuffleStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: spill dir: %w", err)
	}
	s := NewShuffleStore()
	s.spill = &storeSpill{acct: acct, dir: dir}
	return s, nil
}

// SetSpillAudit installs the hook receiving spill/restore events
// (kind "spill", "restore", "spill-fail", "spill-corrupt").
func (s *ShuffleStore) SetSpillAudit(fn func(kind string, value float64, detail string)) {
	if s.spill == nil {
		return
	}
	s.spill.auditMu.Lock()
	s.spill.audit = fn
	s.spill.auditMu.Unlock()
}

// SpillStats snapshots the budget accountant; ok is false for an
// unbudgeted store.
func (s *ShuffleStore) SpillStats() (st spill.Stats, ok bool) {
	if s.spill == nil {
		return spill.Stats{}, false
	}
	return s.spill.acct.Stats(), true
}

// spillPath is where one map partition's evicted chunk list lives.
func (s *ShuffleStore) spillPath(shuffleID, mapPart int) string {
	return filepath.Join(s.spill.dir, fmt.Sprintf("shuffle-%d-part-%d.spill", shuffleID, mapPart))
}

// newShuffleData allocates one shuffle's storage; the budgeted-store
// arrays only exist when the store spills.
func (s *ShuffleStore) newShuffleData(mapParts, reduceParts int) *shuffleData {
	chunks := make([][]any, mapParts)
	for i := range chunks {
		chunks[i] = make([]any, reduceParts)
	}
	owners := make([]int, mapParts)
	for i := range owners {
		owners[i] = -1
	}
	d := &shuffleData{
		mapParts:    mapParts,
		reduceParts: reduceParts,
		chunks:      chunks,
		written:     make([]bool, mapParts),
		owners:      owners,
	}
	if s.spill != nil {
		d.spilled = make([]bool, mapParts)
		d.gen = make([]uint64, mapParts)
		d.bytes = make([]int64, mapParts)
		d.handles = make([]*spill.Handle, mapParts)
	}
	return d
}

// Register allocates a shuffle with the given geometry and returns its
// ID.
func (s *ShuffleStore) Register(mapParts, reduceParts int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	s.shuffles[s.nextID] = s.newShuffleData(mapParts, reduceParts)
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
	s.shuffles[id] = s.newShuffleData(mapParts, reduceParts)
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
// slice boxed once. Writes from an executor that has been invalidated
// are rejected with ErrExecutorLost, so a zombie attempt racing its
// executor's loss cannot resurrect dropped output. Re-puts (task
// retries) overwrite the previous attempt.
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
	var records, bytes int64
	for _, ch := range chunks {
		r, b := ChunkVolume(ch)
		records, bytes = records+r, bytes+b
	}
	if err := s.lockPut(d, shuffleID, owner); err != nil {
		return err
	}
	if s.spill != nil {
		// A re-put (task retry, recovery) supersedes the previous
		// attempt wherever it lives: drop its spill file, retire its
		// accountant ticket, and bump the generation so an in-flight
		// eviction of the old attempt recognizes it is stale.
		if d.spilled[mapPart] {
			os.Remove(s.spillPath(shuffleID, mapPart))
			d.spilled[mapPart] = false
		}
		s.spill.acct.Release(d.handles[mapPart])
		d.gen[mapPart]++
		d.bytes[mapPart] = bytes
		d.handles[mapPart] = s.spill.acct.Admit(bytes, s.evictFunc(shuffleID, mapPart, d.gen[mapPart]))
	}
	d.chunks[mapPart] = chunks
	d.written[mapPart] = true
	d.owners[mapPart] = owner
	if d.metaBytes != nil {
		d.metaBytes[mapPart] = nil // real chunks supersede placeholder weights
	}
	d.mu.Unlock()
	d.putRecords.Add(records)
	d.putBytes.Add(bytes)
	s.totalRecords.Add(records)
	s.totalBytes.Add(bytes)
	if s.spill != nil {
		s.spill.acct.Evict()
	}
	return nil
}

// evictFunc builds the accountant callback that moves one map
// partition's chunk list to disk. It runs with no locks held (the
// accountant's mutex is a leaf) and revalidates under the shuffle lock:
// a partition dropped, invalidated, or re-put since the handle was
// admitted is simply stale — the bytes it accounted are already gone
// from the resident count, so it reports success without writing.
func (s *ShuffleStore) evictFunc(shuffleID, mapPart int, gen uint64) func() bool {
	return func() bool {
		d, ok := s.get(shuffleID)
		if !ok {
			return true
		}
		d.mu.Lock()
		defer d.mu.Unlock()
		if d.gen[mapPart] != gen || !d.written[mapPart] || d.spilled[mapPart] {
			return true
		}
		e := &spill.Entry{
			Space: "shuffle", ID: shuffleID, Part: mapPart,
			Owner: d.owners[mapPart], Chunks: d.chunks[mapPart],
		}
		// The file is written while the partition lock is held, so a
		// reader can never observe spilled=true before the file exists.
		if _, err := spill.WriteEntryFile(s.spillPath(shuffleID, mapPart), e); err != nil {
			s.spill.auditf("spill-fail", float64(d.bytes[mapPart]),
				fmt.Sprintf("shuffle=%d map=%d: %v", shuffleID, mapPart, err))
			return false // pin resident: unencodable or disk trouble
		}
		d.chunks[mapPart] = nil
		d.spilled[mapPart] = true
		d.handles[mapPart] = nil
		s.spill.acct.NoteSpill(d.bytes[mapPart])
		s.spill.auditf("spill", float64(d.bytes[mapPart]),
			fmt.Sprintf("shuffle=%d map=%d owner=%d", shuffleID, mapPart, e.Owner))
		return true
	}
}

// loadSpilled reads one bucket of a spilled map partition back — the
// file's header and that bucket's frame, nothing of the other buckets —
// validating provenance. Every read counts one restore, of the bytes of
// the bucket it returned. Called with d.mu held (read or write).
func (s *ShuffleStore) loadSpilled(shuffleID, mapPart, reducePart int) (any, error) {
	ch, err := spill.ReadChunkFile(s.spillPath(shuffleID, mapPart), "shuffle", shuffleID, mapPart, reducePart)
	if err != nil {
		return nil, err
	}
	_, bytes := ChunkVolume(ch)
	s.spill.acct.NoteRestore(bytes)
	s.spill.auditf("restore", float64(bytes),
		fmt.Sprintf("shuffle=%d map=%d bucket=%d", shuffleID, mapPart, reducePart))
	return ch, nil
}

// corruptSpill is readPart's report of a spill file that failed to
// read, carrying the generation that failed.
type corruptSpill struct {
	gen   uint64
	cause error
}

func (c *corruptSpill) Error() string { return c.cause.Error() }

// readPart is the one per-partition read FetchChunks and FetchChunk
// share, called with d.mu read-held. It returns map partition m's chunk
// for reduce partition r: resident chunks from memory (touched
// most-recently-used on a budgeted store), spilled ones read through
// from their spill file one bucket at a time — they stay on disk, so
// restores never push the store back over budget. An unwritten
// partition is a *MapOutputMissingError; a spill file that fails to
// read is a *corruptSpill, which the caller hands to readFailed once it
// has released d.mu.
func (s *ShuffleStore) readPart(d *shuffleData, shuffleID, m, r int) (any, error) {
	if !d.written[m] {
		return nil, &MapOutputMissingError{Shuffle: shuffleID, MapPart: m}
	}
	if s.spill == nil {
		return d.chunks[m][r], nil
	}
	if d.spilled[m] {
		ch, err := s.loadSpilled(shuffleID, m, r)
		if err != nil {
			return nil, &corruptSpill{gen: d.gen[m], cause: err}
		}
		return ch, nil
	}
	s.spill.acct.Touch(d.handles[m])
	return d.chunks[m][r], nil
}

// readFailed turns a failed readPart into the fetch's error, with d.mu
// released. A corrupt spill file is dropped — if the partition is still
// the generation that failed, it is marked unwritten so the recovery
// machinery re-executes it through lineage, the third level of the read
// path (memory → spill dir → recompute) — and reported missing like any
// unwritten partition.
func (s *ShuffleStore) readFailed(d *shuffleData, shuffleID, m int, err error) error {
	c, ok := err.(*corruptSpill)
	if !ok {
		return err
	}
	d.mu.Lock()
	if d.gen[m] == c.gen && d.written[m] && d.spilled[m] {
		s.invalidateRow(d, shuffleID, m)
		s.spill.auditf("spill-corrupt", float64(d.bytes[m]),
			fmt.Sprintf("shuffle=%d map=%d dropped for lineage recompute: %v", shuffleID, m, c.cause))
	}
	d.mu.Unlock()
	return &MapOutputMissingError{Shuffle: shuffleID, MapPart: m}
}

// ShuffleVolume returns the cumulative movement through one shuffle
// (zero Volume for unknown IDs).
func (s *ShuffleStore) ShuffleVolume(shuffleID int) Volume {
	d, ok := s.get(shuffleID)
	if !ok {
		return Volume{}
	}
	return Volume{Records: d.putRecords.Load(), Bytes: d.putBytes.Load()}
}

// TotalVolume returns the cumulative movement through every shuffle the
// store has ever held, including dropped ones.
func (s *ShuffleStore) TotalVolume() Volume {
	return Volume{Records: s.totalRecords.Load(), Bytes: s.totalBytes.Load()}
}

// PutChunkMetaFrom records ownership of a map partition without
// holding its data: the placeholder row the distributed driver writes
// when the chunks stay in the producing executor's local store.
// bucketBytes, when non-nil, carries the partition's per-reduce-bucket
// byte weights (len reduceParts) so locality scoring sees the same
// volumes the owning executor accounted; nil records ownership only.
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
	d.chunks[mapPart] = make([]any, d.reduceParts)
	d.written[mapPart] = true
	d.owners[mapPart] = owner
	if d.metaBytes == nil {
		d.metaBytes = make([][]int64, d.mapParts)
	}
	d.metaBytes[mapPart] = bucketBytes
	d.mu.Unlock()
	return nil
}

// OwnerReduceBytes scores, for every reduce partition of a shuffle, the
// effective map-output bytes each executor holds — the input to
// locality placement. Resident chunks count their accounted volume; a
// placeholder row (PutChunkMetaFrom) counts its recorded bucket
// weights, or one nominal byte per bucket when ownership was recorded
// without weights; a spilled partition's per-bucket share is multiplied
// by spillDiscount, since a co-located read of it is a disk restore,
// not a pointer hand-off. Executors outside [0, executors) and
// unwritten partitions contribute nothing. The result is
// [reducePart][executor].
func (s *ShuffleStore) OwnerReduceBytes(shuffleID, executors int, spillDiscount float64) [][]float64 {
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
	for m := 0; m < d.mapParts; m++ {
		o := d.owners[m]
		if !d.written[m] || o < 0 || o >= executors {
			continue
		}
		if d.metaBytes != nil && d.metaBytes[m] != nil {
			for r, b := range d.metaBytes[m] {
				out[r][o] += float64(b)
			}
			continue
		}
		if d.spilled != nil && d.spilled[m] {
			share := float64(d.bytes[m]) / float64(d.reduceParts) * spillDiscount
			for r := range out {
				out[r][o] += share
			}
			continue
		}
		if len(d.chunks[m]) == 0 || !anyChunkWritten(d.chunks[m]) {
			// Ownership-only row (weightless placeholder, or a map
			// partition that genuinely produced nothing): one nominal
			// byte per bucket, so a sole owner still outranks nobody.
			for r := range out {
				out[r][o]++
			}
			continue
		}
		for r, ch := range d.chunks[m] {
			if _, b := ChunkVolume(ch); b > 0 {
				out[r][o] += float64(b)
			}
		}
	}
	return out
}

// anyChunkWritten reports whether any bucket of a row holds data.
func anyChunkWritten(row []any) bool {
	for _, ch := range row {
		if ch != nil {
			return true
		}
	}
	return false
}

// FetchChunks returns one chunk per map partition for the given reduce
// partition, exactly as stored — no flattening, no copy. Entries are
// nil where a map partition produced nothing for this reduce partition.
// A map partition that has not been written — never materialized, or
// invalidated by executor loss — yields a MapOutputMissingError.
//
// On a budgeted store this is the two-level read path (readPart):
// resident partitions come from memory, spilled ones from their spill
// files. A spill file whose header or requested bucket fails to read
// (disk corruption) is dropped and the partition reported missing,
// which sends the caller down the existing third level: lineage
// re-execution.
func (s *ShuffleStore) FetchChunks(shuffleID, reducePart int) ([]any, error) {
	d, ok := s.get(shuffleID)
	if !ok {
		return nil, fmt.Errorf("engine: unknown shuffle %d", shuffleID)
	}
	if reducePart < 0 || reducePart >= d.reduceParts {
		return nil, fmt.Errorf("engine: shuffle %d: reduce partition %d out of range", shuffleID, reducePart)
	}
	d.mu.RLock()
	out := make([]any, d.mapParts)
	for m := range out {
		ch, err := s.readPart(d, shuffleID, m, reducePart)
		if err != nil {
			d.mu.RUnlock()
			return nil, s.readFailed(d, shuffleID, m, err)
		}
		out[m] = ch
	}
	d.mu.RUnlock()
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
	ch, err := s.readPart(d, shuffleID, mapPart, reducePart)
	d.mu.RUnlock()
	if err != nil {
		return nil, s.readFailed(d, shuffleID, mapPart, err)
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
	for m := 0; m < d.mapParts; m++ {
		if d.written[m] {
			out[m] = d.owners[m]
		} else {
			out[m] = -1
		}
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
		for m := 0; m < d.mapParts; m++ {
			if d.written[m] && d.owners[m] == owner {
				s.invalidateRow(d, id, m)
				lost = append(lost, LostPart{Shuffle: id, MapPart: m})
			}
		}
		d.mu.Unlock()
	}
	return lost
}

// invalidateRow marks one written map partition unwritten and releases
// whatever held its data. Called with d.mu held for writing.
func (s *ShuffleStore) invalidateRow(d *shuffleData, shuffleID, m int) {
	d.written[m] = false
	d.chunks[m] = make([]any, d.reduceParts)
	d.owners[m] = -1
	if d.metaBytes != nil {
		d.metaBytes[m] = nil
	}
	if s.spill != nil {
		// The spill file goes with the row: it is the owner's local disk,
		// and a crashed executor's disk is gone; a file that failed a
		// read is not trusted with the next one.
		s.spill.acct.Release(d.handles[m])
		d.handles[m] = nil
		if d.spilled[m] {
			os.Remove(s.spillPath(shuffleID, m))
			d.spilled[m] = false
		}
		d.gen[m]++
	}
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
	if !d.written[mapPart] || d.owners[mapPart] != owner {
		return false
	}
	s.invalidateRow(d, shuffleID, mapPart)
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
	for m := 0; m < d.mapParts; m++ {
		if !d.written[m] {
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
	for _, w := range d.written {
		if !w {
			return false
		}
	}
	return true
}

// Drop releases a shuffle's buckets, retiring its accountant tickets
// and spill files on a budgeted store, and leaves a tombstone so the ID
// cannot be registered again. It reports whether the shuffle was
// registered.
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
	if !ok || s.spill == nil {
		return ok
	}
	d.mu.Lock()
	for m := 0; m < d.mapParts; m++ {
		s.spill.acct.Release(d.handles[m])
		d.handles[m] = nil
		if d.spilled[m] {
			os.Remove(s.spillPath(shuffleID, m))
			d.spilled[m] = false
		}
		d.gen[m]++
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
