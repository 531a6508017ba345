package storage

// SSD models a SATA solid-state drive with the behaviours the paper's
// Section IV-C/D characterization depends on:
//
//   - asymmetric peak bandwidth (Hyperion: 387 MB/s write, 507 MB/s read);
//   - a clean-block pool: while cumulative writes stay inside it, writes
//     run at peak speed ("early tasks take advantage of write buffer and
//     clean blocks");
//   - once the pool is depleted, delayed-write handling and garbage
//     collection activate: aggregate write bandwidth degrades as a
//     function of how far past the pool writes have gone, down to a
//     floor, and reads degrade by a milder factor ("the write
//     performance falls more drastically than that of read");
//   - queue-depth interference: aggregate throughput shrinks as more
//     writers issue requests concurrently, on top of the fair sharing
//     between them — the congestion-oblivious dispatch pathology that
//     CAD exists to mitigate.
//
// The capacity state is stepwise: effective bandwidths are recomputed on
// every operation start and completion, which is dense enough in
// practice since shuffle writes arrive as many per-task chunks.

import (
	"hpcmr/internal/simclock"
)

// SSDSpec parameterizes an SSD device model.
type SSDSpec struct {
	// WriteBandwidth is the peak sequential write bandwidth, bytes/s.
	WriteBandwidth float64
	// ReadBandwidth is the peak sequential read bandwidth, bytes/s.
	ReadBandwidth float64
	// CapacityBytes is the device size.
	CapacityBytes float64
	// CleanPoolBytes is how much can be written at peak speed before
	// garbage collection activates.
	CleanPoolBytes float64
	// GCWindowBytes is how many bytes past the clean pool it takes for
	// write bandwidth to decay from peak to the floor.
	GCWindowBytes float64
	// WriteFloorFraction is the fraction of peak write bandwidth left
	// once GC is in full swing.
	WriteFloorFraction float64
	// ReadFloorFraction is the fraction of peak read bandwidth left once
	// GC is in full swing (milder than the write floor).
	ReadFloorFraction float64
	// WriteInterference is the per-extra-concurrent-writer aggregate
	// degradation factor: aggregate = base / (1 + WriteInterference*(n-1)).
	// Zero disables interference.
	WriteInterference float64
	// WriteAmplification is the per-extra-concurrent-writer write
	// amplification: n concurrent writers fragment their streams, so
	// each accepted byte consumes 1 + WriteAmplification*(n-1) bytes of
	// clean-pool budget — burning toward garbage collection faster.
	// This is the mechanism that makes congestion-oblivious dispatch
	// expensive and throttled dispatch (CAD) cheap. Zero disables it.
	WriteAmplification float64
}

// DefaultSSDSpec returns the Hyperion-like SATA SSD used in the paper:
// 128 GB, 387 MB/s write and 507 MB/s read peak.
func DefaultSSDSpec() SSDSpec {
	return SSDSpec{
		WriteBandwidth:     387e6,
		ReadBandwidth:      507e6,
		CapacityBytes:      128e9,
		CleanPoolBytes:     40e9,
		GCWindowBytes:      40e9,
		WriteFloorFraction: 0.22,
		ReadFloorFraction:  0.60,
		WriteInterference:  0.06,
		WriteAmplification: 0.08,
	}
}

// SSD is a simulated solid-state drive.
type SSD struct {
	name     string
	spec     SSDSpec
	fluid    *simclock.Fluid
	writeRes *simclock.Res
	readRes  *simclock.Res

	written       float64 // cumulative bytes accepted for writing
	read          float64
	activeWriters int
}

// NewSSD builds an SSD from spec.
func NewSSD(fluid *simclock.Fluid, name string, spec SSDSpec) *SSD {
	s := &SSD{
		name:     name,
		spec:     spec,
		fluid:    fluid,
		writeRes: fluid.NewRes(name+"/w", spec.WriteBandwidth),
		readRes:  fluid.NewRes(name+"/r", spec.ReadBandwidth),
	}
	return s
}

// gcFraction returns the bandwidth-degradation factor in [floor, 1] for
// the given floor, driven by cumulative writes past the clean pool.
func (s *SSD) gcFraction(floor float64) float64 {
	over := s.written - s.spec.CleanPoolBytes
	if over <= 0 {
		return 1
	}
	window := s.spec.GCWindowBytes
	if window <= 0 {
		return floor
	}
	frac := 1 - (1-floor)*(over/window)
	if frac < floor {
		return floor
	}
	return frac
}

// interferenceDivisor returns the aggregate-throughput divisor for the
// current writer count.
func (s *SSD) interferenceDivisor() float64 {
	n := s.activeWriters
	if n <= 1 || s.spec.WriteInterference <= 0 {
		return 1
	}
	return 1 + s.spec.WriteInterference*float64(n-1)
}

// retune recomputes effective channel capacities from device state.
func (s *SSD) retune() {
	w := s.spec.WriteBandwidth * s.gcFraction(s.spec.WriteFloorFraction) / s.interferenceDivisor()
	s.writeRes.SetCapacity(w)
	r := s.spec.ReadBandwidth * s.gcFraction(s.spec.ReadFloorFraction)
	s.readRes.SetCapacity(r)
}

// Write implements Device. GC state is driven by accepted bytes —
// amplified by concurrent-writer fragmentation — so a write large
// enough to deplete the clean pool runs degraded itself.
func (s *SSD) Write(size float64, done func()) {
	s.activeWriters++
	amplify := 1.0
	if s.spec.WriteAmplification > 0 && s.activeWriters > 1 {
		amplify = 1 + s.spec.WriteAmplification*float64(s.activeWriters-1)
	}
	s.written += size * amplify
	s.retune()
	s.fluid.Start(size, func() {
		s.activeWriters--
		s.retune()
		if done != nil {
			done()
		}
	}, s.writeRes)
}

// Read implements Device.
func (s *SSD) Read(size float64, done func()) {
	s.fluid.Start(size, func() {
		s.read += size
		if done != nil {
			done()
		}
	}, s.readRes)
}

// Name implements Device.
func (s *SSD) Name() string { return s.name }

// BytesWritten implements Device.
func (s *SSD) BytesWritten() float64 { return s.written }

// BytesRead implements Device.
func (s *SSD) BytesRead() float64 { return s.read }

// Capacity implements Device.
func (s *SSD) Capacity() float64 { return s.spec.CapacityBytes }

// WriteCapacity returns the current effective aggregate write bandwidth.
func (s *SSD) WriteCapacity() float64 { return s.writeRes.Capacity() }

// GCActive reports whether the clean pool has been depleted.
func (s *SSD) GCActive() bool { return s.written > s.spec.CleanPoolBytes }
