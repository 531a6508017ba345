package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"hpcmr/internal/storage"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig(100)
	if cfg.Nodes != 100 || cfg.CoresPerNode != 16 {
		t.Fatalf("nodes=%d cores=%d", cfg.Nodes, cfg.CoresPerNode)
	}
	if cfg.SparkMemoryBytes != 30e9 || cfg.RAMDiskBytes != 32e9 {
		t.Fatalf("memory=%v ramdisk=%v", cfg.SparkMemoryBytes, cfg.RAMDiskBytes)
	}
	if cfg.SSD.WriteBandwidth != 387e6 || cfg.SSD.ReadBandwidth != 507e6 {
		t.Fatalf("ssd=%v/%v", cfg.SSD.WriteBandwidth, cfg.SSD.ReadBandwidth)
	}
}

func TestDeviceKinds(t *testing.T) {
	for _, c := range []struct {
		kind DeviceKind
		want string
	}{
		{NoLocalDevice, "none"}, {RAMDiskDevice, "ramdisk"}, {SSDDevice, "ssd"},
	} {
		if c.kind.String() != c.want {
			t.Fatalf("%v.String() = %q", c.kind, c.kind.String())
		}
	}
}

func TestRAMDiskClusterWiring(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.LocalDevice = RAMDiskDevice
	c := New(cfg)
	if len(c.Nodes) != 4 {
		t.Fatalf("nodes = %d", len(c.Nodes))
	}
	for _, n := range c.Nodes {
		if n.Local == nil || n.RAMDisk == nil {
			t.Fatal("RAMDisk cluster missing local device")
		}
		if n.Local != storage.Device(n.RAMDisk) {
			t.Fatal("local device should be the RAMDisk")
		}
		if n.SSD != nil {
			t.Fatal("RAMDisk cluster should not build SSDs")
		}
	}
}

func TestSSDClusterWiring(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.LocalDevice = SSDDevice
	c := New(cfg)
	for _, n := range c.Nodes {
		if n.SSD == nil {
			t.Fatal("SSD cluster missing SSD")
		}
		if _, ok := n.Local.(*storage.WriteBackCache); !ok {
			t.Fatalf("SSD local device should sit behind the page cache, got %T", n.Local)
		}
	}
}

func TestNoLocalDevice(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.LocalDevice = NoLocalDevice
	c := New(cfg)
	for _, n := range c.Nodes {
		if n.Local != nil {
			t.Fatal("NoLocalDevice cluster should have nil local devices")
		}
	}
	devs := c.LocalDevices()
	if devs[0] != nil {
		t.Fatal("LocalDevices should carry nils")
	}
}

func TestSpeedPositiveProperty(t *testing.T) {
	cfg := DefaultConfig(20)
	cfg.Skew = SkewConfig{Sigma: 0.5, DriftAmplitude: 0.3, DriftPeriod: 100}
	c := New(cfg)
	f := func(node uint8, tRaw uint16) bool {
		n := c.Nodes[int(node)%len(c.Nodes)]
		s := n.Speed(float64(tRaw))
		return s > 0 && !math.IsNaN(s) && !math.IsInf(s, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHomogeneousWithoutSkew(t *testing.T) {
	cfg := DefaultConfig(10)
	cfg.Skew = SkewConfig{}
	c := New(cfg)
	for _, n := range c.Nodes {
		if got := n.Speed(123); math.Abs(got-1) > 1e-12 {
			t.Fatalf("speed = %v, want exactly 1 without skew", got)
		}
	}
}

func TestSkewSpreadsSpeeds(t *testing.T) {
	cfg := DefaultConfig(50)
	cfg.Skew = SkewConfig{Sigma: 0.3}
	cfg.Seed = 5
	c := New(cfg)
	min, max := math.Inf(1), 0.0
	for _, n := range c.Nodes {
		s := n.Speed(0)
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if max/min < 1.5 {
		t.Fatalf("speed spread %.2fx too small for sigma 0.3", max/min)
	}
}

func TestSkewDeterministicPerSeed(t *testing.T) {
	mk := func(seed int64) []float64 {
		cfg := DefaultConfig(10)
		cfg.Seed = seed
		c := New(cfg)
		out := make([]float64, 10)
		for i, n := range c.Nodes {
			out[i] = n.Speed(42)
		}
		return out
	}
	a, b := mk(3), mk(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different speeds")
		}
	}
	diff := mk(4)
	same := true
	for i := range a {
		if a[i] != diff[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical speeds")
	}
}

func TestDispatchSerializesAtMaster(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.DispatchOverhead = 0.5
	c := New(cfg)
	var ends []float64
	for i := 0; i < 3; i++ {
		c.Dispatch(func() { ends = append(ends, c.Sim.Now()) })
	}
	c.Sim.Run()
	want := []float64{0.5, 1.0, 1.5}
	for i := range want {
		if math.Abs(ends[i]-want[i]) > 1e-9 {
			t.Fatalf("dispatch ends = %v, want %v", ends, want)
		}
	}
}

func TestDispatchZeroOverheadImmediate(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.DispatchOverhead = 0
	c := New(cfg)
	ran := false
	c.Dispatch(func() { ran = true })
	c.Sim.Run()
	if !ran || c.Sim.Now() != 0 {
		t.Fatalf("ran=%v now=%v", ran, c.Sim.Now())
	}
}
